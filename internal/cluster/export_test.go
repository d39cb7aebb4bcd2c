package cluster

import "krak/internal/mesh"

// NewOracle returns the per-message simulator of oracle_test.go over sum
// for the external exactness tests, which need the machine catalog's
// parser from pkg/krak and so live outside this package.
func NewOracle(sum *mesh.PartitionSummary) func(Config) *Result {
	r := &oracleRunner{sum: sum}
	return r.simulate
}
