package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over replica indices. Each replica
// owns virtualNodes points on a uint64 circle, placed by hashing its
// URL — so the assignment of keys to replicas depends only on the
// replica set, not on list order, and adding or removing one replica
// moves only the keys it owned. Keys are the serving tier's canonical
// request keys: the same scenario hashes to the same replica every
// time, which is what keeps that replica's response LRU and artifact
// caches warm for it.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // replica count
}

type ringPoint struct {
	hash    uint64
	replica int
}

// hash64 maps a string onto the ring circle (first 8 bytes of its
// sha256 — uniform, stable across processes and runs).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing places each replica's virtual nodes on the circle.
func newRing(replicas []string, virtual int) *ring {
	r := &ring{n: len(replicas), points: make([]ringPoint, 0, len(replicas)*virtual)}
	for i, url := range replicas {
		for v := 0; v < virtual; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", url, v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by replica index so the
		// ring is deterministic whatever sort.Slice's internal order.
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// sequence returns every replica index in the key's failover order: the
// owner first (the key's clockwise successor on the circle), then each
// distinct replica as the walk continues. A caller that exhausts the
// sequence has tried every replica.
func (r *ring) sequence(key string) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.n)
	out := make([]int, 0, r.n)
	for i := 0; len(out) < r.n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}

// owner returns the key's primary replica.
func (r *ring) owner(key string) int {
	return r.sequence(key)[0]
}
