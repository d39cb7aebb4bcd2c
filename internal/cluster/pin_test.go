package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"krak/internal/compute"
	"krak/internal/netmodel"
	"krak/internal/phases"
)

// pinnedDigests fixes the simulator's output bit for bit: each entry is
// the sha256 of every float the Results of iterations 0, 1 and 2 report
// (see digestResult), run on one Runner. A change to the simulator's
// arithmetic or message schedule shows up here as a digest mismatch
// even when every tolerance-based test still passes.
var pinnedDigests = map[string]string{
	"P1/async/fat-tree":                 "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/async/gige":                     "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/async/infiniband":               "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/async/qsnet":                    "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/async/torus":                    "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/serialized/fat-tree":            "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/serialized/gige":                "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/serialized/infiniband":          "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/serialized/qsnet":               "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P1/serialized/torus":               "b5f295141198a6cc705a4fe2c9bfae25912acf9321e12a6e0d4f7ad0b5b4825c",
	"P128/async/fat-tree":               "fb83f8709c30b237ebef7360d25fe437cba4764f47f3f039c7f0be7369dc8680",
	"P128/async/gige":                   "a2d51b718687c56096c388b25900e9cadb958ae2162e07cb0aae4e0072df90bd",
	"P128/async/infiniband":             "5ae390df74968acb8599a5b1e65f2a6b2f192c198a3f83f43336c14ca55d871f",
	"P128/async/qsnet":                  "c5c6345f8585834db65b2448b7287eab4dc2b90af93f3cb44c35ff1d5434d56b",
	"P128/async/torus":                  "7a83eace310487282bb9dca0086dbbf56af238bf8ebc7c79835a47523b669f42",
	"P128/serialized/fat-tree":          "d68738780442233fb4e1d9c1d63eb0916f913ca698ba1e29595e929918e36034",
	"P128/serialized/gige":              "fc2d59342c90edfc42c76ca7c9b5f0dc6be2d46777818a628473b5b7b0ed34a4",
	"P128/serialized/infiniband":        "38861e36ff89a22271f2a6f2cc5740678a773cc978c9e3efff5f659a2b8e8c59",
	"P128/serialized/qsnet":             "0818bf73e05f3eb26ba26992323673fa35fb1ccdfc5c22f9c7115443b8c2d3c2",
	"P128/serialized/torus":             "ad4b45d40c0faf2b9429620aee661f386896acd1463d29fdac40228ffaf5d1f9",
	"P2/async/fat-tree":                 "36c6aeaca147ab2e9fa054da4fc7b903922ed9314a6d8911c230fe19a1e1156b",
	"P2/async/gige":                     "d68c62b6aa0b7970c331131ef5408cb5fa7f6141f3da8d766849aaa057589f25",
	"P2/async/infiniband":               "36c6aeaca147ab2e9fa054da4fc7b903922ed9314a6d8911c230fe19a1e1156b",
	"P2/async/qsnet":                    "b3ac8fb437e07232777914726be0f4f602318d8ad8100019538eaa5da421881c",
	"P2/async/torus":                    "a4980ae368eb34363d06b2ea0b8e01015d70bac17639b91edb2a0d5dde24de81",
	"P2/serialized/fat-tree":            "ca782a3d82977b1e136b74319bcf4249bc4a3f5ee9e7a1947678939ae91d02ea",
	"P2/serialized/gige":                "2d6ed6d84ec08b1f150528edb273e9f2cca3312f4da8b142f6ef5c7322af9674",
	"P2/serialized/infiniband":          "ca782a3d82977b1e136b74319bcf4249bc4a3f5ee9e7a1947678939ae91d02ea",
	"P2/serialized/qsnet":               "bbd9d42aafeac2c62278817a52358e97f481bf2d1e4b64b2bdfdbafa0a1a60d9",
	"P2/serialized/torus":               "509d64b353951c09420d3082235d55781b04a6d450d16270ec806610ea19e534",
	"P32/async/fat-tree":                "4f24b5113b67608e69b63aabef713a3bbeb0626b4a05951c8c8ac8ad88d94fe1",
	"P32/async/gige":                    "b5501e469b66a25b409f9dd8381f7e85ee985d424cab7cbcf187aca4dd52450f",
	"P32/async/infiniband":              "53aeba68179b2c24beb8ff82c05ce147622551e6b839611351acda2adcbdd923",
	"P32/async/qsnet":                   "f20e0e7a74b74feb24db48a853c37db2c0d9b25d955f48311ce31a1ef433e920",
	"P32/async/reused:qsnet,gige,qsnet": "215d35bcd03a386559de5c2ae962ee39e1d7b748bdde92f13ccad683819261ad",
	"P32/async/torus":                   "680f573aafebf43924b2b08b4bf7931c7506e9e497e7e5f0416dbe25b90e7a00",
	"P32/serialized/fat-tree":           "6c42fadf79973a1aa47224a72339697c2135572e2921cd02fd1d2d0cf59e469e",
	"P32/serialized/gige":               "80b8576cbb110df6de9b6839e3b40c1d08f2dcdd1ea53a2f7ec9c34088245e5d",
	"P32/serialized/infiniband":         "d089dd190bd6d0b4d61ec7f2a5bd98fe105b222bd883429203188f3a3d4cdb63",
	"P32/serialized/qsnet":              "cc7d964313767b533d44eef2de26ea9d40969c3f3745a95eb8fdea8ec2e52933",
	"P32/serialized/torus":              "ba79555f212323195d2b15b2e8ddc43271c0412e6c45764b2277822c910ffdd5",
	"P7/async/fat-tree":                 "ba7c5d40e07eba9e9f2073a54d0e0cb31fa9768b372b8d4000c00a86ed84a083",
	"P7/async/gige":                     "31aa6ca4b222747b5ebccd373b9234681db2caafa347f1b60e9c36ac161892fb",
	"P7/async/infiniband":               "ba7c5d40e07eba9e9f2073a54d0e0cb31fa9768b372b8d4000c00a86ed84a083",
	"P7/async/qsnet":                    "d74f2cb488a7022340f8461da9acc09554b0c50e47d78cc57db1f2a9edf7b6cc",
	"P7/async/torus":                    "3e11b0eca312e7e993c3339176a14619c901afc79ad3719194b8414bc0958b9e",
	"P7/serialized/fat-tree":            "b70823bcd3bde2a235a0bcd0cf4c45b4d54aebb3620933f6e20c7ccf083b3b98",
	"P7/serialized/gige":                "0d19f71e7818e7a4626a2689067b44462ae4a99889e850aa6f0506969163f2eb",
	"P7/serialized/infiniband":          "b70823bcd3bde2a235a0bcd0cf4c45b4d54aebb3620933f6e20c7ccf083b3b98",
	"P7/serialized/qsnet":               "32de4cb2747fa46381e8a90122934a7dd42e6b8cf071a72d307c249ba913a404",
	"P7/serialized/torus":               "1b321c16330314a112294499710c68e98f904796c80a7ae39434e238fc56d889",
}

// digestResult feeds a Result's numbers into h in a fixed order.
func digestResult(h hash.Hash, r *Result) {
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(r.IterationTime)
	for ph := 0; ph < phases.Count; ph++ {
		put(r.PhaseTimes[ph])
		put(r.CommTimes[ph])
	}
	put(r.CollectiveTime)
	for ph := 0; ph < phases.Count; ph++ {
		for _, v := range r.ComputeTimes[ph] {
			put(v)
		}
	}
}

// pinNets are the interconnects the pinned grid runs over: the three
// flat presets plus one fat-tree and one torus topology.
func pinNets(t *testing.T) []struct {
	name string
	net  *netmodel.Model
} {
	return []struct {
		name string
		net  *netmodel.Model
	}{
		{"qsnet", netmodel.QsNetI()},
		{"gige", netmodel.GigE()},
		{"infiniband", netmodel.Infiniband()},
		{"fat-tree", withTopology(t, netmodel.Infiniband(), netmodel.FatTree(36, 0.2e-6))},
		{"torus", withTopology(t, netmodel.QsNetI(), netmodel.Torus3D(4, 4, 8, 0.05e-6))},
	}
}

func withTopology(t *testing.T, m *netmodel.Model, tp netmodel.Topology) *netmodel.Model {
	t.Helper()
	out, err := m.WithTopology(tp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// pinDigest runs iterations 0-2 of each config in turn on one Runner and
// returns the hex digest of all the Results.
func pinDigest(t *testing.T, r *Runner, cfgs ...Config) string {
	t.Helper()
	h := sha256.New()
	for _, cfg := range cfgs {
		for it := 0; it < 3; it++ {
			c := cfg
			c.Iteration = it
			res, err := r.Simulate(c)
			if err != nil {
				t.Fatal(err)
			}
			digestResult(h, res)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestRunnerPinnedDigests(t *testing.T) {
	costs := compute.ES45()
	got := map[string]string{}
	for _, p := range []int{1, 2, 7, 32, 128} {
		sum := summarize(t, 96, 48, p)
		for _, serialize := range []bool{false, true} {
			mode := "async"
			if serialize {
				mode = "serialized"
			}
			for _, n := range pinNets(t) {
				name := fmt.Sprintf("P%d/%s/%s", p, mode, n.name)
				cfg := Config{Net: n.net, Costs: costs, SerializeSends: serialize}
				got[name] = pinDigest(t, NewRunner(sum), cfg)
			}
		}
	}
	// One Runner reused across two interconnects and back: its cached
	// message layout must follow the Config it is handed.
	sum := summarize(t, 96, 48, 32)
	qs := Config{Net: netmodel.QsNetI(), Costs: costs}
	ge := Config{Net: netmodel.GigE(), Costs: costs}
	got["P32/async/reused:qsnet,gige,qsnet"] = pinDigest(t, NewRunner(sum), qs, ge, qs)

	for name, digest := range got {
		want, ok := pinnedDigests[name]
		switch {
		case !ok:
			t.Errorf("no pinned digest for %s (got %q)", name, digest)
		case digest != want:
			t.Errorf("%s: digest %s, pinned %s", name, digest, want)
		}
	}
	if len(pinnedDigests) != len(got) {
		t.Errorf("%d pinned digests, %d cases", len(pinnedDigests), len(got))
	}
}

// The reused-Runner case must see the same numbers a fresh Runner per
// interconnect sees.
func TestRunnerReuseAcrossNets(t *testing.T) {
	sum := summarize(t, 96, 48, 32)
	costs := compute.ES45()
	qs := Config{Net: netmodel.QsNetI(), Costs: costs}
	ge := Config{Net: netmodel.GigE(), Costs: costs}
	reused := pinDigest(t, NewRunner(sum), qs, ge, qs)
	h := sha256.New()
	for _, cfg := range []Config{qs, ge, qs} {
		r := NewRunner(sum)
		for it := 0; it < 3; it++ {
			c := cfg
			c.Iteration = it
			res, err := r.Simulate(c)
			if err != nil {
				t.Fatal(err)
			}
			digestResult(h, res)
		}
	}
	if fresh := fmt.Sprintf("%x", h.Sum(nil)); fresh != reused {
		t.Fatalf("reused Runner digest %s, fresh Runners %s", reused, fresh)
	}
}
