package netsim

import (
	"math"
	"testing"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// The round loop's fast-path contracts: warm rounds and warm candidate
// lookups allocate nothing, and a shared path cache changes no routing
// decision. randFlows is the randomized flow generator these tests and the
// round-loop golden (golden_test.go) share.

func randFlows(s *rng.Stream, d *topology.Dragonfly, n int) []Flow {
	flows := make([]Flow, 0, n)
	for i := 0; i < n; i++ {
		g1 := s.Intn(9)
		g2 := s.Intn(9)
		f := Flow{
			Src:             d.RouterAt(topology.GroupID(g1), s.Intn(4), s.Intn(6)),
			Dst:             d.RouterAt(topology.GroupID(g2), s.Intn(4), s.Intn(6)),
			Flits:           math.Floor(s.Float64()*1e8) + 1,
			Packets:         math.Floor(s.Float64()*1e4) + 1,
			RequestFraction: 0.8,
		}
		switch s.Intn(8) {
		case 0:
			f.Dst = f.Src // self-traffic: no links touched
		case 1:
			f.Flits = 0 // zero-volume flow: still routed, adds nothing
		}
		flows = append(flows, f)
	}
	return flows
}

// TestRoundLoopAllocFree pins the steady-state allocation count of the hot
// round loop: with slowdown-slice reuse enabled, a warm RunRoundRouted must
// not allocate at all.
func TestRoundLoopAllocFree(t *testing.T) {
	for _, pol := range []string{"adaptive", "minimal"} {
		t.Run(pol, func(t *testing.T) {
			d, err := topology.New(topology.Small())
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Routing = pol
			n := New(d, cfg, rng.New(1))
			n.ReuseSlowdowns(true)
			flows := randFlows(rng.New(9), d, 64)
			routed := n.Resolve(flows)
			n.RunRoundRouted(flows, routed, nil, 1.0) // warm-up
			allocs := testing.AllocsPerRun(20, func() {
				n.RunRoundRouted(flows, routed, nil, 1.0)
			})
			if allocs != 0 {
				t.Fatalf("warm round loop allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestCandidateCacheHitAllocFree pins candidate selection on a warm path
// cache: looking up an already-resolved router pair must not allocate.
func TestCandidateCacheHitAllocFree(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, DefaultConfig(), rng.New(1))
	flows := randFlows(rng.New(9), d, 64)
	n.Resolve(flows) // populate the per-pair candidate cache
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range flows {
			n.candidates(f.Src, f.Dst)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm candidate lookup allocated %.1f times per run, want 0", allocs)
	}
}

// TestSharedPathCacheDeterminism verifies that pooling resolved paths across
// identically seeded networks changes nothing about the routing decisions:
// a network resolving against a cache pre-warmed by its twin produces the
// same candidates and split weights as one resolving cold.
func TestSharedPathCacheDeterminism(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	flows := randFlows(rng.New(9), d, 128)

	cold := New(d, cfg, rng.New(3))
	rCold := cold.Resolve(flows)

	shared := NewPathCache()
	warmer := New(d, cfg, rng.New(3))
	warmer.SharePathCache(shared)
	warmer.Resolve(flows) // populate the shared pool

	warm := New(d, cfg, rng.New(3))
	warm.SharePathCache(shared)
	rWarm := warm.Resolve(flows)

	if len(rCold.links) != len(rWarm.links) {
		t.Fatalf("link arenas differ in size: %d vs %d", len(rCold.links), len(rWarm.links))
	}
	for i := range rCold.links {
		if rCold.links[i] != rWarm.links[i] {
			t.Fatalf("link %d differs: %v vs %v", i, rCold.links[i], rWarm.links[i])
		}
	}
	res1 := cold.RunRoundRouted(flows, rCold, nil, 1.0)
	res2 := warm.RunRoundRouted(flows, rWarm, nil, 1.0)
	for i := range res1.Slowdown {
		if res1.Slowdown[i] != res2.Slowdown[i] {
			t.Fatalf("slowdown[%d] differs: %v vs %v", i, res1.Slowdown[i], res2.Slowdown[i])
		}
	}
}
