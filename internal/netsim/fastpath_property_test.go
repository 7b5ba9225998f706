package netsim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
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
// round loop: a warm RunRoundRouted returns its slowdowns in the routes'
// own buffer and must not allocate at all.
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

	if !reflect.DeepEqual(rCold.arena, rWarm.arena) {
		t.Fatal("candidate arenas differ between the cold and the shared cache")
	}
	res1 := cold.RunRoundRouted(flows, rCold, nil, 1.0)
	res2 := warm.RunRoundRouted(flows, rWarm, nil, 1.0)
	for i := range res1.Slowdown {
		if res1.Slowdown[i] != res2.Slowdown[i] {
			t.Fatalf("slowdown[%d] differs: %v vs %v", i, res1.Slowdown[i], res2.Slowdown[i])
		}
	}
}

// TestSharedPathCacheMetrics: every candidate lookup counts as exactly one
// hit or one miss, whether the network resolved the pair itself or a twin
// sharing its cache did. A network resolving its twin's flows against the
// twin's cache hits on every flow and misses on none.
func TestSharedPathCacheMetrics(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	telemetry.Enable(reg)
	defer telemetry.Disable()
	counts := func() (hits, misses int64) {
		return reg.Counter(telemetry.MNetsimCacheHits).Value(), reg.Counter(telemetry.MNetsimCacheMisses).Value()
	}
	cfg := DefaultConfig()
	flows := randFlows(rng.New(9), d, 128)
	shared := NewPathCache()

	a := New(d, cfg, rng.New(3))
	a.SharePathCache(shared)
	a.Resolve(flows)
	hitsA, missesA := counts()
	if hitsA+missesA != int64(len(flows)) {
		t.Fatalf("A: %d hits + %d misses, want %d lookups", hitsA, missesA, len(flows))
	}

	b := New(d, cfg, rng.New(3))
	b.SharePathCache(shared)
	b.Resolve(flows)
	hits, misses := counts()
	if hits-hitsA != int64(len(flows)) || misses != missesA {
		t.Fatalf("B: %d hits, %d misses on A's cache, want %d hits, 0 misses",
			hits-hitsA, misses-missesA, len(flows))
	}
}

// TestSharedPathCacheResolvesOnce: twins resolving the same flows at once
// against one shared cache sample each pair once between them — a twin
// that finds a pair in flight waits for it — so the misses equal those of
// a single network resolving alone, and every twin gets the same paths.
func TestSharedPathCacheResolvesOnce(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	telemetry.Enable(reg)
	defer telemetry.Disable()
	misses := func() int64 { return reg.Counter(telemetry.MNetsimCacheMisses).Value() }
	cfg := DefaultConfig()
	flows := randFlows(rng.New(9), d, 128)

	alone := New(d, cfg, rng.New(3))
	alone.Resolve(flows)
	want := misses()

	shared := NewPathCache()
	twins := make([]*Network, 4)
	for i := range twins {
		twins[i] = New(d, cfg, rng.New(3))
		twins[i].SharePathCache(shared)
	}
	var wg sync.WaitGroup
	for _, n := range twins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Resolve(flows)
		}()
	}
	wg.Wait()
	if got := misses() - want; got != want {
		t.Fatalf("4 twins missed %d times between them, one network alone %d", got, want)
	}
	for _, f := range flows {
		ref := alone.candidates(f.Src, f.Dst)
		for i, n := range twins {
			if got := n.candidates(f.Src, f.Dst); !reflect.DeepEqual(got, ref) {
				t.Fatalf("twin %d: candidates %d→%d differ from the lone network's", i, f.Src, f.Dst)
			}
		}
	}
}
