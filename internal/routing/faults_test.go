package routing

import (
	"testing"
	"testing/quick"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// Fault-avoidance properties: with an avoid predicate installed, no
// returned path — minimal, Valiant, or the adaptive candidate set with its
// BFS fallback — may traverse a failed link, and a genuinely partitioned
// pair must get no candidate rather than a bogus route.

// randomFailures marks every link id hashing below frac as failed.
func randomFailures(d *topology.Dragonfly, seed int64, frac float64) map[topology.LinkID]bool {
	s := rng.New(seed)
	failed := map[topology.LinkID]bool{}
	for _, l := range d.Links {
		if s.Float64() < frac {
			failed[l.ID] = true
		}
	}
	return failed
}

func TestPropertyNoPathTraversesFailedLink(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	nr := d.Cfg.NumRouters()

	f := func(rawA, rawB uint16, seed int64) bool {
		a := topology.RouterID(int(rawA) % nr)
		b := topology.RouterID(int(rawB) % nr)
		failed := randomFailures(d, seed, 0.15)
		e := NewEngine(d)
		e.SetAvoid(func(l topology.LinkID) bool { return failed[l] })
		s := rng.New(seed + 1)
		var all []Path
		all = append(all, e.MinimalPaths(a, b, 4, s)...)
		if a != b {
			all = append(all, e.ValiantPaths(a, b, 2, s)...)
		}
		all = append(all, e.Candidates(a, b, CandidateOptions{MaxMinimal: 4, MaxValiant: 2}, s)...)
		for _, p := range all {
			if !pathValid(d, a, b, p) {
				return false
			}
			for _, l := range p.Links {
				if failed[l] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBFSFallbackWhenStructuredPathsBlocked(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	// Fail every blue link between groups 0 and 1; the fabric stays
	// connected through the other groups, so routing must degrade to a
	// detour instead of giving up.
	failed := map[topology.LinkID]bool{}
	for _, l := range d.GlobalBetween(0, 1) {
		failed[l] = true
	}
	e := NewEngine(d)
	e.SetAvoid(func(l topology.LinkID) bool { return failed[l] })

	a := d.RouterAt(0, 0, 0)
	b := d.RouterAt(1, 0, 0)
	paths := e.Candidates(a, b, CandidateOptions{MaxMinimal: 4, MaxValiant: 2}, rng.New(3))
	if len(paths) == 0 {
		t.Fatal("no path despite connected fabric")
	}
	for _, p := range paths {
		if !pathValid(d, a, b, p) {
			t.Fatalf("invalid path %+v", p)
		}
		for _, l := range p.Links {
			if failed[l] {
				t.Fatalf("path traverses failed blue link %d", l)
			}
		}
	}
}

func TestPartitionedTopologyReturnsError(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	// Isolate one router by failing every incident link.
	var isolated topology.RouterID = 5
	failed := map[topology.LinkID]bool{}
	for _, l := range d.Incident(isolated) {
		failed[l] = true
	}
	e := NewEngine(d)
	e.SetAvoid(func(l topology.LinkID) bool { return failed[l] })

	// A partitioned pair gets no candidate (netsim reports it as
	// ErrPartitioned), in either direction.
	if paths := e.Candidates(isolated, 0, CandidateOptions{MaxMinimal: 4, MaxValiant: 2}, rng.New(3)); len(paths) != 0 {
		t.Fatalf("partitioned pair got %d paths", len(paths))
	}
	if paths := e.Candidates(0, isolated, CandidateOptions{MaxMinimal: 4, MaxValiant: 2}, rng.New(3)); len(paths) != 0 {
		t.Fatalf("reverse direction got %d paths", len(paths))
	}
	// Unaffected pairs still route.
	if paths := e.Candidates(0, 1, CandidateOptions{MaxMinimal: 4}, rng.New(3)); len(paths) == 0 {
		t.Fatal("healthy pair got no path")
	}
	// Self-route of the isolated router stays valid (it never leaves).
	if paths := e.Candidates(isolated, isolated, CandidateOptions{MaxMinimal: 4}, rng.New(3)); len(paths) == 0 {
		t.Fatal("self route got no path")
	}
}

func TestSetAvoidNilRestores(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d)
	e.SetAvoid(func(l topology.LinkID) bool { return true })
	if got := e.MinimalPaths(0, 1, 4, nil); len(got) != 0 {
		t.Fatalf("all links failed but got %d paths", len(got))
	}
	e.SetAvoid(nil)
	if got := e.MinimalPaths(0, 1, 4, nil); len(got) == 0 {
		t.Fatal("restored engine returns no paths")
	}
}
