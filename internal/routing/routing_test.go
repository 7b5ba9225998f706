package routing

import (
	"testing"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(d)
}

// validatePath walks the path from src verifying link continuity and that
// it ends at dst.
func validatePath(t *testing.T, e *Engine, src, dst topology.RouterID, p Path) {
	t.Helper()
	d := e.Machine()
	cur := src
	for i, id := range p.Links {
		l := d.Links[id]
		if l.A != cur && l.B != cur {
			t.Fatalf("hop %d: link %d (%d-%d) not incident to current router %d", i, id, l.A, l.B, cur)
		}
		cur = l.Other(cur)
	}
	if cur != dst {
		t.Fatalf("path from %d ends at %d, want %d", src, cur, dst)
	}
}

func TestIntraGroupSelf(t *testing.T) {
	e := newEngine(t)
	r := e.Machine().RouterAt(0, 1, 2)
	paths := e.IntraGroupPaths(r, r)
	if len(paths) != 1 || paths[0].Hops() != 0 {
		t.Fatalf("self path = %+v", paths)
	}
}

func TestIntraGroupSameRow(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(1, 2, 0)
	b := d.RouterAt(1, 2, 3)
	paths := e.IntraGroupPaths(a, b)
	if len(paths) != 1 || paths[0].Hops() != 1 {
		t.Fatalf("same-row paths = %+v", paths)
	}
	if d.Links[paths[0].Links[0]].Type != topology.Green {
		t.Fatal("same-row link should be green")
	}
	validatePath(t, e, a, b, paths[0])
}

func TestIntraGroupSameCol(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(1, 0, 4)
	b := d.RouterAt(1, 3, 4)
	paths := e.IntraGroupPaths(a, b)
	if len(paths) != 1 || paths[0].Hops() != 1 {
		t.Fatalf("same-col paths = %+v", paths)
	}
	if d.Links[paths[0].Links[0]].Type != topology.Black {
		t.Fatal("same-col link should be black")
	}
	validatePath(t, e, a, b, paths[0])
}

func TestIntraGroupCorner(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(2, 0, 0)
	b := d.RouterAt(2, 3, 5)
	paths := e.IntraGroupPaths(a, b)
	if len(paths) != 2 {
		t.Fatalf("corner case should yield 2 paths, got %d", len(paths))
	}
	for _, p := range paths {
		if p.Hops() != 2 {
			t.Fatalf("corner path hops = %d, want 2", p.Hops())
		}
		if !p.Minimal {
			t.Fatal("intra-group paths must be minimal")
		}
		validatePath(t, e, a, b, p)
	}
	// the two candidates must differ
	if paths[0].Links[0] == paths[1].Links[0] {
		t.Fatal("corner candidates should take different first hops")
	}
}

func TestIntraGroupPanicsAcrossGroups(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.IntraGroupPaths(d.RouterAt(0, 0, 0), d.RouterAt(1, 0, 0))
}

func TestMinimalPathsInterGroup(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(0, 1, 1)
	b := d.RouterAt(3, 2, 4)
	paths := e.MinimalPaths(a, b, 4, nil)
	if len(paths) == 0 {
		t.Fatal("no minimal paths across groups")
	}
	for _, p := range paths {
		validatePath(t, e, a, b, p)
		if !p.Minimal {
			t.Fatal("MinimalPaths returned non-minimal path")
		}
		// minimal inter-group: at most 2 intra + 1 blue + 2 intra = 5 hops
		if p.Hops() > 5 {
			t.Fatalf("minimal path has %d hops", p.Hops())
		}
		// exactly one blue link
		blues := 0
		for _, id := range p.Links {
			if d.Links[id].Type == topology.Blue {
				blues++
			}
		}
		if blues != 1 {
			t.Fatalf("minimal inter-group path crosses %d blue links, want 1", blues)
		}
	}
}

func TestMinimalPathsRespectsMaxCandidates(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(0, 0, 0)
	b := d.RouterAt(5, 3, 3)
	if got := len(e.MinimalPaths(a, b, 2, nil)); got > 2 {
		t.Fatalf("got %d candidates, cap was 2", got)
	}
	if got := len(e.MinimalPaths(a, b, 1, nil)); got != 1 {
		t.Fatalf("got %d candidates, cap was 1", got)
	}
}

func TestMinimalPathsSampledWithStream(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(0, 0, 1)
	b := d.RouterAt(4, 1, 2)
	s := rng.New(99)
	paths := e.MinimalPaths(a, b, 3, s)
	for _, p := range paths {
		validatePath(t, e, a, b, p)
	}
}

func TestValiantPaths(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(0, 1, 1)
	b := d.RouterAt(3, 2, 2)
	s := rng.New(7)
	paths := e.ValiantPaths(a, b, 3, s)
	if len(paths) == 0 {
		t.Fatal("no valiant paths")
	}
	for _, p := range paths {
		validatePath(t, e, a, b, p)
		if p.Minimal {
			t.Fatal("valiant path marked minimal")
		}
		// valiant crosses exactly two blue links
		blues := 0
		for _, id := range p.Links {
			if d.Links[id].Type == topology.Blue {
				blues++
			}
		}
		if blues != 2 {
			t.Fatalf("valiant path crosses %d blue links, want 2", blues)
		}
		// must not route via source or destination group blue-to-blue
		if p.Hops() > 8 {
			t.Fatalf("valiant path too long: %d hops", p.Hops())
		}
	}
}

func TestValiantSameGroup(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(2, 0, 0)
	b := d.RouterAt(2, 3, 5)
	s := rng.New(11)
	paths := e.ValiantPaths(a, b, 2, s)
	for _, p := range paths {
		validatePath(t, e, a, b, p)
	}
}

func TestCandidatesMixesMinimalAndValiant(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a := d.RouterAt(1, 1, 1)
	b := d.RouterAt(6, 2, 3)
	s := rng.New(5)
	paths := e.Candidates(a, b, CandidateOptions{MaxMinimal: 3, MaxValiant: 2}, s)
	var minimal, valiant int
	for _, p := range paths {
		validatePath(t, e, a, b, p)
		if p.Minimal {
			minimal++
		} else {
			valiant++
		}
	}
	if minimal == 0 || valiant == 0 {
		t.Fatalf("candidates: %d minimal, %d valiant; want both > 0", minimal, valiant)
	}
}

func TestSampleIndicesDistinct(t *testing.T) {
	s := rng.New(17)
	for trial := 0; trial < 50; trial++ {
		idx := sampleIndices(10, 4, s)
		if len(idx) != 4 {
			t.Fatalf("len = %d", len(idx))
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= 10 || seen[i] {
				t.Fatalf("bad sample %v", idx)
			}
			seen[i] = true
		}
	}
	// k > n clamps
	if got := len(sampleIndices(3, 10, s)); got != 3 {
		t.Fatalf("clamped sample len = %d", got)
	}
	if sampleIndices(5, 0, s) != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestDeterministicPrefixWithoutStream(t *testing.T) {
	idx := sampleIndices(10, 3, nil)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 2 {
		t.Fatalf("nil-stream sample = %v", idx)
	}
}
