package routing

import (
	"reflect"
	"testing"

	"dragonvar/internal/topology"
)

// literalIntraGroupPaths is IntraGroupPaths as it was written before the
// path list was built from appendIntra: the reference for the intra-group
// half of the walk.
func literalIntraGroupPaths(d *topology.Dragonfly, a, b topology.RouterID) []Path {
	if a == b {
		return []Path{{Minimal: true}}
	}
	ra, ca := d.Row(a), d.Col(a)
	rb, cb := d.Row(b), d.Col(b)
	switch {
	case ra == rb:
		return []Path{{Links: []topology.LinkID{d.RowLink(a, cb)}, Minimal: true}}
	case ca == cb:
		return []Path{{Links: []topology.LinkID{d.ColLink(a, rb)}, Minimal: true}}
	default:
		g := d.Group(a)
		corner1 := d.RouterAt(g, ra, cb)
		corner2 := d.RouterAt(g, rb, ca)
		return []Path{
			{Links: []topology.LinkID{d.RowLink(a, cb), d.ColLink(corner1, rb)}, Minimal: true},
			{Links: []topology.LinkID{d.ColLink(a, rb), d.RowLink(corner2, cb)}, Minimal: true},
		}
	}
}

// checkWalk compares AppendMinimalLinks with the flattened
// MinimalPaths(a, b, k, nil) for one pair.
func checkWalk(t *testing.T, e *Engine, buf []topology.LinkID, a, b topology.RouterID, k int) []topology.LinkID {
	t.Helper()
	paths := e.MinimalPaths(a, b, k, nil)
	var want []topology.LinkID
	for _, p := range paths {
		want = append(want, p.Links...)
	}
	got, n := e.AppendMinimalLinks(buf[:0], a, b, k)
	if n != len(paths) || len(got) != len(want) {
		t.Fatalf("%d→%d k=%d: walk %d paths %v, MinimalPaths %d paths %v", a, b, k, n, got, len(paths), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%d→%d k=%d: walk %v, MinimalPaths %v", a, b, k, got, want)
		}
	}
	return got
}

func TestIntraGroupPathsMatchLiteral(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	rpg := d.Cfg.RoutersPerGroup()
	for a := 0; a < d.Cfg.NumRouters(); a++ {
		g0 := a / rpg * rpg
		for b := g0; b < g0+rpg; b++ {
			ra, rb := topology.RouterID(a), topology.RouterID(b)
			if got, want := e.IntraGroupPaths(ra, rb), literalIntraGroupPaths(d, ra, rb); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d→%d: %+v, want %+v", a, b, got, want)
			}
		}
	}
}

func TestMinimalLinkWalkMatchesMinimalPathsSmall(t *testing.T) {
	e := newEngine(t)
	n := e.Machine().Cfg.NumRouters()
	var buf []topology.LinkID
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for _, k := range []int{1, 2, 4} {
				buf = checkWalk(t, e, buf, topology.RouterID(a), topology.RouterID(b), k)
			}
		}
	}
}

func TestMinimalLinkWalkMatchesMinimalPathsCori(t *testing.T) {
	d, err := topology.New(topology.Cori())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d)
	n := d.Cfg.NumRouters()
	var buf []topology.LinkID
	// a prime stride walks every (a, b) offset class without aligning to
	// the group or row structure
	for i := 0; i < n*n; i += 211 {
		buf = checkWalk(t, e, buf, topology.RouterID(i/n), topology.RouterID(i%n), 2)
	}
}

func TestMinimalLinkWalkAllocFree(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a, b := d.RouterAt(0, 1, 1), d.RouterAt(3, 4, 6)
	buf, _ := e.AppendMinimalLinks(nil, a, b, 2)
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = e.AppendMinimalLinks(buf[:0], a, b, 2)
	}); allocs != 0 {
		t.Fatalf("walk with a reused buffer allocated %v times per call", allocs)
	}
}

func TestMinimalLinkWalkRejectsFaultedEngine(t *testing.T) {
	e := newEngine(t)
	e.SetAvoid(func(topology.LinkID) bool { return false })
	defer func() {
		if recover() == nil {
			t.Fatal("walk on an engine with an avoid predicate should panic")
		}
	}()
	e.AppendMinimalLinks(nil, 0, 1, 2)
}
