package faults

import (
	"reflect"
	"testing"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

func smallTopo(t *testing.T) *topology.Dragonfly {
	t.Helper()
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseExplicit(t *testing.T) {
	d := smallTopo(t)
	s, err := Parse("link:3@100-200, link:4@0-50*0.5, router:2@10-20, drain:1@5-15, dropout@0-600", d, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Events()); got != 5 {
		t.Fatalf("events = %d, want 5", got)
	}
	v := s.ViewAt(150)
	if !v.LinkDown(3) {
		t.Fatal("link 3 should be down at t=150")
	}
	if v.LinkFactor(4) != 1 {
		t.Fatal("link 4 degradation should have expired by t=150")
	}
	v = s.ViewAt(25)
	if f := v.LinkFactor(4); f != 0.5 {
		t.Fatalf("link 4 factor = %v, want 0.5", f)
	}
	v = s.ViewAt(15)
	if !v.RouterDown(2) {
		t.Fatal("router 2 should be down at t=15")
	}
	for _, l := range d.Incident(2) {
		if !v.LinkDown(l) {
			t.Fatalf("incident link %d of down router should be dead", l)
		}
	}
	if !s.DropoutAt(300) || s.DropoutAt(700) {
		t.Fatal("dropout window [0,600) mislocated")
	}
	if !s.DropoutOverlaps(550, 650) {
		t.Fatal("overlap query missed the window edge")
	}
}

func TestParseErrors(t *testing.T) {
	d := smallTopo(t)
	for _, spec := range []string{
		"bogus",
		"links=-1",
		"links=x",
		"wat=3",
		"link:999999@0-10",
		"router:999999@0-10",
		"link:3@50-10",
		"link:3@0-10*1.5",
		"router:1@0-10*0.5",
		"dropout@nope",
	} {
		if _, err := Parse(spec, d, 86400, 1); err == nil {
			t.Errorf("spec %q: want error", spec)
		}
	}
}

func TestParseEmptyIsNil(t *testing.T) {
	d := smallTopo(t)
	for _, spec := range []string{"", "  ", "none"} {
		s, err := Parse(spec, d, 86400, 1)
		if err != nil || s != nil {
			t.Fatalf("spec %q: got (%v, %v), want (nil, nil)", spec, s, err)
		}
	}
}

func TestNilScheduleQueries(t *testing.T) {
	var s *Schedule
	if !s.Empty() || s.Epoch(100) != 0 || s.DropoutAt(5) || s.DrainedNodes(0) != nil {
		t.Fatal("nil schedule must behave as fault-free")
	}
	if !s.ViewAt(0).Clean() {
		t.Fatal("nil schedule view must be clean")
	}
	if _, ok := s.FirstFailure([]topology.RouterID{1}, 0, 100); ok {
		t.Fatal("nil schedule has no failures")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d := smallTopo(t)
	cfg := GenConfig{Horizon: 86400, LinkDown: 3, LinkDegraded: 2, RouterDown: 1, NodeDrain: 2, Dropouts: 4}
	a, err := Generate(d, cfg, rng.NewLabeled(9, "faults"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(d, cfg, rng.NewLabeled(9, "faults"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed must yield the same schedule")
	}
	if len(a.Events()) != 12 {
		t.Fatalf("events = %d, want 12", len(a.Events()))
	}
	for _, e := range a.Events() {
		if e.Start < 0 || e.End > cfg.Horizon+61 || e.Start >= e.End {
			t.Fatalf("event window out of horizon: %+v", e)
		}
	}
}

func TestEpochsPartitionTime(t *testing.T) {
	d := smallTopo(t)
	s, err := Parse("link:3@100-200,dropout@150-300", d, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	// boundaries 100, 150, 200, 300 → epochs change exactly there
	times := []float64{0, 99, 100, 149, 150, 199, 200, 299, 300, 1e6}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	for i, tm := range times {
		if e := s.Epoch(tm); e != want[i] {
			t.Fatalf("Epoch(%g) = %d, want %d", tm, e, want[i])
		}
	}
}

func TestDrainedNodesAndFirstFailure(t *testing.T) {
	d := smallTopo(t)
	s, err := Parse("drain:2@100-200", d, 86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := s.DrainedNodes(150)
	for _, n := range d.NodesOfRouter(2) {
		if !nodes.Has(n) {
			t.Fatalf("node %d of drained router not reported", n)
		}
	}
	if s.DrainedNodes(250) != nil {
		t.Fatal("drain should have ended")
	}
	at, ok := s.FirstFailure([]topology.RouterID{2}, 0, 500)
	if !ok || at != 100 {
		t.Fatalf("FirstFailure = (%v, %v), want (100, true)", at, ok)
	}
	// job starting mid-drain is killed immediately
	at, ok = s.FirstFailure([]topology.RouterID{2}, 120, 500)
	if !ok || at != 120 {
		t.Fatalf("FirstFailure mid-drain = (%v, %v), want (120, true)", at, ok)
	}
	if _, ok := s.FirstFailure([]topology.RouterID{5}, 0, 500); ok {
		t.Fatal("unaffected router must not fail")
	}
	if _, ok := s.FirstFailure([]topology.RouterID{2}, 300, 500); ok {
		t.Fatal("window after drain must not fail")
	}
}
