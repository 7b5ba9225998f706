package routing

import (
	"fmt"
	"math"
	"testing"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := []string{"adaptive", "feedback", "minimal", "valiant"}
	if len(names) != len(want) {
		t.Fatalf("PolicyNames() = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("PolicyNames() = %v, want %v", names, want)
		}
		if !ValidPolicy(n) {
			t.Errorf("ValidPolicy(%q) = false", n)
		}
		p, err := NewPolicy(n, PolicyConfig{})
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("NewPolicy(%q).Name() = %q", n, p.Name())
		}
	}
	if ValidPolicy("ugal-x") {
		t.Error("ValidPolicy accepted an unknown name")
	}
	if _, err := NewPolicy("ugal-x", PolicyConfig{}); err == nil {
		t.Error("NewPolicy accepted an unknown name")
	}
}

// interGroupPair returns a router pair in different groups.
func interGroupPair(e *Engine) (a, b topology.RouterID) {
	d := e.Machine()
	return d.RouterAt(0, 0, 0), d.RouterAt(2, 1, 1)
}

func TestMinimalPolicySingleShortestPath(t *testing.T) {
	e := newEngine(t)
	a, b := interGroupPair(e)
	p, _ := NewPolicy("minimal", PolicyConfig{})
	paths := p.Candidates(e, a, b, rng.New(7))
	if len(paths) != 1 || !paths[0].Minimal {
		t.Fatalf("minimal candidates = %+v, want one minimal path", paths)
	}
	validatePath(t, e, a, b, paths[0])
	w := make([]float64, len(paths))
	split(e, p, paths, func(topology.LinkID) float64 { return 3 }, w)
	if w[0] != 1 {
		t.Fatalf("minimal weights = %v, want [1]", w)
	}
}

func TestValiantPolicyUniformOverDetours(t *testing.T) {
	e := newEngine(t)
	a, b := interGroupPair(e)
	p, _ := NewPolicy("valiant", PolicyConfig{MaxValiant: 2})
	paths := p.Candidates(e, a, b, rng.New(7))
	nonMin := 0
	for _, pa := range paths {
		validatePath(t, e, a, b, pa)
		if !pa.Minimal {
			nonMin++
		}
	}
	if nonMin == 0 {
		t.Fatal("valiant produced no non-minimal candidates on a healthy fabric")
	}
	w := make([]float64, len(paths))
	// load must not matter: valiant is oblivious
	split(e, p, paths, func(topology.LinkID) float64 { return 100 }, w)
	sum := 0.0
	for i, pa := range paths {
		sum += w[i]
		if pa.Minimal && w[i] != 0 {
			t.Errorf("valiant put weight %v on a minimal path", w[i])
		}
		if !pa.Minimal && math.Abs(w[i]-1/float64(nonMin)) > 1e-12 {
			t.Errorf("valiant weight %v, want uniform %v", w[i], 1/float64(nonMin))
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestValiantFallsBackToMinimal(t *testing.T) {
	e := newEngine(t)
	p, _ := NewPolicy("valiant", PolicyConfig{})
	paths := []Path{{Minimal: true}}
	w := make([]float64, 1)
	split(e, p, paths, func(topology.LinkID) float64 { return 0 }, w)
	if w[0] != 1 {
		t.Fatalf("valiant with no detours: weights = %v, want [1]", w)
	}
}

// TestAdaptiveNeutralBiasIsInverseCost pins the adaptive split to the
// engine's historical arithmetic: weight ∝ 1/(Σ(1+load)+1e-9), normalized
// in path order. The campaign-level hash anchor proves the same thing end
// to end; this keeps the unit contract visible.
func TestAdaptiveNeutralBiasIsInverseCost(t *testing.T) {
	e := newEngine(t)
	a, b := interGroupPair(e)
	p, _ := NewPolicy("adaptive", PolicyConfig{})
	paths := p.Candidates(e, a, b, rng.New(7))
	load := func(l topology.LinkID) float64 { return float64(l%5) * 2 }
	got := make([]float64, len(paths))
	split(e, p, paths, load, got)

	want := make([]float64, len(paths))
	var total float64
	for i, pa := range paths {
		cost := 0.0
		for _, l := range pa.Links {
			cost += 1 + load(l)
		}
		w := 1 / (cost + 1e-9)
		want[i] = w
		total += w
	}
	inv := 1 / total
	for i := range want {
		want[i] *= inv
		if got[i] != want[i] { // bit-exact, not approximately equal
			t.Fatalf("weight[%d] = %v, want %v (bit-exact)", i, got[i], want[i])
		}
	}
}

func TestAdaptiveBiasPenalizesDetours(t *testing.T) {
	e := newEngine(t)
	a, b := interGroupPair(e)
	neutral, _ := NewPolicy("adaptive", PolicyConfig{})
	biased, _ := NewPolicy("adaptive", PolicyConfig{NonMinimalBias: 4})
	paths := neutral.Candidates(e, a, b, rng.New(7))
	detour := -1
	for i, pa := range paths {
		if !pa.Minimal {
			detour = i
			break
		}
	}
	if detour < 0 {
		t.Skip("no detour in candidate set")
	}
	load := func(topology.LinkID) float64 { return 1 }
	wn := make([]float64, len(paths))
	wb := make([]float64, len(paths))
	split(e, neutral, paths, load, wn)
	split(e, biased, paths, load, wb)
	if wb[detour] >= wn[detour] {
		t.Fatalf("bias 4 did not reduce detour weight: %v -> %v", wn[detour], wb[detour])
	}
}

// TestFeedbackShiftsAwayFromStalledGroups: raising the stall ratio of the
// groups one candidate path traverses (and only those) moves split weight
// off that path, relative to the plain adaptive split.
func TestFeedbackShiftsAwayFromStalledGroups(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	a, b := interGroupPair(e)
	adaptive, _ := NewPolicy("adaptive", PolicyConfig{})
	paths := adaptive.Candidates(e, a, b, rng.New(7))
	detour := -1
	for i, pa := range paths {
		if !pa.Minimal {
			detour = i
			break
		}
	}
	if detour < 0 {
		t.Skip("no detour in candidate set")
	}
	// groups only the detour traverses (its Valiant intermediate)
	common := map[topology.GroupID]bool{d.Group(a): true, d.Group(b): true}
	stalled := map[topology.GroupID]bool{}
	for _, l := range paths[detour].Links {
		for _, r := range []topology.RouterID{d.Links[l].A, d.Links[l].B} {
			if g := d.Group(r); !common[g] {
				stalled[g] = true
			}
		}
	}
	if len(stalled) == 0 {
		t.Skip("detour stays within the endpoint groups")
	}
	fb, _ := NewPolicy("feedback", PolicyConfig{
		GroupStall: func(g topology.GroupID) float64 {
			if stalled[g] {
				return 1
			}
			return 0
		},
	})
	load := func(topology.LinkID) float64 { return 1 }
	wa := make([]float64, len(paths))
	wf := make([]float64, len(paths))
	split(e, adaptive, paths, load, wa)
	split(e, fb, paths, load, wf)
	if wf[detour] >= wa[detour] {
		t.Fatalf("stalling the detour's groups did not shed its weight: %v -> %v", wa[detour], wf[detour])
	}
	// and with no signal the feedback policy degrades to adaptive exactly
	degraded, _ := NewPolicy("feedback", PolicyConfig{})
	wd := make([]float64, len(paths))
	split(e, degraded, paths, load, wd)
	for i := range wd {
		if wd[i] != wa[i] {
			t.Fatalf("feedback without a signal diverged from adaptive at %d: %v != %v", i, wd[i], wa[i])
		}
	}
}

// TestBulkSplitAllocFree pins the split as allocation-free: the round loop
// calls it once per relaxation iteration for the whole flow list, so a
// single alloc here multiplies across the whole campaign.
func TestBulkSplitAllocFree(t *testing.T) {
	e := newEngine(t)
	d := e.Machine()
	for _, name := range PolicyNames() {
		p := mustPolicy(t, name, PolicyConfig{GroupStall: func(topology.GroupID) float64 { return 0.1 }})
		s := rng.New(7)
		var fl flowList
		for f := 0; f < 16; f++ {
			src := d.RouterAt(topology.GroupID(s.Intn(9)), s.Intn(4), s.Intn(6))
			dst := d.RouterAt(topology.GroupID((int(d.Group(src))+1+s.Intn(8))%9), s.Intn(4), s.Intn(6))
			fl.add(p.Candidates(e, src, dst, s.Split(fmt.Sprintf("p-%d", f))), true)
		}
		a := fl.arena(d)
		load := make([]float64, len(d.Links))
		w := make([]float64, len(a.Rank))
		var sc Scratch
		allocs := testing.AllocsPerRun(100, func() {
			p.SplitWeights(e, a, fl.active, load, &sc, w)
		})
		if allocs != 0 {
			t.Fatalf("%s SplitWeights allocated %.1f times per run, want 0", name, allocs)
		}
	}
}

func mustPolicy(t *testing.T, name string, cfg PolicyConfig) Policy {
	t.Helper()
	p, err := NewPolicy(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// flowList collects per-flow candidate sets and activity flags for an
// Arena.
type flowList struct {
	paths  [][]Path
	active []bool
}

func (fl *flowList) add(paths []Path, active bool) {
	fl.paths = append(fl.paths, paths)
	fl.active = append(fl.active, active)
}

// arena builds the Arena of the collected flows on machine d.
func (fl *flowList) arena(d *topology.Dragonfly) *Arena {
	index := make([]int32, len(d.Links))
	for l := range index {
		index[l] = -1
	}
	return NewArena(fl.paths, index)
}

// split runs p's split over one flow's candidate paths, with load evaluated
// into the per-link view the split reads.
func split(e *Engine, p Policy, paths []Path, load func(topology.LinkID) float64, dst []float64) {
	var fl flowList
	fl.add(paths, true)
	view := make([]float64, len(e.Machine().Links))
	for l := range view {
		view[l] = load(topology.LinkID(l))
	}
	p.SplitWeights(e, fl.arena(e.Machine()), fl.active, view, &Scratch{}, dst)
}
