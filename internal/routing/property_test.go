package routing

import (
	"testing"
	"testing/quick"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// Property tests: for arbitrary router pairs, every produced path must be
// valid (link-continuous, ending at the destination) and minimal paths
// must respect the dragonfly diameter.

func TestPropertyMinimalPathsValid(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d)
	nr := d.Cfg.NumRouters()

	f := func(rawA, rawB uint16, seed int64) bool {
		a := topology.RouterID(int(rawA) % nr)
		b := topology.RouterID(int(rawB) % nr)
		s := rng.New(seed)
		for _, p := range e.MinimalPaths(a, b, 4, s) {
			if !pathValid(d, a, b, p) {
				return false
			}
			// dragonfly minimal diameter: 2 intra + 1 global + 2 intra
			if p.Hops() > 5 {
				return false
			}
			if !p.Minimal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyValiantPathsValid(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d)
	nr := d.Cfg.NumRouters()

	f := func(rawA, rawB uint16, seed int64) bool {
		a := topology.RouterID(int(rawA) % nr)
		b := topology.RouterID(int(rawB) % nr)
		if a == b {
			return true
		}
		s := rng.New(seed)
		for _, p := range e.ValiantPaths(a, b, 2, s) {
			if !pathValid(d, a, b, p) {
				return false
			}
			if p.Minimal {
				return false
			}
			// valiant diameter: ≤ 2+1+2+1+2
			if p.Hops() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertySplitWeightsDistribution: for every policy, over its own
// candidates for arbitrary pairs under arbitrary loads (and, for feedback,
// arbitrary group stall ratios), the split is a distribution — weights
// non-negative and summing to 1 — and a cheaper path is never weighted
// below a costlier one of the same kind (minimal or detour). Cost is the
// policy's own per-hop price: 1 + load, times 1 + gain·stall for feedback;
// the oblivious policies weight same-kind paths equally whatever the cost.
func TestPropertySplitWeightsDistribution(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d)
	nr := d.Cfg.NumRouters()
	stall := make([]float64, d.Cfg.Groups)
	groupStall := func(g topology.GroupID) float64 { return stall[g] }

	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, PolicyConfig{GroupStall: groupStall})
		if err != nil {
			t.Fatal(err)
		}
		f := func(rawA, rawB uint16, loadSeed int64) bool {
			a := topology.RouterID(int(rawA) % nr)
			b := topology.RouterID(int(rawB) % nr)
			if a == b {
				return true
			}
			s := rng.New(loadSeed)
			paths := p.Candidates(e, a, b, s.Split("pair"))
			if len(paths) == 0 {
				return true
			}
			load := make([]float64, len(d.Links))
			for l := range load {
				load[l] = s.Float64() * 10
			}
			for g := range stall {
				stall[g] = s.Float64() * 0.5
			}
			w := make([]float64, len(paths))
			split(e, p, paths, func(l topology.LinkID) float64 { return load[l] }, w)
			cost := make([]float64, len(paths))
			var sum float64
			for i, pa := range paths {
				if w[i] < 0 || w[i] > 1 {
					return false
				}
				sum += w[i]
				for _, l := range pa.Links {
					hop := 1 + load[l]
					if name == "feedback" {
						link := d.Links[l]
						st := 0.5 * (stall[d.Group(link.A)] + stall[d.Group(link.B)])
						hop *= 1 + feedbackGain*st
					}
					cost[i] += hop
				}
			}
			for i := range paths {
				for j := range paths {
					if paths[i].Minimal == paths[j].Minimal && cost[i] < cost[j] && w[i] < w[j] {
						return false
					}
				}
			}
			return sum > 0.999 && sum < 1.001
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// pathValid replicates the validation helper without test dependencies.
func pathValid(d *topology.Dragonfly, src, dst topology.RouterID, p Path) bool {
	cur := src
	for _, id := range p.Links {
		if id < 0 || int(id) >= len(d.Links) {
			return false
		}
		l := d.Links[id]
		if l.A != cur && l.B != cur {
			return false
		}
		cur = l.Other(cur)
	}
	return cur == dst
}
