package netsim

import (
	"math"
	"testing"

	"dragonvar/internal/counters"
	"dragonvar/internal/rng"
	"dragonvar/internal/routing"
	"dragonvar/internal/topology"
)

// The round loop sums path costs and delays hop-major and gathers each
// link's load from the paths crossing it. The path-major loops those
// replaced live here as the reference, walking each path's links as the
// resolver returned them, and refRound is RunRoundRouted run on them:
// every bit of a round must match.

// refFeedbackGain is the feedback policy's per-hop stall price
// (routing's feedbackGain).
const refFeedbackGain = 4

// refRound is RunRoundRouted with the path-major relaxation and slowdowns;
// paths[j] lists the links of the routes' path j.
func refRound(n *Network, flows []Flow, routed *RoutedFlows, paths [][]topology.LinkID, background []ScaledLoad, duration float64) Result {
	if duration <= 0 {
		duration = 1
	}
	invDur := 1 / duration
	anyBG := n.beginRound(flows, routed, background, invDur)
	refRelax(n, flows, routed, paths, anyBG, invDur)
	res := n.settle(flows, routed, duration)
	refSlowdowns(n, flows, routed, paths, duration, res.Slowdown)
	return res
}

// refSplit is the adaptive and feedback split summing each path's hop
// costs link by link, flow by flow.
func refSplit(n *Network, a *routing.Arena, paths [][]topology.LinkID, active []bool, load, dst []float64) {
	bias := n.cfg.NonMinimalBias
	if bias <= 0 {
		bias = 1
	}
	d := n.topo
	fs := int32(0)
	for fi, pe := range a.FlowEnd {
		if !active[fi] || pe == fs {
			fs = pe
			continue
		}
		var total float64
		for j := fs; j < pe; j++ {
			cost := 0.0
			for _, l := range paths[j] {
				if n.fb != nil {
					link := d.Links[l]
					stall := 0.5 * (n.fb.Ratio(int(d.Group(link.A))) + n.fb.Ratio(int(d.Group(link.B))))
					cost += (1 + load[l]) * (1 + refFeedbackGain*stall)
				} else {
					cost += 1 + load[l]
				}
			}
			if !a.Minimal[j] && bias != 1 {
				cost *= bias
			}
			w := 1 / (cost + 1e-9)
			dst[j] = w
			total += w
		}
		if total > 0 {
			inv := 1 / total
			for j := fs; j < pe; j++ {
				dst[j] *= inv
			}
		}
		fs = pe
	}
}

// refRelax scatters each active flow's shares onto its paths' links.
func refRelax(n *Network, flows []Flow, routed *RoutedFlows, paths [][]topology.LinkID, anyBG bool, invDur float64) {
	rounds := max(n.cfg.RelaxationRounds, 1)
	if routed.static {
		rounds = 1
	}
	a := routed.arena
	for it := 0; it < rounds; it++ {
		for _, l := range n.activeLinks {
			if anyBG {
				n.linkLoad[l] = n.bgLoad[l]
			} else {
				n.linkLoad[l] = 0
			}
		}
		if !routed.static {
			refSplit(n, a, paths, routed.fgMask, n.prevLoad, routed.weights)
		}
		ps := int32(0)
		for i, pe := range a.FlowEnd {
			f := &flows[i]
			fs := ps
			ps = pe
			if f.Src == f.Dst || f.Flits <= 0 {
				continue
			}
			for j := fs; j < pe; j++ {
				if share := f.Flits * routed.weights[j]; share != 0 {
					for _, l := range paths[j] {
						if n.linkCap[l] > 0 { // a dead link carries nothing
							n.linkLoad[l] += share
						}
					}
				}
			}
		}
		if it < rounds-1 {
			for _, l := range n.activeLinks {
				if n.linkCap[l] <= 0 {
					n.prevLoad[l] = deadUtil
					continue
				}
				n.prevLoad[l] = n.linkLoad[l] / n.linkCap[l] * invDur
			}
		}
	}
}

// refSlowdowns sums each path's queueing delay link by link.
func refSlowdowns(n *Network, flows []Flow, routed *RoutedFlows, paths [][]topology.LinkID, duration float64, dst []float64) {
	injCap := n.cfg.InjectionBandwidth * duration
	pktCap := n.cfg.PacketRate * duration
	ps := int32(0)
	for i, pe := range routed.arena.FlowEnd {
		f := &flows[i]
		fs := ps
		ps = pe
		if f.Src == f.Dst || f.Flits <= 0 {
			dst[i] = 1
			continue
		}
		var transit float64
		for j := fs; j < pe; j++ {
			if w := routed.weights[j]; w != 0 {
				var pathDelay float64
				for _, l := range paths[j] {
					pathDelay += queueDelay(n.prevLoad[l])
				}
				transit += w * pathDelay / float64(len(paths[j]))
			}
		}
		endFlit := queueDelay(n.injFlits[f.Src]/injCap) + queueDelay(n.ejFlits[f.Dst]/injCap)
		endPkt := queueDelay(n.injPkts[f.Src]/pktCap) + queueDelay(n.ejPkts[f.Dst]/pktCap)
		dst[i] = 1 + 0.8*transit + 0.5*endFlit + 0.5*endPkt
		if echo := 0.4 * f.Flits * transit * n.cfg.StallScale; echo > 0 {
			half := echo / 2
			twoX := half * clamp1(transit)
			for _, r := range []topology.RouterID{f.Src, f.Dst} {
				rc := n.Board.At(r)
				rc[counters.RTRBStl] += half
				rc[counters.RTRB2xUsg] += twoX
			}
		}
	}
}

// randArena draws flows with synthetic candidate sets: 0–4 paths per flow
// of 1–8 random links each (a link may repeat within a path), some flows
// self-addressed or carrying no flits.
func randArena(s *rng.Stream, d *topology.Dragonfly, nFlows int) ([]Flow, [][]routing.Path) {
	flows := randFlows(s, d, nFlows)
	resolved := make([][]routing.Path, nFlows)
	for i := range resolved {
		for p := s.Intn(5); p > 0; p-- {
			links := make([]topology.LinkID, 1+s.Intn(8))
			for k := range links {
				links[k] = topology.LinkID(s.Intn(len(d.Links)))
			}
			resolved[i] = append(resolved[i], routing.Path{Links: links, Minimal: s.Intn(2) == 0})
		}
	}
	return flows, resolved
}

// TestRoundKernelMatchesPathMajor runs random arenas through RunRoundRouted
// and through refRound on two identical networks, under every policy with
// a non-neutral bias, with and without background and dead links, and
// requires every slowdown, summary, link load and counter bit to match.
// Static policies also get random weights with zeros.
func TestRoundKernelMatchesPathMajor(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range routing.PolicyNames() {
		t.Run(pol, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Routing = pol
			cfg.NonMinimalBias = 1.7
			cfg.RelaxationRounds = 3
			got, want := New(d, cfg, rng.New(5)), New(d, cfg, rng.New(5))
			s := rng.New(11)
			for round := 0; round < 18; round++ {
				flows, resolved := randArena(s, d, 8+s.Intn(64))
				rGot, rWant := got.route(resolved), want.route(resolved)
				var paths [][]topology.LinkID
				for _, ps := range resolved {
					for _, p := range ps {
						paths = append(paths, p.Links)
					}
				}
				if rGot.static && round%2 == 1 {
					for j := range rGot.weights {
						w := 0.0
						if s.Intn(3) > 0 {
							w = s.Float64()
						}
						rGot.weights[j], rWant.weights[j] = w, w
					}
				}
				var health func(topology.LinkID) float64
				if round%3 == 2 {
					dead := map[topology.LinkID]bool{}
					for k := 0; k < 4 && len(paths) > 0; k++ {
						p := paths[s.Intn(len(paths))]
						dead[p[s.Intn(len(p))]] = true
					}
					health = func(l topology.LinkID) float64 {
						if dead[l] {
							return 0
						}
						return 1
					}
				}
				got.SetLinkHealth(health)
				want.SetLinkHealth(health)
				var bg []ScaledLoad
				if round%2 == 0 {
					for k := 0; k < 3; k++ {
						bg = append(bg, ScaledLoad{Set: got.BuildLoadSet(randFlows(s, d, 16)), Scale: 0.5 + s.Float64()})
					}
				}
				dur := 0.5 + s.Float64()
				g := got.RunRoundRouted(flows, rGot, bg, dur)
				w := refRound(want, flows, rWant, paths, bg, dur)
				sameBits(t, round, "slowdown", g.Slowdown, w.Slowdown)
				sameBits(t, round, "summary", []float64{g.MaxLinkUtilization, g.MeanLinkUtilization}, []float64{w.MaxLinkUtilization, w.MeanLinkUtilization})
				sameBits(t, round, "weights", rGot.weights, rWant.weights)
				sameBits(t, round, "link loads", got.linkLoad, want.linkLoad)
				sameBits(t, round, "utilizations", got.prevLoad, want.prevLoad)
				sameBits(t, round, "counters", got.Board.Data, want.Board.Data)
			}
		})
	}
}

func sameBits(t *testing.T, round int, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: %s: %d values, want %d", round, what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("round %d: %s[%d] = %v, want %v (bit-exact)", round, what, i, got[i], want[i])
		}
	}
}
