package routing

import (
	"fmt"
	"sort"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// Policy is a pluggable routing discipline: it decides which candidate
// paths a flow may use (Candidates) and how the flow's traffic is split
// across them under the current congestion view (SplitWeights). The flow
// simulator (package netsim) drives both through one Policy value per
// network; everything a policy does must be a pure function of its inputs —
// the engine, the pair, the dedicated stream, and the load view — so that
// campaigns stay byte-identical across worker counts and run orders.
type Policy interface {
	// Name returns the registry name ("minimal", "valiant", ...).
	Name() string
	// Candidates enumerates the candidate paths for a flow a → b. The
	// stream is dedicated to the pair (split from the network's seed by
	// pair label), so the same pair always yields the same candidates.
	Candidates(e *Engine, a, b topology.RouterID, s *rng.Stream) []Path
	// SplitWeights computes every active flow's split over the flat
	// candidate arena the simulator builds per resolved flow list: path j
	// spans links[pathEnd[j-1]:pathEnd[j]] (from 0 for j == 0), flow i's
	// paths are pathEnd[flowEnd[i-1]:flowEnd[i]], and minimal[j] mirrors
	// Path.Minimal. load is the congestion view indexed by LinkID, in
	// stall-inducing utilization units (0 = idle). For each flow with
	// active[i] set, dst receives the share of its traffic assigned to each
	// candidate, normalized to sum to 1; inactive flows' entries are left
	// untouched.
	SplitWeights(e *Engine, links []topology.LinkID, pathEnd, flowEnd []int32, minimal, active []bool, load []float64, dst []float64)
}

// PolicyConfig carries the knobs shared by the built-in policies.
type PolicyConfig struct {
	// MaxMinimal and MaxValiant bound the candidate set (zero values fall
	// back to the Engine defaults, matching CandidateOptions).
	MaxMinimal int
	MaxValiant int
	// NonMinimalBias multiplies the cost of non-minimal candidates in the
	// adaptive and feedback split (UGAL's threshold knob in flow form):
	// >1 penalizes Valiant detours, <1 favors them. 0 means 1 (neutral —
	// exactly the historical inverse-cost split).
	NonMinimalBias float64
	// GroupStall reports the smoothed stall ratio of a group — the signal
	// the feedback policy steers away from. It must be deterministic for
	// the simulation state it is read under (see monitor.StallFeedback);
	// nil disables the feedback term.
	GroupStall func(topology.GroupID) float64
}

// bias returns the effective non-minimal bias.
func (c PolicyConfig) bias() float64 {
	if c.NonMinimalBias <= 0 {
		return 1
	}
	return c.NonMinimalBias
}

// StaticWeights reports whether the policy's split is load-independent:
// SplitWeights writes the same dst for a given candidate arena no matter
// what the load view holds (and never reads it). The simulator uses this
// to compute a flow's split once at resolve time and skip the per-round
// (and per-relaxation-iteration) recomputation entirely — and, because the
// resulting link loads then cannot change between relaxation iterations, to
// collapse the relaxation to a single iteration with bit-identical results.
func StaticWeights(p Policy) bool {
	switch p.(type) {
	case minimalPolicy, valiantPolicy:
		return true
	}
	return false
}

// PolicyNames lists the built-in routing policies, sorted.
func PolicyNames() []string {
	names := []string{"minimal", "valiant", "adaptive", "feedback"}
	sort.Strings(names)
	return names
}

// ValidPolicy reports whether name is a built-in routing policy.
func ValidPolicy(name string) bool {
	for _, n := range PolicyNames() {
		if n == name {
			return true
		}
	}
	return false
}

// NewPolicy builds a built-in policy by name. The feedback policy requires
// cfg.GroupStall to do anything beyond what adaptive does; it degrades to
// the plain adaptive split when the signal is nil.
func NewPolicy(name string, cfg PolicyConfig) (Policy, error) {
	switch name {
	case "minimal":
		return minimalPolicy{}, nil
	case "valiant":
		return valiantPolicy{cfg: cfg}, nil
	case "adaptive":
		return adaptivePolicy{cfg: cfg}, nil
	case "feedback":
		return feedbackPolicy{cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("routing: unknown policy %q (have %v)", name, PolicyNames())
	}
}

// minimalPolicy always routes on one shortest path — the ablation the
// paper's related simulation studies use as the non-adaptive baseline:
// traffic collapses onto fewer links and hotspots form.
type minimalPolicy struct{}

func (minimalPolicy) Name() string { return "minimal" }

func (minimalPolicy) Candidates(e *Engine, a, b topology.RouterID, s *rng.Stream) []Path {
	return e.Candidates(a, b, CandidateOptions{MaxMinimal: 1, MaxValiant: 0}, s)
}

// SplitWeights puts every active flow on its first candidate.
func (minimalPolicy) SplitWeights(_ *Engine, _ []topology.LinkID, _, flowEnd []int32, _, active []bool, _ []float64, dst []float64) {
	fs := int32(0)
	for fi, pe := range flowEnd {
		if active[fi] && pe > fs {
			firstOnly(dst[fs:pe])
		}
		fs = pe
	}
}

// firstOnly assigns all traffic to the first candidate.
func firstOnly(w []float64) {
	for j := range w {
		w[j] = 0
	}
	w[0] = 1
}

// valiantPolicy is oblivious Valiant routing: traffic is spread uniformly
// over non-minimal detours through random intermediate groups, regardless
// of load. It trades doubled path length for hotspot immunity. One minimal
// path stays in the candidate set as the fallback when faults (or a
// same-router pair) leave no detour.
type valiantPolicy struct{ cfg PolicyConfig }

func (valiantPolicy) Name() string { return "valiant" }

func (p valiantPolicy) Candidates(e *Engine, a, b topology.RouterID, s *rng.Stream) []Path {
	maxV := p.cfg.MaxValiant
	if maxV < 1 {
		maxV = 2
	}
	return e.Candidates(a, b, CandidateOptions{MaxMinimal: 1, MaxValiant: maxV}, s)
}

// SplitWeights spreads every active flow uniformly over its non-minimal
// candidates, or puts it on its first candidate when it has none.
func (valiantPolicy) SplitWeights(_ *Engine, _ []topology.LinkID, _, flowEnd []int32, minimal, active []bool, _ []float64, dst []float64) {
	fs := int32(0)
	for fi, pe := range flowEnd {
		if active[fi] && pe > fs {
			uniformOverDetours(minimal[fs:pe], dst[fs:pe])
		}
		fs = pe
	}
}

// uniformOverDetours writes one flow's valiant split.
func uniformOverDetours(minimal []bool, w []float64) {
	nonMin := 0
	for _, m := range minimal {
		if !m {
			nonMin++
		}
	}
	if nonMin == 0 {
		firstOnly(w)
		return
	}
	share := 1 / float64(nonMin)
	for j, m := range minimal {
		if m {
			w[j] = 0
		} else {
			w[j] = share
		}
	}
}

// adaptivePolicy is the UGAL-style load-aware split the simulator has
// always used: traffic divides across candidates with weights inversely
// proportional to path cost (1 + backlog per hop), with non-minimal
// candidates' costs scaled by the configured bias. With the neutral bias
// the arithmetic — including summation order — reproduces the historical
// inlined split exactly, so existing campaigns are byte-identical.
type adaptivePolicy struct{ cfg PolicyConfig }

func (adaptivePolicy) Name() string { return "adaptive" }

func (p adaptivePolicy) Candidates(e *Engine, a, b topology.RouterID, s *rng.Stream) []Path {
	return e.Candidates(a, b, CandidateOptions{MaxMinimal: p.cfg.MaxMinimal, MaxValiant: p.cfg.MaxValiant}, s)
}

// SplitWeights gives each candidate of an active flow a weight inversely
// proportional to its cost — Σ over hops of (1 + load), times the bias
// for non-minimal paths — normalized over the flow's candidates.
func (p adaptivePolicy) SplitWeights(_ *Engine, links []topology.LinkID, pathEnd, flowEnd []int32, minimal, active []bool, load []float64, dst []float64) {
	bias := p.cfg.bias()
	ps, ls := int32(0), int32(0)
	for fi := range flowEnd {
		fs, fl := ps, ls
		pe := flowEnd[fi]
		ps = pe
		if pe > fs {
			ls = pathEnd[pe-1]
		}
		if !active[fi] || pe == fs {
			continue
		}
		var total float64
		start := fl
		for j := fs; j < pe; j++ {
			end := pathEnd[j]
			cost := 0.0
			for _, l := range links[start:end] {
				cost += 1 + load[l]
			}
			if !minimal[j] && bias != 1 {
				cost *= bias
			}
			w := 1 / (cost + 1e-9)
			dst[j] = w
			total += w
			start = end
		}
		normalize(dst[fs:pe], total)
	}
}

// feedbackGain prices a sustained group stall ratio of 0.25 as a doubling
// of every hop's cost through that group.
const feedbackGain = 4

// feedbackPolicy closes the loop between the network-weather signals and
// routing: it is the adaptive split with every hop's cost additionally
// scaled by the smoothed stall ratio of the groups its link touches, so
// traffic drains away from groups the monitor's congestion rollup flags —
// before the link-level backlog alone would have moved it.
type feedbackPolicy struct{ cfg PolicyConfig }

func (feedbackPolicy) Name() string { return "feedback" }

func (p feedbackPolicy) Candidates(e *Engine, a, b topology.RouterID, s *rng.Stream) []Path {
	return e.Candidates(a, b, CandidateOptions{MaxMinimal: p.cfg.MaxMinimal, MaxValiant: p.cfg.MaxValiant}, s)
}

// SplitWeights is the adaptive split with every hop's cost scaled by
// 1 + gain·(mean stall ratio of the link's two groups); without a stall
// signal it is exactly the adaptive split.
func (p feedbackPolicy) SplitWeights(e *Engine, links []topology.LinkID, pathEnd, flowEnd []int32, minimal, active []bool, load []float64, dst []float64) {
	gs := p.cfg.GroupStall
	if gs == nil {
		adaptivePolicy{cfg: p.cfg}.SplitWeights(e, links, pathEnd, flowEnd, minimal, active, load, dst)
		return
	}
	bias := p.cfg.bias()
	d := e.Machine()
	ps, ls := int32(0), int32(0)
	for fi := range flowEnd {
		fs, fl := ps, ls
		pe := flowEnd[fi]
		ps = pe
		if pe > fs {
			ls = pathEnd[pe-1]
		}
		if !active[fi] || pe == fs {
			continue
		}
		var total float64
		start := fl
		for j := fs; j < pe; j++ {
			end := pathEnd[j]
			cost := 0.0
			for _, l := range links[start:end] {
				link := d.Links[l]
				stall := 0.5 * (gs(d.Group(link.A)) + gs(d.Group(link.B)))
				cost += (1 + load[l]) * (1 + feedbackGain*stall)
			}
			if !minimal[j] && bias != 1 {
				cost *= bias
			}
			w := 1 / (cost + 1e-9)
			dst[j] = w
			total += w
			start = end
		}
		normalize(dst[fs:pe], total)
	}
}

// normalize scales a flow's inverse-cost weights by 1/total (left as they
// are when total is not positive).
func normalize(w []float64, total float64) {
	if total > 0 {
		inv := 1 / total
		for j := range w {
			w[j] *= inv
		}
	}
}
