package slurm

import (
	"fmt"
	"sort"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// PlacementAdvice is the deterministic congestion view a placement policy
// may consult before choosing nodes: the expected per-group load over the
// job's window (from the background timeline and any advisor-blamed
// users' jobs, weighted up), and the groups the monitor's hot-spot
// criterion flags as outliers of that view. It is computed by the caller
// (internal/cluster) from schedule state only — never from the live
// monitor, which observes worker-interleaved rounds and would break the
// serial ≡ parallel byte-identity contract.
type PlacementAdvice struct {
	// GroupLoad[g] is the expected flits/s entering group g during the
	// job's window.
	GroupLoad []float64
	// HotGroups flags the groups whose expected load is a cross-sectional
	// outlier (monitor.CrossSectionHot over GroupLoad).
	HotGroups map[topology.GroupID]bool
	// BlamedActive reports whether any advisor-blamed user has a job
	// overlapping the window — the signal that interference is likely.
	BlamedActive bool
}

// PlacementPolicy decides where a job's nodes land. Place behaves like
// Allocator.AllocAvoiding: it returns n free nodes outside busy, or nil
// when the job cannot be placed right now (the caller requeues). compact
// is the compactness the scheduler drew for this submission in [0.05,
// 0.95]; policies may reinterpret it but must not consume additional
// randomness beyond the shared stream s, so every policy sees the same
// stream state for the same submission. advise lazily computes the
// congestion view; policies that do not consult it must not call it.
type PlacementPolicy interface {
	Name() string
	Place(a *Allocator, n int, compact float64, busy *topology.NodeSet,
		advise func() *PlacementAdvice, s *rng.Stream) []topology.NodeID
}

// PlacementPolicyNames lists the built-in placement policies, sorted.
func PlacementPolicyNames() []string {
	names := []string{"firstfit", "compact", "interference"}
	sort.Strings(names)
	return names
}

// ValidPlacementPolicy reports whether name is a built-in placement policy.
func ValidPlacementPolicy(name string) bool {
	for _, n := range PlacementPolicyNames() {
		if n == name {
			return true
		}
	}
	return false
}

// NewPlacementPolicy builds a built-in placement policy by name.
func NewPlacementPolicy(name string) (PlacementPolicy, error) {
	switch name {
	case "firstfit":
		return firstFitPolicy{}, nil
	case "compact":
		return compactPolicy{}, nil
	case "interference":
		return interferencePolicy{}, nil
	default:
		return nil, fmt.Errorf("slurm: unknown placement policy %q (have %v)", name, PlacementPolicyNames())
	}
}

// firstFitPolicy is the historical behavior: allocate with the scheduler's
// drawn compactness, exactly as Allocator.AllocAvoiding always has.
type firstFitPolicy struct{}

func (firstFitPolicy) Name() string { return "firstfit" }

func (firstFitPolicy) Place(a *Allocator, n int, compact float64, busy *topology.NodeSet,
	_ func() *PlacementAdvice, s *rng.Stream) []topology.NodeID {
	return a.AllocAvoiding(n, compact, busy, s)
}

// compactPolicy pins compactness to the top of the scheduler's range,
// draining whole groups in sequence: the few-groups/few-routers end of the
// paper's placement-feature spectrum, minimizing the job's exposure to
// shared links (and with it, variability) at the price of intra-group
// contention.
type compactPolicy struct{}

func (compactPolicy) Name() string { return "compact" }

func (compactPolicy) Place(a *Allocator, n int, _ float64, busy *topology.NodeSet,
	_ func() *PlacementAdvice, s *rng.Stream) []topology.NodeID {
	return a.AllocAvoiding(n, 0.95, busy, s)
}

// interferencePolicy closes the scheduling loop: it consults the advice —
// the advisor's blame list folded into the expected per-group load, and
// the monitor's hot-group criterion over it — and keeps the job's nodes
// out of the flagged groups. When the machine is too full to honor the
// advice the policy falls back to the plain allocation rather than
// starving the job. With blamed users active it also compacts harder, the
// mitigation the paper's §VI discussion (and the advisor's delay signal)
// points at.
type interferencePolicy struct{}

func (interferencePolicy) Name() string { return "interference" }

func (interferencePolicy) Place(a *Allocator, n int, compact float64, busy *topology.NodeSet,
	advise func() *PlacementAdvice, s *rng.Stream) []topology.NodeID {
	adv := advise()
	if adv != nil && adv.BlamedActive {
		// noisy neighborhood: shrink the job's network cross-section
		compact = 0.5 + 0.5*compact
	}
	if adv == nil || len(adv.HotGroups) == 0 {
		return a.AllocAvoiding(n, compact, busy, s)
	}
	// exclude every node of the hot groups, on top of the busy set
	avoid := topology.NewNodeSet(a.topo)
	avoid.Union(busy)
	npr := a.topo.Cfg.NodesPerRouter
	for r := 0; r < a.topo.Cfg.NumRouters(); r++ {
		if adv.HotGroups[a.topo.Group(topology.RouterID(r))] {
			for i := 0; i < npr; i++ {
				avoid.Add(topology.NodeID(r*npr + i))
			}
		}
	}
	if out := a.AllocAvoiding(n, compact, avoid, s); out != nil {
		return out
	}
	// the advice doesn't fit; place the job anyway
	return a.AllocAvoiding(n, compact, busy, s)
}
