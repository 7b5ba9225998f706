// Package faults models the imperfections of a production machine that the
// paper's Cori data silently contains: Aries links that are quiesced or run
// at degraded bandwidth, routers (whole blades) that go down, nodes drained
// by operations mid-job, and windows in which the counter samplers (AriesNCL
// or the LDMS feed, §III-C) drop samples. A Schedule is a deterministic,
// seeded list of such events over the campaign horizon; the simulator and
// the analysis stack query it to derate link capacities, reroute around
// failures, requeue killed jobs, and mark missing counter samples.
//
// Schedules are immutable after construction and all queries are read-only,
// so one schedule can be shared by every consumer of a campaign.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// Kind enumerates the fault classes.
type Kind uint8

const (
	// LinkDown takes one link out of service entirely (quiesced by the
	// fabric manager, as on real Aries systems).
	LinkDown Kind = iota
	// LinkDegraded leaves a link up at a fraction of its bandwidth
	// (a failed lane group of the 3-lane Aries link).
	LinkDegraded
	// RouterDown takes a whole router down: every incident link is dead and
	// the attached nodes are lost (jobs on them are killed).
	RouterDown
	// NodeDrain drains the nodes of one router: running jobs are killed and
	// the nodes are unallocatable for the duration.
	NodeDrain
	// SamplerDropout is a window during which counter samplers deliver no
	// data; observations taken inside it are missing, not zero.
	SamplerDropout
)

// String returns a short label for the fault kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkDegraded:
		return "link-degraded"
	case RouterDown:
		return "router-down"
	case NodeDrain:
		return "node-drain"
	case SamplerDropout:
		return "sampler-dropout"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one fault with a lifetime [Start, End) in campaign seconds.
type Event struct {
	Kind       Kind
	Start, End float64
	Link       topology.LinkID   // LinkDown, LinkDegraded
	Router     topology.RouterID // RouterDown, NodeDrain
	// Factor is the remaining capacity fraction of a degraded link,
	// in (0, 1).
	Factor float64
}

// String renders the event the way the spec grammar writes it.
func (e Event) String() string {
	switch e.Kind {
	case LinkDown:
		return fmt.Sprintf("link:%d@%g-%g", e.Link, e.Start, e.End)
	case LinkDegraded:
		return fmt.Sprintf("link:%d@%g-%g*%g", e.Link, e.Start, e.End, e.Factor)
	case RouterDown:
		return fmt.Sprintf("router:%d@%g-%g", e.Router, e.Start, e.End)
	case NodeDrain:
		return fmt.Sprintf("drain:%d@%g-%g", e.Router, e.Start, e.End)
	case SamplerDropout:
		return fmt.Sprintf("dropout@%g-%g", e.Start, e.End)
	default:
		return fmt.Sprintf("event(%d)", uint8(e.Kind))
	}
}

// Schedule is an immutable, validated fault schedule over one machine.
type Schedule struct {
	topo   *topology.Dragonfly
	events []Event
	// boundaries are the sorted distinct event start/end times; the fault
	// state of the machine is constant between consecutive boundaries, which
	// is what lets consumers cache per-epoch derived state (path caches,
	// capacity vectors).
	boundaries []float64
	spec       string
}

// New validates the events against the machine and builds a schedule.
func New(topo *topology.Dragonfly, events []Event) (*Schedule, error) {
	nr := topo.Cfg.NumRouters()
	nl := len(topo.Links)
	for i, e := range events {
		if !(e.Start < e.End) {
			return nil, fmt.Errorf("faults: event %d (%s): empty lifetime [%g, %g)", i, e.Kind, e.Start, e.End)
		}
		switch e.Kind {
		case LinkDown, LinkDegraded:
			if e.Link < 0 || int(e.Link) >= nl {
				return nil, fmt.Errorf("faults: event %d: link %d out of range [0,%d)", i, e.Link, nl)
			}
			if e.Kind == LinkDegraded && !(e.Factor > 0 && e.Factor < 1) {
				return nil, fmt.Errorf("faults: event %d: degraded factor %g outside (0,1)", i, e.Factor)
			}
		case RouterDown, NodeDrain:
			if e.Router < 0 || int(e.Router) >= nr {
				return nil, fmt.Errorf("faults: event %d: router %d out of range [0,%d)", i, e.Router, nr)
			}
		case SamplerDropout:
			// no target to validate
		default:
			return nil, fmt.Errorf("faults: event %d: unknown kind %d", i, uint8(e.Kind))
		}
	}
	s := &Schedule{topo: topo, events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].Start < s.events[j].Start })
	set := map[float64]bool{}
	for _, e := range s.events {
		set[e.Start] = true
		set[e.End] = true
	}
	for t := range set {
		s.boundaries = append(s.boundaries, t)
	}
	sort.Float64s(s.boundaries)
	return s, nil
}

// Events returns the validated events in start order. The returned slice
// must not be modified.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// Empty reports whether the schedule injects nothing. Nil-safe.
func (s *Schedule) Empty() bool { return s == nil || len(s.events) == 0 }

// Spec returns the spec string the schedule was parsed from (empty for
// schedules built directly from events).
func (s *Schedule) Spec() string {
	if s == nil {
		return ""
	}
	return s.spec
}

// Epoch returns the index of the constant-fault-state interval containing
// time t. Consumers compare epochs to know when cached routing/capacity
// state must be rebuilt. Nil-safe: a nil schedule is always epoch 0.
func (s *Schedule) Epoch(t float64) int {
	if s == nil {
		return 0
	}
	return sort.Search(len(s.boundaries), func(i int) bool { return s.boundaries[i] > t })
}

// View is the machine's fault state at one instant: per-link capacity
// factors (router-down events are expanded onto their incident links),
// down routers, and whether a sampler dropout is active. A View stays valid
// until the schedule's next epoch boundary.
type View struct {
	linkFactor map[topology.LinkID]float64
	routerDown map[topology.RouterID]bool
	dropout    bool
}

// ViewAt computes the fault state at time t. Nil-safe: a nil schedule
// yields a clean view.
func (s *Schedule) ViewAt(t float64) View {
	var v View
	if s == nil {
		return v
	}
	for _, e := range s.events {
		if t < e.Start || t >= e.End {
			continue
		}
		switch e.Kind {
		case LinkDown:
			v.setLinkFactor(e.Link, 0)
		case LinkDegraded:
			v.setLinkFactor(e.Link, e.Factor)
		case RouterDown:
			if v.routerDown == nil {
				v.routerDown = map[topology.RouterID]bool{}
			}
			v.routerDown[e.Router] = true
			for _, l := range s.topo.Incident(e.Router) {
				v.setLinkFactor(l, 0)
			}
		case SamplerDropout:
			v.dropout = true
		}
	}
	return v
}

// setLinkFactor records the most severe factor seen for a link.
func (v *View) setLinkFactor(l topology.LinkID, f float64) {
	if v.linkFactor == nil {
		v.linkFactor = map[topology.LinkID]float64{}
	}
	if cur, ok := v.linkFactor[l]; !ok || f < cur {
		v.linkFactor[l] = f
	}
}

// LinkFactor returns the remaining capacity fraction of a link: 1 when
// healthy, 0 when down.
func (v View) LinkFactor(l topology.LinkID) float64 {
	if f, ok := v.linkFactor[l]; ok {
		return f
	}
	return 1
}

// LinkDown reports whether the link is out of service.
func (v View) LinkDown(l topology.LinkID) bool { return v.LinkFactor(l) <= 0 }

// RouterDown reports whether the router is down.
func (v View) RouterDown(r topology.RouterID) bool { return v.routerDown[r] }

// Clean reports whether the view carries no degradation at all.
func (v View) Clean() bool {
	return len(v.linkFactor) == 0 && len(v.routerDown) == 0 && !v.dropout
}

// DropoutAt reports whether a sampler dropout window covers time t.
// Nil-safe.
func (s *Schedule) DropoutAt(t float64) bool { return s.DropoutOverlaps(t, t) }

// DropoutOverlaps reports whether any dropout window intersects [t0, t1]
// (a per-step sampler read is lost when any part of the step falls inside a
// dropout window). Nil-safe.
func (s *Schedule) DropoutOverlaps(t0, t1 float64) bool {
	if s == nil {
		return false
	}
	for _, e := range s.events {
		if e.Kind == SamplerDropout && e.Start <= t1 && e.End > t0 {
			return true
		}
	}
	return false
}

// DrainedNodes returns the nodes unallocatable at time t because their
// router is drained or down. Nil-safe: returns nil for a clean instant.
func (s *Schedule) DrainedNodes(t float64) *topology.NodeSet {
	if s == nil {
		return nil
	}
	var out *topology.NodeSet
	for _, e := range s.events {
		if (e.Kind != NodeDrain && e.Kind != RouterDown) || t < e.Start || t >= e.End {
			continue
		}
		if out == nil {
			out = topology.NewNodeSet(s.topo)
		}
		for _, n := range s.topo.NodesOfRouter(e.Router) {
			out.Add(n)
		}
	}
	return out
}

// FirstFailure returns the earliest time in (t0, t1) at which a drain or
// router-down event begins on any of the given routers — the moment a job
// running on them is killed. Events already active at t0 report t0.
// Nil-safe.
func (s *Schedule) FirstFailure(routers []topology.RouterID, t0, t1 float64) (float64, bool) {
	if s == nil || len(routers) == 0 {
		return 0, false
	}
	hit := math.Inf(1)
	for _, e := range s.events {
		if e.Kind != NodeDrain && e.Kind != RouterDown {
			continue
		}
		if e.End <= t0 || e.Start >= t1 {
			continue
		}
		affected := false
		for _, r := range routers {
			if r == e.Router {
				affected = true
				break
			}
		}
		if !affected {
			continue
		}
		at := e.Start
		if at < t0 {
			at = t0
		}
		if at < hit {
			hit = at
		}
	}
	if math.IsInf(hit, 1) {
		return 0, false
	}
	return hit, true
}

// Summary counts events by kind, for logs and reports.
func (s *Schedule) Summary() string {
	if s.Empty() {
		return "no faults"
	}
	var n [5]int
	for _, e := range s.events {
		n[e.Kind]++
	}
	parts := make([]string, 0, 5)
	for k := Kind(0); k <= SamplerDropout; k++ {
		if n[k] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n[k], k))
		}
	}
	return strings.Join(parts, ", ")
}

// GenConfig parameterizes random schedule generation. Counts are event
// counts over the horizon; zero means none of that kind.
type GenConfig struct {
	Horizon      float64 // campaign length in seconds
	LinkDown     int
	LinkDegraded int
	RouterDown   int
	NodeDrain    int
	Dropouts     int
	// MeanOutage is the mean duration of link/router/drain events
	// (exponential); default 6 hours.
	MeanOutage float64
	// MeanDropout is the mean duration of sampler dropout windows
	// (exponential); default 10 minutes.
	MeanDropout float64
}

// Generate draws a random schedule from the stream. The draw order is
// fixed, so a given (seed, config, machine) always yields the same
// schedule.
func Generate(topo *topology.Dragonfly, cfg GenConfig, s *rng.Stream) (*Schedule, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: non-positive horizon %g", cfg.Horizon)
	}
	if cfg.MeanOutage <= 0 {
		cfg.MeanOutage = 6 * 3600
	}
	if cfg.MeanDropout <= 0 {
		cfg.MeanDropout = 600
	}
	var events []Event
	window := func(mean float64) (float64, float64) {
		start := s.Uniform(0, cfg.Horizon)
		dur := s.Exp(mean)
		if dur < 60 {
			dur = 60
		}
		end := start + dur
		if end > cfg.Horizon {
			end = cfg.Horizon
		}
		if end <= start {
			// event drawn at the very end of the horizon; give it a minute
			end = start + 60
		}
		return start, end
	}
	for i := 0; i < cfg.LinkDown; i++ {
		t0, t1 := window(cfg.MeanOutage)
		events = append(events, Event{Kind: LinkDown, Start: t0, End: t1,
			Link: topology.LinkID(s.Intn(len(topo.Links)))})
	}
	for i := 0; i < cfg.LinkDegraded; i++ {
		t0, t1 := window(cfg.MeanOutage)
		events = append(events, Event{Kind: LinkDegraded, Start: t0, End: t1,
			Link: topology.LinkID(s.Intn(len(topo.Links))), Factor: s.Uniform(0.25, 0.75)})
	}
	for i := 0; i < cfg.RouterDown; i++ {
		t0, t1 := window(cfg.MeanOutage)
		events = append(events, Event{Kind: RouterDown, Start: t0, End: t1,
			Router: topology.RouterID(s.Intn(topo.Cfg.NumRouters()))})
	}
	for i := 0; i < cfg.NodeDrain; i++ {
		t0, t1 := window(cfg.MeanOutage)
		events = append(events, Event{Kind: NodeDrain, Start: t0, End: t1,
			Router: topology.RouterID(s.Intn(topo.Cfg.NumRouters()))})
	}
	for i := 0; i < cfg.Dropouts; i++ {
		t0, t1 := window(cfg.MeanDropout)
		events = append(events, Event{Kind: SamplerDropout, Start: t0, End: t1})
	}
	return New(topo, events)
}
