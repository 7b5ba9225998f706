// Package routing enumerates dragonfly paths and implements the adaptive
// (UGAL-style) path choice used by Cray XC systems: for every packet a
// router can choose among several shortest and non-minimal paths, and the
// choice is driven by the back pressure currently observed on the candidate
// links (§II-A of the paper).
//
// The Engine is purely combinatorial: it produces candidate paths as
// sequences of link IDs. A Policy picks the candidates for a flow and splits
// its traffic across them; the load-aware splits read the caller's per-link
// congestion view, so the flow simulator (package netsim) can plug in its
// current utilization estimates.
package routing

import (
	"errors"
	"fmt"

	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// ErrPartitioned is returned (wrapped) by Route when no healthy path exists
// between two routers, i.e. link failures have partitioned the fabric.
var ErrPartitioned = errors.New("routing: topology partitioned")

// Path is a route between two routers as an ordered list of traversed
// links. An empty Links slice is the degenerate path from a router to
// itself. Minimal records whether the path is a shortest dragonfly route
// (as opposed to a Valiant detour through an intermediate group).
type Path struct {
	Links   []topology.LinkID
	Minimal bool
}

// Hops returns the number of links traversed.
func (p Path) Hops() int { return len(p.Links) }

// Engine answers path queries against a wired dragonfly.
type Engine struct {
	d *topology.Dragonfly
	// avoid marks links that must not appear in any returned path (failed
	// or quiesced links). Nil means every link is usable.
	avoid func(topology.LinkID) bool

	// telemetry handles, captured at construction; nil (no-op) without a
	// registry. Observation-only: no routing decision reads them.
	tmSets    *telemetry.Counter
	tmMinimal *telemetry.Counter
	tmNonMin  *telemetry.Counter
	tmBFS     *telemetry.Counter
}

// NewEngine returns a path engine for machine d.
func NewEngine(d *topology.Dragonfly) *Engine {
	return &Engine{
		d:         d,
		tmSets:    telemetry.C(telemetry.MRoutingCandidateSets),
		tmMinimal: telemetry.C(telemetry.MRoutingMinimal),
		tmNonMin:  telemetry.C(telemetry.MRoutingNonMinimal),
		tmBFS:     telemetry.C(telemetry.MRoutingBFSFallback),
	}
}

// Machine returns the underlying dragonfly.
func (e *Engine) Machine() *topology.Dragonfly { return e.d }

// SetAvoid installs the failed-link predicate. Paths returned by every
// enumeration method afterwards avoid links for which avoid reports true.
// Pass nil to restore the fault-free engine.
func (e *Engine) SetAvoid(avoid func(topology.LinkID) bool) { e.avoid = avoid }

// usable reports whether a path traverses no avoided link.
func (e *Engine) usable(p Path) bool {
	if e.avoid == nil {
		return true
	}
	for _, l := range p.Links {
		if e.avoid(l) {
			return false
		}
	}
	return true
}

// linkOK reports whether a single link is usable.
func (e *Engine) linkOK(l topology.LinkID) bool {
	return e.avoid == nil || !e.avoid(l)
}

// IntraGroupPaths returns the minimal paths between two routers of the
// same group: the direct green or black link when the routers share a row
// or column, and otherwise the two two-hop corner routes (green-then-black
// and black-then-green). Panics if the routers are in different groups.
func (e *Engine) IntraGroupPaths(a, b topology.RouterID) []Path {
	d := e.d
	if d.Group(a) != d.Group(b) {
		panic("routing: IntraGroupPaths across groups")
	}
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
		corner1 := d.RouterAt(g, ra, cb) // row move first
		corner2 := d.RouterAt(g, rb, ca) // column move first
		return []Path{
			{Links: []topology.LinkID{d.RowLink(a, cb), d.ColLink(corner1, rb)}, Minimal: true},
			{Links: []topology.LinkID{d.ColLink(a, rb), d.RowLink(corner2, cb)}, Minimal: true},
		}
	}
}

// intraUsable returns the minimal intra-group paths that avoid failed
// links. May be empty when faults block both corner routes.
func (e *Engine) intraUsable(a, b topology.RouterID) []Path {
	all := e.IntraGroupPaths(a, b)
	if e.avoid == nil {
		return all
	}
	out := all[:0:0]
	for _, p := range all {
		if e.usable(p) {
			out = append(out, p)
		}
	}
	return out
}

// intraFirst returns one usable minimal intra-group path, preferring the
// row-first variant. ok is false when faults block every variant.
func (e *Engine) intraFirst(a, b topology.RouterID) (Path, bool) {
	paths := e.intraUsable(a, b)
	if len(paths) == 0 {
		return Path{}, false
	}
	return paths[0], true
}

// concat joins path segments into one path.
func concat(minimal bool, segs ...[]topology.LinkID) Path {
	var n int
	for _, s := range segs {
		n += len(s)
	}
	links := make([]topology.LinkID, 0, n)
	for _, s := range segs {
		links = append(links, s...)
	}
	return Path{Links: links, Minimal: minimal}
}

// globalSegment builds the path a → (blue link l) → b where l connects the
// groups of a and b: intra(a→x) + l + intra(y→b), with x the endpoint of l
// in a's group. variant alternates between the two-hop corner routes of
// the intra-group segments so different candidates do not funnel through
// the same first link.
// ok is false when the blue link itself or every intra-group variant on
// either side is failed.
func (e *Engine) globalSegment(a, b topology.RouterID, l topology.LinkID, minimal bool, variant int) (Path, bool) {
	if !e.linkOK(l) {
		return Path{}, false
	}
	d := e.d
	link := d.Links[l]
	x, y := link.A, link.B
	if d.Group(x) != d.Group(a) {
		x, y = y, x
	}
	heads := e.intraUsable(a, x)
	tails := e.intraUsable(y, b)
	if len(heads) == 0 || len(tails) == 0 {
		return Path{}, false
	}
	head := heads[variant%len(heads)]
	tail := tails[variant%len(tails)]
	return concat(minimal, head.Links, []topology.LinkID{l}, tail.Links), true
}

// MinimalPaths returns up to maxCandidates minimal paths from a to b. For
// routers in the same group these are the intra-group routes; across groups,
// one candidate per sampled blue link between the two groups. The stream
// picks which blue links are sampled (pass nil for a deterministic prefix).
func (e *Engine) MinimalPaths(a, b topology.RouterID, maxCandidates int, s *rng.Stream) []Path {
	d := e.d
	if maxCandidates < 1 {
		maxCandidates = 1
	}
	ga, gb := d.Group(a), d.Group(b)
	if ga == gb {
		paths := e.intraUsable(a, b)
		if len(paths) > maxCandidates {
			paths = paths[:maxCandidates]
		}
		return paths
	}
	blues := d.GlobalBetween(ga, gb)
	idxs := sampleIndices(len(blues), maxCandidates, s)
	paths := make([]Path, 0, len(idxs))
	for k, i := range idxs {
		if p, ok := e.globalSegment(a, b, blues[i], true, k); ok {
			paths = append(paths, p)
		}
	}
	return paths
}

// ValiantPaths returns up to maxCandidates non-minimal paths from a to b
// through random intermediate groups (the classic Valiant detour used by
// adaptive dragonfly routing when minimal links are congested). For routers
// in the same group it detours through a random other group. The stream
// must be non-nil.
func (e *Engine) ValiantPaths(a, b topology.RouterID, maxCandidates int, s *rng.Stream) []Path {
	d := e.d
	g := d.Cfg.Groups
	ga, gb := d.Group(a), d.Group(b)
	paths := make([]Path, 0, maxCandidates)
	for attempt := 0; attempt < 4*maxCandidates && len(paths) < maxCandidates; attempt++ {
		gi := topology.GroupID(s.Intn(g))
		if gi == ga || gi == gb {
			continue
		}
		b1 := d.GlobalBetween(ga, gi)
		b2 := d.GlobalBetween(gi, gb)
		if len(b1) == 0 || len(b2) == 0 {
			continue
		}
		l1 := b1[s.Intn(len(b1))]
		l2 := b2[s.Intn(len(b2))]
		if !e.linkOK(l1) || !e.linkOK(l2) {
			continue
		}
		// a → (l1) → arrival in gi → (l2) → arrival in gb → b
		link1 := d.Links[l1]
		x1, y1 := link1.A, link1.B
		if d.Group(x1) != ga {
			x1, y1 = y1, x1
		}
		link2 := d.Links[l2]
		x2, y2 := link2.A, link2.B
		if d.Group(x2) != gi {
			x2, y2 = y2, x2
		}
		head, ok1 := e.intraFirst(a, x1)
		mid, ok2 := e.intraFirst(y1, x2)
		tail, ok3 := e.intraFirst(y2, b)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		paths = append(paths, concat(false,
			head.Links, []topology.LinkID{l1}, mid.Links, []topology.LinkID{l2}, tail.Links))
	}
	return paths
}

// CandidateOptions bounds the candidate set built by Candidates.
type CandidateOptions struct {
	MaxMinimal int // minimal candidates (default 4)
	MaxValiant int // non-minimal candidates (default 2); 0 disables Valiant
}

// Candidates returns the adaptive-routing candidate set for a flow from a
// to b: a handful of minimal paths plus (optionally) Valiant detours. Under
// faults the structured candidates may all be blocked; Candidates then
// degrades to a breadth-first search over the healthy fabric, returning a
// single (possibly long) route, and only yields an empty set when the two
// routers are truly partitioned.
func (e *Engine) Candidates(a, b topology.RouterID, opt CandidateOptions, s *rng.Stream) []Path {
	if opt.MaxMinimal <= 0 {
		opt.MaxMinimal = 4
	}
	paths := e.MinimalPaths(a, b, opt.MaxMinimal, s)
	if opt.MaxValiant > 0 && a != b {
		paths = append(paths, e.ValiantPaths(a, b, opt.MaxValiant, s)...)
	}
	if len(paths) == 0 && a != b && e.avoid != nil {
		if p, ok := e.bfsHealthy(a, b); ok {
			paths = append(paths, p)
			e.tmBFS.Add(1)
		}
	}
	e.tmSets.Add(1)
	for _, p := range paths {
		if p.Minimal {
			e.tmMinimal.Add(1)
		} else {
			e.tmNonMin.Add(1)
		}
	}
	return paths
}

// Route returns the candidate set for a → b, or a wrapped ErrPartitioned
// when link failures have disconnected the two routers.
func (e *Engine) Route(a, b topology.RouterID, opt CandidateOptions, s *rng.Stream) ([]Path, error) {
	paths := e.Candidates(a, b, opt, s)
	if len(paths) == 0 && a != b {
		return nil, fmt.Errorf("no healthy path from router %d to router %d: %w", a, b, ErrPartitioned)
	}
	return paths, nil
}

// bfsHealthy finds a shortest path over healthy links only, ignoring the
// dragonfly routing hierarchy. It is the last-resort fallback once faults
// have blocked every structured candidate.
func (e *Engine) bfsHealthy(a, b topology.RouterID) (Path, bool) {
	d := e.d
	n := d.Cfg.NumRouters()
	prevLink := make([]topology.LinkID, n)
	visited := make([]bool, n)
	for i := range prevLink {
		prevLink[i] = -1
	}
	queue := []topology.RouterID{a}
	visited[a] = true
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for _, l := range d.Incident(r) {
			if !e.linkOK(l) {
				continue
			}
			link := d.Links[l]
			next := link.A
			if next == r {
				next = link.B
			}
			if visited[next] {
				continue
			}
			visited[next] = true
			prevLink[next] = l
			if next == b {
				// walk back to a collecting links
				var rev []topology.LinkID
				cur := b
				for cur != a {
					pl := prevLink[cur]
					rev = append(rev, pl)
					lk := d.Links[pl]
					if lk.A == cur {
						cur = lk.B
					} else {
						cur = lk.A
					}
				}
				links := make([]topology.LinkID, len(rev))
				for i, l2 := range rev {
					links[len(rev)-1-i] = l2
				}
				return Path{Links: links}, true
			}
			queue = append(queue, next)
		}
	}
	return Path{}, false
}

// sampleIndices returns up to k distinct indices in [0, n). With a nil
// stream it returns the prefix 0..min(k,n)-1; otherwise a random subset.
func sampleIndices(n, k int, s *rng.Stream) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if s == nil || k == n {
		out := make([]int, k)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// partial Fisher-Yates over an index array
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
