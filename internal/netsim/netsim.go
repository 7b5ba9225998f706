// Package netsim is the flow-level congestion simulator that stands in for
// the Aries hardware. For every simulation round (one application time step,
// or a fraction of one), the caller supplies the traffic demands of all jobs
// sharing the machine; the simulator routes them adaptively over the
// dragonfly, derives per-link utilization, converts contention into stall
// cycles and slowdown factors, and accumulates the Table II hardware
// counters into a counters.Board.
//
// Two properties of the real system are preserved because the analyses
// depend on them:
//
//  1. Slowdowns and counters come from the same mechanism — shared links.
//     A job is slowed exactly when the routers it can see record stalls,
//     which is what makes counter-based deviation prediction (§V-B) work.
//  2. Transit congestion (router tiles) and endpoint congestion (processor
//     tiles) are distinct. Flows with many packets per flit (small-message
//     traffic, e.g. AMG) saturate endpoint packet processing and show up in
//     PT_* stall counters; bandwidth-heavy flows (MILC) saturate link
//     bandwidth and show up in RT_* stall counters — the split Figure 9
//     reports.
//
// The round loop is the campaign's hot path; docs/PERFORMANCE.md records
// the layout and caching decisions below (flat candidate arenas, one
// candidate-path cache keyed by dead-link set, static-split
// precomputation) together with the determinism contract every further
// optimization must obey: serial, parallel, and distributed execution stay
// byte-identical. A Network's routing policy and path cache are fixed when
// it is built, and each RoutedFlows owns the slowdown buffer its rounds
// return; nothing switches them later.
package netsim

import (
	"fmt"
	"hash/fnv"
	"sync"

	"dragonvar/internal/counters"
	"dragonvar/internal/monitor"
	"dragonvar/internal/rng"
	"dragonvar/internal/routing"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// Config sets the physical constants of the simulated interconnect. The
// defaults (see DefaultConfig) are loosely calibrated to Aries: what matters
// for the paper's analyses is the relative balance between link bandwidth,
// injection bandwidth, and packet processing rate, not the absolute values.
type Config struct {
	// LinkBandwidth is the flit capacity of a green/black link, flits/s.
	LinkBandwidth float64
	// BlueBandwidth is the flit capacity of a global link, flits/s.
	BlueBandwidth float64
	// InjectionBandwidth is the NIC flit capacity of one router, flits/s
	// (all of the router's nodes combined).
	InjectionBandwidth float64
	// PacketRate is the endpoint message/transaction processing capacity of
	// one router, messages/s (all its NICs combined). Small-message traffic
	// exhausts this before it exhausts bandwidth.
	PacketRate float64
	// StallScale converts queueing delay into stall cycles per flit, so
	// counters have hardware-plausible magnitudes.
	StallScale float64
	// FlitsPerPacket is used to derive packet counts from flit counts for
	// the RT_PKT_TOT counter.
	FlitsPerPacket float64
	// MaxMinimal and MaxValiant bound the adaptive-routing candidate set.
	MaxMinimal int
	MaxValiant int
	// Routing names the routing policy ("minimal", "valiant", "adaptive",
	// "feedback" — see routing.PolicyNames). Empty means "adaptive", the
	// load-aware path splitting of Aries; "minimal" always uses the first
	// minimal path (the ablation of §VI's related simulation studies:
	// variability collapses onto fewer links and hotspots form).
	Routing string
	// NonMinimalBias scales the cost of non-minimal candidates in the
	// adaptive/feedback split (UGAL's threshold knob); 0 means neutral (1),
	// reproducing the historical split exactly.
	NonMinimalBias float64
	// RelaxationRounds is the number of route/measure iterations per round;
	// 2 is enough for the split weights to react to the round's own load.
	// Policies with load-independent splits (routing.StaticWeights) always
	// collapse to a single iteration — the loads cannot change between
	// iterations, so one pass is bit-identical to many.
	RelaxationRounds int
}

// PolicyName returns the effective routing-policy name: Routing when set,
// otherwise "adaptive".
func (c Config) PolicyName() string {
	if c.Routing != "" {
		return c.Routing
	}
	return "adaptive"
}

// DefaultConfig returns the calibration used by the campaign.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth:      5.25e9, // ~5 GB/s expressed in flit units
		BlueBandwidth:      4.7e9,
		InjectionBandwidth: 8e9,
		PacketRate:         4e7,
		StallScale:         0.9,
		FlitsPerPacket:     12,
		MaxMinimal:         3,
		MaxValiant:         1,
		RelaxationRounds:   2,
	}
}

// Flow is a directed traffic demand between two routers for one round.
type Flow struct {
	Src, Dst topology.RouterID
	// Flits is the data volume of the flow during the round.
	Flits float64
	// Packets is the number of messages/transactions carrying those flits.
	// High message counts at low flit volume model small-message traffic,
	// which is throttled by endpoint processing rather than bandwidth.
	Packets float64
	// RequestFraction is the share of the flow's flits on request virtual
	// channels (VC0); the rest are responses (VC4). Put/Send traffic is
	// request-dominated; Get-based protocols see more response flits.
	RequestFraction float64
}

// Result reports what one simulation round did to each flow and to the
// machine.
type Result struct {
	// Slowdown[i] is the contention delay factor (≥ 1) experienced by
	// flows[i]: the factor by which the flow's communication was stretched
	// relative to an idle machine.
	Slowdown []float64
	// MaxLinkUtilization is the highest per-link utilization observed.
	MaxLinkUtilization float64
	// MeanLinkUtilization averages utilization over links that carried
	// any traffic.
	MeanLinkUtilization float64
}

// Network simulates one machine. It is not safe for concurrent use.
type Network struct {
	topo *topology.Dragonfly
	eng  *routing.Engine
	cfg  Config

	// Board accumulates the cumulative hardware counters, like the real
	// chips do; consumers snapshot and diff it.
	Board *counters.Board

	s *rng.Stream

	// per-link state, reused across rounds
	linkLoad []float64 // flits assigned to each link this round
	linkCap  []float64 // current flit capacity (baseCap derated by faults)
	baseCap  []float64 // fault-free flit capacity of each link
	prevLoad []float64 // utilizations of the previous relaxation iteration
	bgLoad   []float64 // background (precomputed) flits per link this round
	anyDead  bool      // whether any link currently has zero capacity

	// active-set tracking: only links/routers touched this round are reset
	// and scanned, so round cost scales with traffic, not machine size
	activeLinks   []topology.LinkID
	linkOnList    []bool
	activeRouters []topology.RouterID
	routerOnList  []bool
	fgSeen        []bool // scratch for RoutedFlows foreground-link dedup

	// round scratch, reused across rounds and runs: linkIndex numbers an
	// arena's distinct links while it is built (all -1 between builds),
	// split holds the load-aware split's tables and then the slowdown
	// pass's, and share holds each path's flits in one relaxation iteration
	linkIndex []int32
	split     routing.Scratch
	share     []float64

	// per-router endpoint state, reused across rounds
	injFlits []float64 // flits injected at each router this round
	ejFlits  []float64 // flits ejected at each router this round
	injPkts  []float64
	ejPkts   []float64

	// routing policy, fixed by Config.Routing in New: candidate generation
	// and split weighting are delegated to it; staticSplit records that the
	// split is load-independent (routing.StaticWeights), letting Resolve
	// precompute the weights once per run
	policy      routing.Policy
	staticSplit bool
	// fb is the deterministic stall-feedback tracker feeding the
	// "feedback" policy; nil for every other policy
	fb *monitor.StallFeedback

	// paths caches candidate sets per (dead-link set, router pair): the
	// network's own from New, or the one SharePathCache attached. deadSig
	// is the signature of the current dead-link set.
	paths   *PathCache
	deadSig uint64

	// loadScratch pools BuildLoadSet's dense accumulators (*loadScratch)
	// across calls and concurrent callers.
	loadScratch sync.Pool

	// telemetry handles, captured at construction; nil (no-op) when the
	// process runs without telemetry. Observation-only: nothing in the
	// simulation reads them, so results are identical with telemetry on.
	tmCacheHits   *telemetry.Counter
	tmCacheMisses *telemetry.Counter
	tmCacheInval  *telemetry.Counter
	tmRounds      *telemetry.Counter
	tmRoundFlits  *telemetry.Histogram
}

// New creates a network simulator over machine d, routing under the
// policy cfg names. The stream drives path sampling and must be dedicated
// to this network. The "feedback" policy additionally gets a deterministic
// per-network stall tracker (see monitor.StallFeedback), reset per run via
// ResetFeedback.
func New(d *topology.Dragonfly, cfg Config, s *rng.Stream) *Network {
	n := &Network{
		topo:     d,
		eng:      routing.NewEngine(d),
		cfg:      cfg,
		Board:    counters.NewBoard(d.Cfg.NumRouters()),
		s:        s,
		linkLoad: make([]float64, len(d.Links)),
		linkCap:  make([]float64, len(d.Links)),
		prevLoad: make([]float64, len(d.Links)),
		bgLoad:   make([]float64, len(d.Links)),
		injFlits: make([]float64, d.Cfg.NumRouters()),
		ejFlits:  make([]float64, d.Cfg.NumRouters()),
		injPkts:  make([]float64, d.Cfg.NumRouters()),
		ejPkts:   make([]float64, d.Cfg.NumRouters()),
		paths:    NewPathCache(),

		tmCacheHits:   telemetry.C(telemetry.MNetsimCacheHits),
		tmCacheMisses: telemetry.C(telemetry.MNetsimCacheMisses),
		tmCacheInval:  telemetry.C(telemetry.MNetsimCacheInval),
		tmRounds:      telemetry.C(telemetry.MNetsimRounds),
		tmRoundFlits:  telemetry.H(telemetry.MNetsimRoundFlits, telemetry.FlitsBuckets),
	}
	n.linkOnList = make([]bool, len(d.Links))
	n.routerOnList = make([]bool, d.Cfg.NumRouters())
	n.fgSeen = make([]bool, len(d.Links))
	n.linkIndex = make([]int32, len(d.Links))
	for i := range n.linkIndex {
		n.linkIndex[i] = -1
	}
	n.baseCap = make([]float64, len(d.Links))
	for i, l := range d.Links {
		if l.Type == topology.Blue {
			n.baseCap[i] = cfg.BlueBandwidth
		} else {
			n.baseCap[i] = cfg.LinkBandwidth
		}
	}
	copy(n.linkCap, n.baseCap)
	name := cfg.PolicyName()
	pcfg := routing.PolicyConfig{
		MaxMinimal:     cfg.MaxMinimal,
		MaxValiant:     cfg.MaxValiant,
		NonMinimalBias: cfg.NonMinimalBias,
	}
	if name == "feedback" {
		fb := monitor.NewStallFeedback(d.Cfg.Groups)
		n.fb = fb
		pcfg.GroupStall = func(g topology.GroupID) float64 { return fb.Ratio(int(g)) }
	}
	pol, err := routing.NewPolicy(name, pcfg)
	if err != nil {
		// configs are validated where they enter the system (cluster.New,
		// the CLIs); by this point an unknown name is a programming error
		panic(fmt.Errorf("netsim: %w", err))
	}
	n.policy = pol
	n.staticSplit = routing.StaticWeights(pol)
	return n
}

// SharePathCache replaces the network's own candidate-path cache with c,
// so identically seeded networks pool their resolutions. Only attach the
// same cache to Networks whose candidate resolution is bit-identical —
// same topology, Config, and seed (see PathCache) — and before the first
// resolution, or the network's earlier entries are left behind.
func (n *Network) SharePathCache(c *PathCache) { n.paths = c }

// ResetFeedback clears the stall-feedback state read by the "feedback"
// policy; a no-op under any other policy. Campaign workers call this next
// to Board.Reset before every run, so a run's feedback trajectory — like
// its counters — depends only on the run itself.
func (n *Network) ResetFeedback() {
	if n.fb != nil {
		n.fb.Reset()
	}
}

// SetLinkHealth applies a fault view to the fabric: each link's capacity
// becomes baseCap · factor(link), links with factor ≤ 0 are dead and are
// avoided by all subsequent route resolution, and candidate lookups switch
// to the new dead-link set's entries (capacity derating alone never
// changes candidate paths, so epochs with the same dead set — in
// particular, every fault view that kills nothing — share entries).
// Pass nil to restore the fault-free machine. The caller re-resolves
// routes after changing health; stale RoutedFlows remain usable but their
// traffic across dead links is priced at effectively infinite congestion
// rather than dropped.
func (n *Network) SetLinkHealth(factor func(topology.LinkID) float64) {
	if factor == nil {
		copy(n.linkCap, n.baseCap)
		n.anyDead = false
		n.eng.SetAvoid(nil)
		n.setEpoch(0)
		return
	}
	anyDead := false
	h := fnv.New64a()
	var buf [4]byte
	for i := range n.linkCap {
		f := factor(topology.LinkID(i))
		if f < 0 {
			f = 0
		} else if f > 1 {
			f = 1
		}
		n.linkCap[i] = n.baseCap[i] * f
		if n.linkCap[i] <= 0 {
			anyDead = true
			// fold the dead link's ID into the epoch signature; iteration
			// is in ascending LinkID order, so equal dead sets hash equal
			buf[0] = byte(i)
			buf[1] = byte(i >> 8)
			buf[2] = byte(i >> 16)
			buf[3] = byte(i >> 24)
			h.Write(buf[:])
		}
	}
	n.anyDead = anyDead
	sig := uint64(0)
	if anyDead {
		n.eng.SetAvoid(func(l topology.LinkID) bool { return n.linkCap[l] <= 0 })
		sig = h.Sum64()
	} else {
		n.eng.SetAvoid(nil)
	}
	n.setEpoch(sig)
}

// setEpoch switches candidate lookups to the dead-link set with
// signature sig (no-op if unchanged).
func (n *Network) setEpoch(sig uint64) {
	if sig == n.deadSig {
		return
	}
	n.tmCacheInval.Add(1)
	n.deadSig = sig
}

// Topology returns the machine being simulated.
func (n *Network) Topology() *topology.Dragonfly { return n.topo }

// Config returns the simulator configuration.
func (n *Network) Config() Config { return n.cfg }

// pairKey builds the path-cache key.
func pairKey(a, b topology.RouterID) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// candidates returns the cached adaptive-routing candidate set for a pair.
// Path sampling uses a per-pair stream split from n.s rather than n.s
// itself, so the candidate set for a pair depends only on the network's
// seed and the pair — never on which pairs were resolved before it. This
// is what lets runs be simulated in any order (or sharded across workers,
// each with an identically-seeded Network) with bit-identical results:
// a cache hit — own or shared — and a recomputation always return the
// same paths.
func (n *Network) candidates(a, b topology.RouterID) []routing.Path {
	p, resolved := n.paths.resolve(n.deadSig, pairKey(a, b), func() []routing.Path {
		return n.policy.Candidates(n.eng, a, b, n.s.Split(fmt.Sprintf("pair-%d-%d", a, b)))
	})
	if resolved {
		n.tmCacheMisses.Add(1)
	} else {
		n.tmCacheHits.Add(1)
	}
	return p
}

// deadUtil is the utilization assigned to a dead (zero-capacity) link so
// that any stale route still crossing it is priced out by the adaptive
// split and shows up as an enormous — but finite — slowdown.
const deadUtil = 1e6

// queueDelay is the congestion delay at utilization u: an M/M/1-style
// convex curve, clamped so overload stays finite but very painful.
func queueDelay(u float64) float64 {
	if u <= 0 {
		return 0
	}
	const uMax = 0.97
	if u > uMax {
		// linear continuation beyond the pole so overload keeps ordering
		base := uMax / (1 - uMax)
		return base + (u-uMax)*25
	}
	return u / (1 - u)
}

// clamp1 is math.Min(v, 1) for the simulator's non-negative, non-NaN
// operands — same result, but it inlines (archMin does not).
func clamp1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// touchLink marks a link as active this round.
func (n *Network) touchLink(l topology.LinkID) {
	if !n.linkOnList[l] {
		n.linkOnList[l] = true
		n.activeLinks = append(n.activeLinks, l)
	}
}

// touchRouter marks a router as active this round.
func (n *Network) touchRouter(r topology.RouterID) {
	if !n.routerOnList[r] {
		n.routerOnList[r] = true
		n.activeRouters = append(n.activeRouters, r)
	}
}

// RoutedFlows holds the resolved routing candidate sets for a fixed list
// of flows. An application's router-pair list does not change across time
// steps, so callers resolve once per run and reuse. Every round over the
// same RoutedFlows returns its slowdowns in one buffer, overwriting the
// previous round's: consume a Result before the next round, or copy it.
//
// The candidate sets are flattened into one routing.Arena, so the round
// loop walks dense slices instead of chasing [][]Path pointers: path sums
// (the split's costs, the slowdowns' delays) run hop-major over a per-link
// table, and each link's load is gathered from the paths that cross it.
// The split weights live in one flat buffer (weights). Load-independent
// policies (routing.StaticWeights) have their weights computed once at
// resolve time; everything else is recomputed per relaxation iteration by
// one policy split call.
type RoutedFlows struct {
	arena   *routing.Arena
	weights []float64 // split weight per path

	// static records that weights was precomputed at resolve time (the
	// network's policy splits independently of load)
	static bool
	// slowdown is every round's Result.Slowdown, one entry per flow
	slowdown []float64

	// fgLinks caches the first-touch-ordered, deduplicated link list of
	// the active (Src≠Dst, Flits>0) flows — the per-round "mark foreground
	// links active" walk — revalidated against fgMask because Flits gating
	// can change between rounds.
	fgLinks []topology.LinkID
	fgMask  []bool
	fgBuilt bool
}

// buildRouted resolves candidates for the flows and flattens them into an
// arena. healthy selects ResolveHealthy's partition check.
func (n *Network) buildRouted(flows []Flow, healthy bool) (*RoutedFlows, error) {
	resolved := make([][]routing.Path, len(flows))
	for i, f := range flows {
		paths := n.candidates(f.Src, f.Dst)
		if healthy && len(paths) == 0 && f.Src != f.Dst {
			return nil, fmt.Errorf("netsim: flow %d (router %d → %d): %w", i, f.Src, f.Dst, routing.ErrPartitioned)
		}
		resolved[i] = paths
	}
	return n.route(resolved), nil
}

// route builds the RoutedFlows of the flows whose candidate sets are
// resolved, one per flow.
func (n *Network) route(resolved [][]routing.Path) *RoutedFlows {
	a := routing.NewArena(resolved, n.linkIndex)
	r := &RoutedFlows{
		arena:    a,
		weights:  make([]float64, len(a.PathEnd)),
		slowdown: make([]float64, len(resolved)),
	}
	if n.staticSplit {
		// load-independent split: compute every flow's weights once, here;
		// the round loop never recomputes them
		all := make([]bool, len(resolved))
		for i := range all {
			all[i] = true
		}
		n.policy.SplitWeights(n.eng, a, all, n.prevLoad, &n.split, r.weights)
		r.static = true
	}
	return r
}

// Size reports how many candidate paths the routes hold and how many links
// those paths cross in all, counting each crossing.
func (r *RoutedFlows) Size() (paths, links int) {
	if pe := r.arena.PathEnd; len(pe) > 0 {
		return len(pe), int(pe[len(pe)-1])
	}
	return 0, 0
}

// Resolve computes (and caches) the candidate paths for each flow.
func (n *Network) Resolve(flows []Flow) *RoutedFlows {
	r, _ := n.buildRouted(flows, false)
	return r
}

// ResolveHealthy is Resolve for a faulted fabric: it errors (wrapping
// routing.ErrPartitioned) when any flow's endpoints are disconnected by
// link failures instead of silently returning an unroutable flow.
func (n *Network) ResolveHealthy(flows []Flow) (*RoutedFlows, error) {
	return n.buildRouted(flows, true)
}

// refreshForeground revalidates (and if needed rebuilds) the cached
// deduplicated foreground link list against this round's activity mask.
func (n *Network) refreshForeground(r *RoutedFlows, flows []Flow) {
	if r.fgBuilt && len(r.fgMask) == len(flows) {
		same := true
		for i := range flows {
			f := &flows[i]
			if r.fgMask[i] != (f.Src != f.Dst && f.Flits > 0) {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	if cap(r.fgMask) < len(flows) {
		r.fgMask = make([]bool, len(flows))
	} else {
		r.fgMask = r.fgMask[:len(flows)]
	}
	r.fgLinks = r.fgLinks[:0]
	seen := n.fgSeen
	a := r.arena
	ps, ls := int32(0), int32(0)
	for i := range flows {
		f := &flows[i]
		active := f.Src != f.Dst && f.Flits > 0
		r.fgMask[i] = active
		for j := ps; j < a.FlowEnd[i]; j++ {
			le := a.PathEnd[j]
			if active {
				// the links of the flow's paths in path order; dedup is
				// foreground-internal only: the round loop re-checks
				// linkOnList per link, so background-first touch order —
				// and with it the order-dependent mean-utilization sum — is
				// exactly what a per-flow walk produces
				for h := range int(le - ls) {
					if l := a.Distinct[a.Hop(int(j), h)]; !seen[l] {
						seen[l] = true
						r.fgLinks = append(r.fgLinks, l)
					}
				}
			}
			ls = le
		}
		ps = a.FlowEnd[i]
	}
	for _, l := range r.fgLinks {
		seen[l] = false
	}
	r.fgBuilt = true
}

// RunRound simulates `duration` seconds of traffic: the adaptively routed
// foreground flows plus any number of background footprints (production
// jobs whose routing is fixed for their lifetime). Returns the
// per-flow slowdowns of the foreground flows; counters for all traffic
// accumulate into n.Board. It resolves the flows on every call, so each
// result owns its Slowdown slice.
func (n *Network) RunRound(flows []Flow, background []ScaledLoad, duration float64) Result {
	return n.RunRoundRouted(flows, n.Resolve(flows), background, duration)
}

// RunRoundRouted is RunRound with pre-resolved foreground routes; flows
// must match the list the routes were resolved for pair by pair. The
// result's Slowdown is the routes' buffer, overwritten by the next round
// over the same routes, so a warm round allocates nothing.
func (n *Network) RunRoundRouted(flows []Flow, routed *RoutedFlows, background []ScaledLoad, duration float64) Result {
	if duration <= 0 {
		duration = 1
	}
	if n.tmRounds != nil { // telemetry on: per-round throughput accounting
		n.tmRounds.Add(1)
		var offered float64
		for _, f := range flows {
			offered += f.Flits
		}
		n.tmRoundFlits.Observe(offered)
	}
	invDur := 1 / duration
	anyBG := n.beginRound(flows, routed, background, invDur)
	n.relax(flows, routed, anyBG, invDur)
	res := n.settle(flows, routed, duration)
	n.slowdowns(flows, routed, duration, res.Slowdown)
	return res
}

// beginRound clears the previous round's active state, folds in the
// background, marks the foreground's links active, and seeds the first
// relaxation iteration's utilizations with the background alone. It
// reports whether any background footprint was applied.
func (n *Network) beginRound(flows []Flow, routed *RoutedFlows, background []ScaledLoad, invDur float64) bool {
	for _, l := range n.activeLinks {
		n.linkLoad[l] = 0
		n.bgLoad[l] = 0
		n.prevLoad[l] = 0
		n.linkOnList[l] = false
	}
	n.activeLinks = n.activeLinks[:0]
	for _, r := range n.activeRouters {
		n.injFlits[r] = 0
		n.ejFlits[r] = 0
		n.injPkts[r] = 0
		n.ejPkts[r] = 0
		n.routerOnList[r] = false
	}
	n.activeRouters = n.activeRouters[:0]

	anyBG := n.foldBackground(background)
	// mark the foreground's links active up front so resets stay complete
	// (via the RoutedFlows' cached dedup of the per-flow link walk)
	n.refreshForeground(routed, flows)
	for _, l := range routed.fgLinks {
		n.touchLink(l)
	}
	// the adaptive foreground reacts to the background from iteration 0
	for _, l := range n.activeLinks {
		if n.linkCap[l] <= 0 {
			n.prevLoad[l] = deadUtil
			continue
		}
		n.prevLoad[l] = n.bgLoad[l] / n.linkCap[l] * invDur
	}
	return anyBG
}

// settle computes the round's final utilizations and their max/mean
// summary in one pass over the active links (the mean sums in activeLinks
// order), then the endpoint loads and the round's counters. The returned
// Result's Slowdown is the routes' buffer, not yet filled.
func (n *Network) settle(flows []Flow, routed *RoutedFlows, duration float64) Result {
	invDur := 1 / duration
	res := Result{Slowdown: routed.slowdown}
	linkLoad, linkCap := n.linkLoad, n.linkCap
	util := n.prevLoad // final per-link utilization
	var utilSum float64
	var utilN int
	for _, l := range n.activeLinks {
		var u float64
		if linkCap[l] <= 0 {
			u = deadUtil
		} else {
			u = linkLoad[l] / linkCap[l] * invDur
		}
		util[l] = u
		if u > res.MaxLinkUtilization {
			res.MaxLinkUtilization = u
		}
		if linkLoad[l] > 0 {
			utilSum += u
			utilN++
		}
	}
	if utilN > 0 {
		res.MeanLinkUtilization = utilSum / float64(utilN)
	}

	// Endpoint loads.
	for i := range flows {
		f := &flows[i]
		if f.Flits <= 0 {
			continue
		}
		n.injFlits[f.Src] += f.Flits
		n.ejFlits[f.Dst] += f.Flits
		n.injPkts[f.Src] += f.Packets
		n.ejPkts[f.Dst] += f.Packets
		n.touchRouter(f.Src)
		n.touchRouter(f.Dst)
	}

	n.accumulateTransitCounters(duration)
	n.accumulateEndpointCounters(flows, duration)
	if n.fb != nil {
		// fold this round's per-group stall/flit deltas into the feedback
		// EWMAs; the feedback policy reads them from the NEXT round on, so
		// the loop is causal and the round's own result stays a pure
		// function of its inputs
		n.fb.Commit()
	}
	return res
}

// foldBackground adds the background footprints to this round's link
// loads, endpoint loads, and endpoint flit-arrival counters, and reports
// whether any footprint was applied.
func (n *Network) foldBackground(background []ScaledLoad) bool {
	anyBG := false
	for _, bg := range background {
		if bg.Set == nil || bg.Scale <= 0 {
			continue
		}
		anyBG = true
		s := bg.Scale
		for i, id := range bg.Set.LinkIDs {
			if n.linkCap[id] <= 0 {
				// the link is dead; its static background footprint was
				// routed before the fault and simply does not flow
				continue
			}
			n.bgLoad[id] += bg.Set.LinkFlits[i] * s
			n.touchLink(id)
		}
		for i, r := range bg.Set.RouterIDs {
			n.injFlits[r] += bg.Set.InjFlits[i] * s
			n.ejFlits[r] += bg.Set.EjFlits[i] * s
			n.injPkts[r] += bg.Set.InjPkts[i] * s
			n.ejPkts[r] += bg.Set.EjPkts[i] * s
			n.touchRouter(r)
			rc := n.Board.At(r)
			rc[counters.PTFlitVC0] += bg.Set.ArriveVC0[i] * s
			rc[counters.PTFlitVC4] += bg.Set.ArriveVC4[i] * s
			rc[counters.PTFlitTot] += (bg.Set.ArriveVC0[i] + bg.Set.ArriveVC4[i]) * s
		}
	}
	return anyBG
}

// relax distributes the foreground flows over their candidate paths: each
// relaxation iteration splits every active flow under the previous
// iteration's utilizations (starting from the background alone), then
// gathers each link's load from the paths that cross it. On return
// linkLoad holds the final iteration's loads; settle turns them into
// utilizations.
func (n *Network) relax(flows []Flow, routed *RoutedFlows, anyBG bool, invDur float64) {
	rounds := n.cfg.RelaxationRounds
	if rounds < 1 {
		rounds = 1
	}
	// static weights cannot react to load, so every relaxation iteration
	// reproduces the same link loads — one pass is bit-identical to many
	static := routed.static
	if static {
		rounds = 1
	}
	a := routed.arena
	linkLoad, bgLoad, prevLoad, linkCap := n.linkLoad, n.bgLoad, n.prevLoad, n.linkCap
	weights, active := routed.weights, routed.fgMask
	if cap(n.share) < len(weights) {
		n.share = make([]float64, len(weights))
	}
	share := n.share[:len(weights)]
	for it := 0; it < rounds; it++ {
		if anyBG {
			for _, l := range n.activeLinks {
				linkLoad[l] = bgLoad[l]
			}
		} else {
			// no background: every bgLoad entry is zero, skip the read
			for _, l := range n.activeLinks {
				linkLoad[l] = 0
			}
		}
		if !static {
			// one call computes every active flow's split under the
			// previous iteration's utilizations
			n.policy.SplitWeights(n.eng, a, active, prevLoad, &n.split, weights)
		}
		// each path's flits; an inactive flow's paths carry none
		ps := int32(0)
		for i, pe := range a.FlowEnd {
			if active[i] {
				flits := flows[i].Flits
				for j := ps; j < pe; j++ {
					share[j] = flits * weights[j]
				}
			} else {
				clear(share[ps:pe])
			}
			ps = pe
		}
		// gather each link's load from the paths crossing it, in arena
		// order: the additions a path-by-path scatter makes, in its order
		// (a zero share adds nothing to a non-negative load); a dead link
		// carries nothing
		cs := int32(0)
		for u, l := range a.Distinct {
			ce := a.CrossEnd[u]
			if n.anyDead && linkCap[l] <= 0 {
				cs = ce
				continue
			}
			load := linkLoad[l]
			for _, j := range a.Crossing[cs:ce] {
				load += share[j]
			}
			linkLoad[l] = load
			cs = ce
		}
		if it < rounds-1 {
			// feed utilizations back for the next iteration; the final
			// iteration's update is fused into settle's pass
			for _, l := range n.activeLinks {
				if linkCap[l] <= 0 {
					prevLoad[l] = deadUtil
					continue
				}
				prevLoad[l] = linkLoad[l] / linkCap[l] * invDur
			}
		}
	}
}

// slowdowns writes each flow's slowdown into dst: transit queueing along
// the flow's weighted paths (from the settled utilizations) plus endpoint
// queueing at its source and destination. The transit delay also echoes
// into the counters of the flow's endpoint routers.
func (n *Network) slowdowns(flows []Flow, routed *RoutedFlows, duration float64, dst []float64) {
	injCap := n.cfg.InjectionBandwidth * duration
	pktCap := n.cfg.PacketRate * duration
	util := n.prevLoad
	a := routed.arena
	// every path's summed queueing delay, each link's delay computed once
	n.split.Fit(a)
	delay, pathDelay := n.split.Link, n.split.Path
	for u, l := range a.Distinct {
		delay[u] = queueDelay(util[l])
	}
	a.PathSums(delay, pathDelay)
	weights, rank, pathEnd := routed.weights, a.Rank, a.PathEnd
	ps, ls := int32(0), int32(0)
	for i, pe := range a.FlowEnd {
		f := &flows[i]
		fs := ps
		ps = pe
		if f.Src == f.Dst || f.Flits <= 0 {
			dst[i] = 1
			if pe > fs {
				ls = pathEnd[pe-1]
			}
			continue
		}
		var transit float64
		for j := fs; j < pe; j++ {
			le := pathEnd[j]
			if w := weights[j]; w != 0 {
				// normalize by hops so the value is delay per traversed link
				transit += w * pathDelay[rank[j]] / float64(le-ls)
			}
			ls = le
		}
		endFlit := queueDelay(n.injFlits[f.Src]/injCap) + queueDelay(n.ejFlits[f.Dst]/injCap)
		endPkt := queueDelay(n.injPkts[f.Src]/pktCap) + queueDelay(n.ejPkts[f.Dst]/pktCap)
		dst[i] = 1 + 0.8*transit + 0.5*endFlit + 0.5*endPkt

		// Backpressure echo: credit exhaustion on congested downstream
		// links propagates stalls back to the tiles of the routers the
		// flow's packets sit in — which is why per-job counter collection
		// works on the real machine. The echo is attenuated: backpressure
		// decays over hops, so remote congestion is only partially visible
		// in a job's own counters (leaving room for the io/sys features of
		// §V-C to add information).
		echo := 0.4 * f.Flits * transit * n.cfg.StallScale
		if echo > 0 {
			src := n.Board.At(f.Src)
			dst := n.Board.At(f.Dst)
			half := echo / 2
			src[counters.RTRBStl] += half
			dst[counters.RTRBStl] += half
			twoX := half * clamp1(transit)
			src[counters.RTRB2xUsg] += twoX
			dst[counters.RTRB2xUsg] += twoX
		}
	}
}

// accumulateTransitCounters writes the RT_* counters for this round: each
// link's traffic is received by both endpoint routers' router tiles (we
// split the undirected aggregate evenly; flow direction is already encoded
// in the endpoint counters).
func (n *Network) accumulateTransitCounters(duration float64) {
	b := n.Board
	linkLoad, linkCap := n.linkLoad, n.linkCap
	topoLinks := n.topo.Links
	stallScale := n.cfg.StallScale
	fpp := n.cfg.FlitsPerPacket
	fb := n.fb
	for _, i := range n.activeLinks {
		load := linkLoad[i]
		if load == 0 || linkCap[i] <= 0 {
			continue
		}
		l := topoLinks[i]
		u := load / (linkCap[i] * duration)
		stalls := load * queueDelay(u) * stallScale
		half := load / 2
		pkts := load / fpp / 2
		stHalf := stalls / 2
		if fb != nil {
			// the same Δstall/Δflit the monitor's group rollup consumes
			fb.Accumulate(int(n.topo.Group(l.A)), stHalf, half)
			fb.Accumulate(int(n.topo.Group(l.B)), stHalf, half)
		}
		// 2X usage grows superlinearly with utilization: both stall events
		// in a cycle require sustained backpressure.
		twoX := stHalf * clamp1(u)
		rc := b.At(l.A)
		rc[counters.RTFlitTot] += half
		rc[counters.RTPktTot] += pkts
		rc[counters.RTRBStl] += stHalf
		rc[counters.RTRB2xUsg] += twoX
		rc = b.At(l.B)
		rc[counters.RTFlitTot] += half
		rc[counters.RTPktTot] += pkts
		rc[counters.RTRBStl] += stHalf
		rc[counters.RTRB2xUsg] += twoX
	}
}

// accumulateEndpointCounters writes the PT_* counters: processor tiles see
// the traffic of their own NICs, split over request (VC0) and response
// (VC4) virtual channels, and stall when injection bandwidth or packet
// processing saturates.
func (n *Network) accumulateEndpointCounters(flows []Flow, duration float64) {
	b := n.Board
	injCap := n.cfg.InjectionBandwidth * duration
	pktCap := n.cfg.PacketRate * duration

	// flit arrivals per router, split by VC
	for i := range flows {
		f := &flows[i]
		if f.Flits <= 0 {
			continue
		}
		req := f.RequestFraction
		if req < 0 {
			req = 0
		} else if req > 1 {
			req = 1
		}
		// data arrives at the destination's processor tiles
		dst := b.At(f.Dst)
		dst[counters.PTFlitVC0] += f.Flits * req
		dst[counters.PTFlitVC4] += f.Flits * (1 - req)
		dst[counters.PTFlitTot] += f.Flits
		// responses/acks flow back to the source's processor tiles
		src := b.At(f.Src)
		ack := f.Packets // one ack-sized response per packet
		src[counters.PTFlitVC4] += ack
		src[counters.PTFlitTot] += ack
	}

	for _, r := range n.activeRouters {
		flits := n.injFlits[r] + n.ejFlits[r]
		pkts := n.injPkts[r] + n.ejPkts[r]
		if flits == 0 && pkts == 0 {
			continue
		}
		uFlit := (n.injFlits[r] + n.ejFlits[r]) / (2 * injCap)
		uPkt := (n.injPkts[r] + n.ejPkts[r]) / (2 * pktCap)
		// Request-channel stalls are driven by packet processing (small
		// messages); response-channel stalls by bandwidth pressure.
		stallRq := pkts * queueDelay(uPkt) * n.cfg.StallScale
		stallRs := flits * queueDelay(uFlit) * n.cfg.StallScale / n.cfg.FlitsPerPacket
		rc := b.At(r)
		rc[counters.PTRBStlRq] += stallRq
		rc[counters.PTRBStlRs] += stallRs
		rc[counters.PTCBStlRq] += 0.6 * stallRq
		rc[counters.PTCBStlRs] += 0.6 * stallRs
		rc[counters.PTRB2xUsg] += stallRq * clamp1(uPkt)
		// Table II: PT_PKT_TOT is derived as PT_RB_STL_RQ + PT_RB_STL_RS.
		rc[counters.PTPktTot] += stallRq + stallRs
	}
}
