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
// the layout and caching decisions below (flat candidate arenas, epoch-
// scoped path caches, static-split precomputation) together with the
// determinism contract every further optimization must obey: serial,
// parallel, and distributed execution stay byte-identical.
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

	// per-router endpoint state, reused across rounds
	injFlits []float64 // flits injected at each router this round
	ejFlits  []float64 // flits ejected at each router this round
	injPkts  []float64
	ejPkts   []float64

	// routing policy: candidate generation and split weighting are
	// delegated to one routing.Policy per network (SetPolicy switches);
	// staticSplit records that the split is load-independent
	// (routing.StaticWeights), letting Resolve precompute the weights once
	// per run
	policy      routing.Policy
	staticSplit bool
	// fb is the deterministic stall-feedback tracker feeding the
	// "feedback" policy; nil for every other policy
	fb *monitor.StallFeedback

	// path cache: flows between the same router pair recur every step.
	// Keyed per (policy, dead-link signature) epoch — different policies
	// build different candidate sets for the same pair, and the dead-link
	// set is the only fault state that changes candidates — with pathCache
	// aliasing the active epoch's map. Health changes repoint the alias
	// (edge-scoped invalidation) instead of dropping entries, so derate-
	// only fault epochs and previously seen dead sets keep their caches.
	pathCaches map[cacheKey]map[uint64][]routing.Path
	pathCache  map[uint64][]routing.Path
	deadSig    uint64
	// shared is the optional second-level cache pooled across identically
	// seeded Networks (SharePathCache); nil for standalone simulators.
	shared *PathCache

	// loadScratch pools BuildLoadSet's dense accumulators (*loadScratch)
	// across calls and concurrent callers.
	loadScratch sync.Pool

	// reuseSlow lets RunRound reuse one Slowdown buffer across rounds
	// (ReuseSlowdowns) instead of allocating per round.
	reuseSlow   bool
	slowScratch []float64

	// telemetry handles, captured at construction; nil (no-op) when the
	// process runs without telemetry. Observation-only: nothing in the
	// simulation reads them, so results are identical with telemetry on.
	tmCacheHits   *telemetry.Counter
	tmCacheMisses *telemetry.Counter
	tmCacheInval  *telemetry.Counter
	tmRounds      *telemetry.Counter
	tmRoundFlits  *telemetry.Histogram
}

// New creates a network simulator over machine d. The stream drives path
// sampling and must be dedicated to this network.
func New(d *topology.Dragonfly, cfg Config, s *rng.Stream) *Network {
	n := &Network{
		topo:       d,
		eng:        routing.NewEngine(d),
		cfg:        cfg,
		Board:      counters.NewBoard(d.Cfg.NumRouters()),
		s:          s,
		linkLoad:   make([]float64, len(d.Links)),
		linkCap:    make([]float64, len(d.Links)),
		prevLoad:   make([]float64, len(d.Links)),
		bgLoad:     make([]float64, len(d.Links)),
		injFlits:   make([]float64, d.Cfg.NumRouters()),
		ejFlits:    make([]float64, d.Cfg.NumRouters()),
		injPkts:    make([]float64, d.Cfg.NumRouters()),
		ejPkts:     make([]float64, d.Cfg.NumRouters()),
		pathCaches: make(map[cacheKey]map[uint64][]routing.Path),

		tmCacheHits:   telemetry.C(telemetry.MNetsimCacheHits),
		tmCacheMisses: telemetry.C(telemetry.MNetsimCacheMisses),
		tmCacheInval:  telemetry.C(telemetry.MNetsimCacheInval),
		tmRounds:      telemetry.C(telemetry.MNetsimRounds),
		tmRoundFlits:  telemetry.H(telemetry.MNetsimRoundFlits, telemetry.FlitsBuckets),
	}
	n.linkOnList = make([]bool, len(d.Links))
	n.routerOnList = make([]bool, d.Cfg.NumRouters())
	n.fgSeen = make([]bool, len(d.Links))
	n.baseCap = make([]float64, len(d.Links))
	for i, l := range d.Links {
		if l.Type == topology.Blue {
			n.baseCap[i] = cfg.BlueBandwidth
		} else {
			n.baseCap[i] = cfg.LinkBandwidth
		}
	}
	copy(n.linkCap, n.baseCap)
	if err := n.SetPolicy(cfg.PolicyName()); err != nil {
		// configs are validated where they enter the system (cluster.New,
		// the CLIs); by this point an unknown name is a programming error
		panic(err)
	}
	return n
}

// SetPolicy switches the network to the named routing policy. Each
// policy's candidate paths are cached separately, so switching back and
// forth never mixes candidate sets. The "feedback" policy additionally
// attaches a deterministic per-network stall tracker (see
// monitor.StallFeedback), reset per run via ResetFeedback.
func (n *Network) SetPolicy(name string) error {
	pcfg := routing.PolicyConfig{
		MaxMinimal:     n.cfg.MaxMinimal,
		MaxValiant:     n.cfg.MaxValiant,
		NonMinimalBias: n.cfg.NonMinimalBias,
	}
	if name == "feedback" {
		if n.fb == nil {
			n.fb = monitor.NewStallFeedback(n.topo.Cfg.Groups, 0)
		}
		fb := n.fb
		pcfg.GroupStall = func(g topology.GroupID) float64 { return fb.Ratio(int(g)) }
	}
	pol, err := routing.NewPolicy(name, pcfg)
	if err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	n.policy = pol
	n.staticSplit = routing.StaticWeights(pol)
	if name != "feedback" {
		n.fb = nil
	}
	n.repointCache()
	return nil
}

// Policy returns the name of the active routing policy.
func (n *Network) Policy() string { return n.policy.Name() }

// SharePathCache attaches a shared second-level candidate-path cache.
// Local misses consult (and populate) the shared cache before recomputing.
// Only attach the same cache to Networks whose candidate resolution is
// bit-identical — same topology, Config, and seed (see PathCache).
func (n *Network) SharePathCache(c *PathCache) { n.shared = c }

// ResetFeedback clears the stall-feedback state read by the "feedback"
// policy; a no-op under any other policy. Campaign workers call this next
// to Board.Reset before every run, so a run's feedback trajectory — like
// its counters — depends only on the run itself.
func (n *Network) ResetFeedback() {
	if n.fb != nil {
		n.fb.Reset()
	}
}

// repointCache aliases pathCache to the active (policy, dead-set) epoch.
func (n *Network) repointCache() {
	key := cacheKey{policy: n.policy.Name(), sig: n.deadSig}
	cache, ok := n.pathCaches[key]
	if !ok {
		cache = make(map[uint64][]routing.Path)
		n.pathCaches[key] = cache
	}
	n.pathCache = cache
}

// SetLinkHealth applies a fault view to the fabric: each link's capacity
// becomes baseCap · factor(link), links with factor ≤ 0 are dead and are
// avoided by all subsequent route resolution, and the path cache is
// switched to the epoch of the new dead-link set (capacity derating alone
// never changes candidate paths, so epochs with the same dead set — in
// particular, every fault view that kills nothing — share one cache).
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

// setEpoch switches the dead-link cache epoch (no-op if unchanged).
func (n *Network) setEpoch(sig uint64) {
	if sig == n.deadSig {
		return
	}
	n.tmCacheInval.Add(1)
	n.deadSig = sig
	n.repointCache()
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
// a cache hit — local or shared — and a recomputation always return the
// same paths.
func (n *Network) candidates(a, b topology.RouterID) []routing.Path {
	key := pairKey(a, b)
	if p, ok := n.pathCache[key]; ok {
		n.tmCacheHits.Add(1)
		return p
	}
	if n.shared != nil {
		ck := cacheKey{policy: n.policy.Name(), sig: n.deadSig}
		if p, ok := n.shared.lookup(ck, key); ok {
			n.pathCache[key] = p
			return p
		}
		n.tmCacheMisses.Add(1)
		p := n.policy.Candidates(n.eng, a, b, n.s.Split(fmt.Sprintf("pair-%d-%d", a, b)))
		n.pathCache[key] = p
		n.shared.store(ck, key, p)
		return p
	}
	n.tmCacheMisses.Add(1)
	p := n.policy.Candidates(n.eng, a, b, n.s.Split(fmt.Sprintf("pair-%d-%d", a, b)))
	n.pathCache[key] = p
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
// steps, so callers resolve once per run and reuse.
//
// The candidate sets are flattened into one arena — links/pathEnd/hops/
// minimal, flow- then path-major — so the round loop walks dense slices
// instead of chasing [][]Path pointers, and the split weights live in one
// flat buffer (weights). Load-independent policies (routing.StaticWeights)
// have their weights computed once at resolve time; everything else is
// recomputed per relaxation iteration by one policy split call.
type RoutedFlows struct {
	// flat candidate arena: path p of the RoutedFlows spans
	// links[pathEnd[p-1]:pathEnd[p]]; the paths of flow i span
	// pathEnd[flowEnd[i-1]:flowEnd[i]].
	links   []topology.LinkID
	pathEnd []int32
	flowEnd []int32
	hops    []float64 // float64(hop count) per path, for the slowdown divide
	minimal []bool    // Path.Minimal per path
	weights []float64 // split weight per path

	// static records that weights was precomputed at resolve time (the
	// resolving policy's split is load-independent); policy is the name of
	// the policy the flows were resolved under, so a SetPolicy switch
	// after Resolve falls back to per-round splits like it always did.
	static bool
	policy string

	// fgLinks caches the first-touch-ordered, deduplicated link list of
	// the active (Src≠Dst, Flits>0) flows — the per-round "mark foreground
	// links active" walk — revalidated against fgMask because Flits gating
	// can change between rounds.
	fgLinks []topology.LinkID
	fgMask  []bool
	fgBuilt bool
}

// buildRouted resolves candidates for the flows and flattens them into the
// arena layout. healthy selects ResolveHealthy's partition check.
func (n *Network) buildRouted(flows []Flow, healthy bool) (*RoutedFlows, error) {
	r := &RoutedFlows{
		flowEnd: make([]int32, len(flows)),
		policy:  n.policy.Name(),
	}
	resolved := make([][]routing.Path, len(flows))
	nPaths := 0
	nLinks := 0
	for i, f := range flows {
		paths := n.candidates(f.Src, f.Dst)
		if healthy && len(paths) == 0 && f.Src != f.Dst {
			return nil, fmt.Errorf("netsim: flow %d (router %d → %d): %w", i, f.Src, f.Dst, routing.ErrPartitioned)
		}
		resolved[i] = paths
		nPaths += len(paths)
		for _, p := range paths {
			nLinks += len(p.Links)
		}
		r.flowEnd[i] = int32(nPaths)
	}
	r.links = make([]topology.LinkID, 0, nLinks)
	r.pathEnd = make([]int32, 0, nPaths)
	r.hops = make([]float64, 0, nPaths)
	r.minimal = make([]bool, 0, nPaths)
	r.weights = make([]float64, nPaths)
	for _, paths := range resolved {
		for _, p := range paths {
			r.links = append(r.links, p.Links...)
			r.pathEnd = append(r.pathEnd, int32(len(r.links)))
			r.hops = append(r.hops, float64(len(p.Links)))
			r.minimal = append(r.minimal, p.Minimal)
		}
	}
	if n.staticSplit {
		// load-independent split: compute every flow's weights once, here;
		// the round loop never recomputes them
		all := make([]bool, len(flows))
		for i := range all {
			all[i] = true
		}
		n.policy.SplitWeights(n.eng, r.links, r.pathEnd, r.flowEnd, r.minimal, all, n.prevLoad, r.weights)
		r.static = true
	}
	return r, nil
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
	ps, ls := int32(0), int32(0)
	for i := range flows {
		f := &flows[i]
		pe := r.flowEnd[i]
		le := ls
		if pe > ps {
			le = r.pathEnd[pe-1]
		}
		active := f.Src != f.Dst && f.Flits > 0
		r.fgMask[i] = active
		if active {
			// dedup is foreground-internal only: the round loop re-checks
			// linkOnList per link, so background-first touch order — and
			// with it the order-dependent mean-utilization sum — is
			// exactly what the per-flow walk produced
			for _, l := range r.links[ls:le] {
				if !seen[l] {
					seen[l] = true
					r.fgLinks = append(r.fgLinks, l)
				}
			}
		}
		ps, ls = pe, le
	}
	for _, l := range r.fgLinks {
		seen[l] = false
	}
	r.fgBuilt = true
}

// ReuseSlowdowns controls whether RunRound results share one Slowdown
// buffer across rounds. Off (the default) every round allocates a fresh
// slice, so callers may retain results; on, each round overwrites the
// previous round's slice — the campaign workers and benchmarks, which
// consume a result before the next round, turn it on to keep the round
// loop allocation-free.
func (n *Network) ReuseSlowdowns(on bool) { n.reuseSlow = on }

// RunRound simulates `duration` seconds of traffic: the adaptively routed
// foreground flows plus any number of precomputed background footprints
// (production jobs whose routing was fixed at placement). Returns the
// per-flow slowdowns of the foreground flows; counters for all traffic
// accumulate into n.Board.
func (n *Network) RunRound(flows []Flow, background []ScaledLoad, duration float64) Result {
	return n.RunRoundRouted(flows, n.Resolve(flows), background, duration)
}

// RunRoundRouted is RunRound with pre-resolved foreground routes; flows
// must match the list the routes were resolved for pair by pair.
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

	// reset the previous round's active state
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
	invDur := 1 / duration
	for _, l := range n.activeLinks {
		if n.linkCap[l] <= 0 {
			n.prevLoad[l] = deadUtil
			continue
		}
		n.prevLoad[l] = n.bgLoad[l] / n.linkCap[l] * invDur
	}

	n.relax(flows, routed, anyBG, invDur)

	// Final settle: one pass over the active links computes the round's
	// utilizations and the max/mean summary; the mean sums in activeLinks
	// order.
	var res Result
	if n.reuseSlow {
		if cap(n.slowScratch) < len(flows) {
			n.slowScratch = make([]float64, len(flows))
		}
		res.Slowdown = n.slowScratch[:len(flows)]
	} else {
		res.Slowdown = make([]float64, len(flows))
	}
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

	n.slowdowns(flows, routed, duration, res.Slowdown)
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
// scatters the shares onto the links. On return linkLoad holds the final
// iteration's loads; the caller settles the utilizations.
func (n *Network) relax(flows []Flow, routed *RoutedFlows, anyBG bool, invDur float64) {
	rounds := n.cfg.RelaxationRounds
	if rounds < 1 {
		rounds = 1
	}
	// static weights cannot react to load, so every relaxation iteration
	// reproduces the same link loads — one pass is bit-identical to many.
	// routed.static only counts when the flows were resolved (and their
	// weights precomputed) under the policy that's still active.
	static := routed.static && routed.policy == n.policy.Name()
	if static {
		rounds = 1
	}
	linkLoad, bgLoad, prevLoad, linkCap := n.linkLoad, n.bgLoad, n.prevLoad, n.linkCap
	arenaLinks, arenaPathEnd, arenaWeights := routed.links, routed.pathEnd, routed.weights
	flowEnd := routed.flowEnd
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
			n.policy.SplitWeights(n.eng, arenaLinks, arenaPathEnd, flowEnd, routed.minimal, routed.fgMask, prevLoad, arenaWeights)
		}
		// scatter each active flow's shares onto its paths' links
		pathStart, linkStart := int32(0), int32(0)
		for i := range flows {
			f := &flows[i]
			ps, ls := pathStart, linkStart
			pe := flowEnd[i]
			pathStart = pe
			if pe > ps {
				linkStart = arenaPathEnd[pe-1]
			}
			if f.Src == f.Dst || f.Flits <= 0 {
				continue
			}
			start := ls
			for j := ps; j < pe; j++ {
				end := arenaPathEnd[j]
				share := f.Flits * arenaWeights[j]
				if share != 0 {
					if n.anyDead {
						for _, l := range arenaLinks[start:end] {
							if linkCap[l] > 0 { // a dead link carries nothing
								linkLoad[l] += share
							}
						}
					} else {
						for _, l := range arenaLinks[start:end] {
							linkLoad[l] += share
						}
					}
				}
				start = end
			}
		}
		if it < rounds-1 {
			// feed utilizations back for the next iteration; the final
			// iteration's update is fused into RunRoundRouted's settling pass
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
	arenaLinks, arenaPathEnd, arenaWeights := routed.links, routed.pathEnd, routed.weights
	flowEnd, hops := routed.flowEnd, routed.hops
	pathStart, linkStart := int32(0), int32(0)
	for i := range flows {
		f := &flows[i]
		ps, ls := pathStart, linkStart
		pe := flowEnd[i]
		pathStart = pe
		if pe > ps {
			linkStart = arenaPathEnd[pe-1]
		}
		if f.Src == f.Dst || f.Flits <= 0 {
			dst[i] = 1
			continue
		}
		var transit float64
		start := ls
		for j := ps; j < pe; j++ {
			end := arenaPathEnd[j]
			w := arenaWeights[j]
			if w == 0 {
				start = end
				continue
			}
			var pathDelay float64
			for k := start; k < end; k++ {
				pathDelay += queueDelay(util[arenaLinks[k]])
			}
			// normalize by hops so the value is delay per traversed link
			transit += w * pathDelay / hops[j]
			start = end
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

// ResetCache drops every locally cached candidate path across all policies
// and epochs (the shared second-level cache, if attached, is untouched —
// it never goes stale: entries are keyed by the dead-set epoch they were
// resolved under). Call between campaigns if memory is a concern — the
// caches grow with the number of distinct router pairs seen.
func (n *Network) ResetCache() {
	n.tmCacheInval.Add(1)
	for key := range n.pathCaches {
		delete(n.pathCaches, key)
	}
	n.repointCache()
}
