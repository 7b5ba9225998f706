// Package cluster ties the machine together: it builds the dragonfly
// network, generates the production background (package slurm), schedules
// the controlled experiments of §III (1–2 jobs per application per node
// count per day, submitted under User-8), simulates every run step by step
// against the concurrently running jobs, and records the datasets — per-step
// execution times, AriesNCL counter deltas for the job's own routers,
// LDMS-style io/sys features, placement features, and the run neighborhood.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dragonvar/internal/apps"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/engine"
	"dragonvar/internal/faults"
	"dragonvar/internal/monitor"
	"dragonvar/internal/mpi"
	"dragonvar/internal/netsim"
	"dragonvar/internal/rng"
	"dragonvar/internal/routing"
	"dragonvar/internal/slurm"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// Environment variables the CLI layer consults for policy defaults, the
// same convention as engine.EnvWorkers. Resolved by the CLIs only — never
// inside withDefaults, so a distributed worker with a different
// environment cannot silently diverge from its coordinator.
const (
	EnvRouting   = "DRAGONVAR_ROUTING"
	EnvPlacement = "DRAGONVAR_PLACEMENT"
)

// Config parameterizes a campaign.
type Config struct {
	Machine topology.Config // defaults to topology.Cori()
	Net     netsim.Config   // defaults to netsim.DefaultConfig()
	Days    float64         // campaign length; the paper ran ~130 days
	Seed    int64
	Models  []*apps.Model // defaults to apps.Registry()
	Users   []*slurm.User // defaults to slurm.Roster()

	// MeanRunsPerDay is the per-dataset submission rate (paper: 1–2/day).
	MeanRunsPerDay float64
	// CounterNoise is the relative measurement noise applied to recorded
	// counter deltas. Default 0.04: per-step counter reads are noisy
	// estimates of congestion, so longer histories (larger m) average
	// toward the true level — the §V-C temporal-context effect.
	CounterNoise float64
	// FaultSpec is a faults.Parse spec string ("links=3,dropouts=2", ...).
	// Empty means a perfect machine. The schedule is derived
	// deterministically from Seed, so a faulted campaign reproduces.
	FaultSpec string
	// Placement names the placement policy deciding where jobs land
	// ("firstfit", "compact", "interference" — see
	// slurm.PlacementPolicyNames). Empty means "firstfit", the historical
	// behavior. Like Net.Routing it is part of the campaign's cache
	// identity.
	Placement string
	// BlamedUsers is the advisor's blame list (advisor.Advisor.Blamed):
	// background users whose presence predicts interference. Only the
	// "interference" placement policy reads it — jobs of blamed users
	// weigh double in the expected-load view placements avoid.
	BlamedUsers []string
	// Workers is the number of runs simulated concurrently by RunCampaign
	// (0 means engine.Workers: $DRAGONVAR_WORKERS or GOMAXPROCS). Every
	// worker count produces byte-identical campaigns; Workers only changes
	// wall-clock time.
	Workers int
	// Progress, when non-nil, receives (completed, total) after each run.
	Progress func(done, total int)
	// Monitor, when non-nil, receives every simulated round's per-router
	// counter deltas (and dropout markers) as they are produced — the live
	// feed of the streaming monitor (internal/monitor implements this).
	// Strictly observation-only: the campaign result is byte-identical
	// with or without a monitor attached. In a parallel campaign the
	// observer is called concurrently from worker goroutines, and rounds
	// of different runs interleave out of time order — implementations
	// must lock, and must not infer sampler gaps from timestamp jumps.
	Monitor RoundObserver
	// OnRunMerged, when non-nil, receives every completed run during the
	// serial merge phase, in deterministic (round, plan) order, with
	// RunID and Requeues already final — the streaming ingest feed of the
	// retraining daemon (internal/daemon). Called from the single merge
	// goroutine, never concurrently. Strictly observation-only like
	// Monitor: the campaign result is byte-identical with or without the
	// hook, and the *Run is the campaign's own object (treat as
	// read-only).
	OnRunMerged func(run *dataset.Run)
}

// RoundObserver is the live monitoring hook of a campaign. ObserveRound
// receives one round's per-router counter deltas over dt seconds, laid out
// router-major with LDMSSeriesPerRouter series per router (the layout of
// counters.Board.DeltaInto with the LDMS source list); the slice is scratch
// reused between calls, so implementations must copy what they keep.
// ObserveMissing reports a round whose counter reads fell in a sampler
// dropout window.
type RoundObserver interface {
	ObserveRound(t, dt float64, deltas []float64)
	ObserveMissing(t float64)
}

func (c Config) withDefaults() Config {
	if c.Machine.Groups == 0 {
		c.Machine = topology.Cori()
	}
	if c.Net.LinkBandwidth == 0 {
		// a policy choice rides along even when the physical constants
		// default (the CLIs set only Net.Routing)
		rt, bias := c.Net.Routing, c.Net.NonMinimalBias
		c.Net = netsim.DefaultConfig()
		c.Net.Routing, c.Net.NonMinimalBias = rt, bias
	}
	if c.Placement == "" {
		c.Placement = "firstfit"
	}
	if c.Days <= 0 {
		c.Days = 130
	}
	if c.Models == nil {
		c.Models = apps.Registry()
	}
	if c.Users == nil {
		c.Users = slurm.Roster()
	}
	if c.MeanRunsPerDay <= 0 {
		c.MeanRunsPerDay = 1.65
	}
	if c.CounterNoise == 0 {
		c.CounterNoise = 0.04
	}
	return c
}

// EffectivePolicies returns the routing and placement policy names the
// campaign will run under after defaulting — the values recorded in the
// campaign's cache identity (dataset.Campaign.Routing / .Placement).
func (c Config) EffectivePolicies() (routingPolicy, placementPolicy string) {
	c = c.withDefaults()
	return c.Net.PolicyName(), c.Placement
}

// Cluster is a wired machine with its background workload, ready to run
// controlled experiments.
type Cluster struct {
	cfg      Config
	Topo     *topology.Dragonfly
	Net      *netsim.Network
	Timeline *slurm.Timeline
	// Faults is the campaign's fault schedule; nil for a perfect machine.
	Faults *faults.Schedule

	root     *rng.Stream
	curEpoch int // fault epoch currently applied to Net

	// pathCache is the campaign-wide shared candidate-path cache. Every
	// network of this cluster (Net and the per-worker networks) is split
	// from the same root with the same label, so their candidate
	// resolution is bit-identical and they can safely pool resolved
	// paths: a pair any of them resolves is resolved once per
	// (policy, dead-set) epoch for the whole campaign instead of once
	// per worker.
	pathCache *netsim.PathCache

	// placer decides where controlled runs land; blamed is the advisor
	// blame list as a set (read only by the interference-aware policy).
	placer slurm.PlacementPolicy
	blamed map[string]bool

	tm clusterMetrics
}

// clusterMetrics bundles the campaign driver's telemetry handles, captured
// once in New. All handles are nil (no-op) when telemetry is disabled, and
// observation-only either way: no simulation decision reads them.
type clusterMetrics struct {
	runs        *telemetry.Counter
	drained     *telemetry.Counter
	requeues    *telemetry.Counter
	abandoned   *telemetry.Counter
	rounds      *telemetry.Counter
	runSecs     *telemetry.Histogram
	mergeSecs   *telemetry.Histogram
	ldms        *telemetry.Counter
	placements  *telemetry.Counter
	placeNodes  *telemetry.Histogram
	placeGroups *telemetry.Histogram
}

func newClusterMetrics() clusterMetrics {
	return clusterMetrics{
		runs:        telemetry.C(telemetry.MClusterRuns),
		drained:     telemetry.C(telemetry.MClusterDrained),
		requeues:    telemetry.C(telemetry.MClusterRequeues),
		abandoned:   telemetry.C(telemetry.MClusterAbandoned),
		rounds:      telemetry.C(telemetry.MClusterRounds),
		runSecs:     telemetry.H(telemetry.MClusterRunSecs, telemetry.SecondsBuckets),
		mergeSecs:   telemetry.H(telemetry.MClusterMergeSecs, telemetry.SecondsBuckets),
		ldms:        telemetry.C(telemetry.MLDMSSamples),
		placements:  telemetry.C(telemetry.MSlurmPlacements),
		placeNodes:  telemetry.H(telemetry.MSlurmPlacementNodes, telemetry.CountBuckets),
		placeGroups: telemetry.H(telemetry.MSlurmPlacementGroups, telemetry.CountBuckets),
	}
}

// New builds the machine, derives the fault schedule, and generates the
// (fault-aware) background timeline.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	topo, err := topology.New(cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sched, err := faults.Parse(cfg.FaultSpec, topo, cfg.Days*86400, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if sched == nil {
		// "none" and "" both mean a perfect machine; normalize so the
		// campaign's cache identity doesn't depend on the spelling
		cfg.FaultSpec = ""
	}
	if !routing.ValidPolicy(cfg.Net.PolicyName()) {
		return nil, fmt.Errorf("cluster: unknown routing policy %q (have %v)", cfg.Net.PolicyName(), routing.PolicyNames())
	}
	placer, err := slurm.NewPlacementPolicy(cfg.Placement)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	var blamed map[string]bool
	if len(cfg.BlamedUsers) > 0 {
		blamed = make(map[string]bool, len(cfg.BlamedUsers))
		for _, u := range cfg.BlamedUsers {
			blamed[u] = true
		}
	}
	root := rng.New(cfg.Seed)
	shared := netsim.NewPathCache()
	net := netsim.New(topo, cfg.Net, root.Split("netsim"))
	net.SharePathCache(shared)
	tl := slurm.Generate(net, slurm.GenerateConfig{Days: cfg.Days, Users: cfg.Users, Faults: sched, Workers: cfg.Workers},
		root.Split("timeline"))
	return &Cluster{cfg: cfg, Topo: topo, Net: net, Timeline: tl, Faults: sched, root: root, curEpoch: -1,
		pathCache: shared, placer: placer, blamed: blamed, tm: newClusterMetrics()}, nil
}

// applyFaultsTo derates net to the fault state at time t, tracking the
// currently applied epoch in *curEpoch. Returns true when the fault epoch
// changed (cached routes are then stale and the caller must re-resolve).
// The resulting network state depends only on t's epoch, never on the
// sequence of epochs applied before — which is what lets independently
// seeded per-worker networks visit runs in any order.
func (c *Cluster) applyFaultsTo(net *netsim.Network, curEpoch *int, t float64) bool {
	if c.Faults == nil {
		return false
	}
	e := c.Faults.Epoch(t)
	if e == *curEpoch {
		return false
	}
	*curEpoch = e
	v := c.Faults.ViewAt(t)
	if v.Clean() {
		net.SetLinkHealth(nil)
	} else {
		net.SetLinkHealth(v.LinkFactor)
	}
	return true
}

// applyFaultsAt derates the cluster's shared network (used by the LDMS
// replay) to the fault state at time t.
func (c *Cluster) applyFaultsAt(t float64) bool {
	return c.applyFaultsTo(c.Net, &c.curEpoch, t)
}

// simWorker is the per-worker simulation context of a parallel campaign.
// Each worker owns a private Network split from the same root with the same
// label, so all workers' networks are identically seeded; combined with
// per-pair path sampling (netsim) and a counter-board reset before every
// run, a run's result depends only on its plan — not on which worker
// simulates it or what that worker simulated before.
type simWorker struct {
	c          *Cluster
	net        *netsim.Network
	curEpoch   int
	sysRouters []topology.RouterID // scratch, reused per run
	mineMask   []bool              // scratch: the run's own-router set
	before     *counters.Board     // scratch snapshot, reused per step
	monDeltas  []float64           // scratch for the Monitor feed; nil when unmonitored
}

func (c *Cluster) newSimWorker() *simWorker {
	w := &simWorker{
		c:        c,
		net:      netsim.New(c.Topo, c.cfg.Net, c.root.Split("netsim")),
		curEpoch: -1,
		mineMask: make([]bool, c.Topo.Cfg.NumRouters()),
		before:   counters.NewBoard(c.Topo.Cfg.NumRouters()),
	}
	// workers pool resolved candidate paths (identically seeded networks)
	// and consume each round's slowdowns before the next, so the shared
	// cache and the reused slowdown buffer are both safe
	w.net.SharePathCache(c.pathCache)
	w.net.ReuseSlowdowns(true)
	if c.cfg.Monitor != nil {
		w.monDeltas = make([]float64, c.Topo.Cfg.NumRouters()*LDMSSeriesPerRouter)
	}
	return w
}

// drainError aborts a simulated run whose nodes were lost to a drain,
// router failure, or partition at campaign time at.
type drainError struct{ at float64 }

func (e drainError) Error() string {
	return fmt.Sprintf("cluster: nodes lost to a fault at t=%v", e.at)
}

// requeueLimit bounds how many times one controlled run is requeued after
// losing its nodes to a fault.
const requeueLimit = 3

// plan is one scheduled controlled run.
type plan struct {
	model  *apps.Model
	day    int
	start  float64
	estEnd float64
	nodes  []topology.NodeID
	// approximate unit footprint (flits/s) used when this run appears in
	// the background of another of our runs
	footprint *netsim.LoadSet
	// pat is the placement's prebuilt traffic pattern (apps.BuildPattern),
	// shared by the footprint estimate and the run simulation — pattern
	// expansion is deterministic given the node list, so it is built once
	// per placement instead of once per consumer. Reset whenever nodes
	// change (requeue). Written by the plan's owning worker or the serial
	// driver, never read across plans, so no locking is needed.
	pat *apps.BuiltPattern
	// requeues counts how often this submission lost its nodes to a fault
	// and was resubmitted
	requeues int
}

// planPattern returns the plan's traffic pattern, building and caching it
// on first use.
func (c *Cluster) planPattern(p *plan) (*apps.BuiltPattern, error) {
	if p.pat == nil {
		bp, err := p.model.BuildPattern(c.Topo, p.nodes)
		if err != nil {
			return nil, err
		}
		p.pat = bp
	}
	return p.pat, nil
}

// UnitOutcome is the result of executing one work unit (one plan index):
// either a completed run, or a drain marker saying the run lost its nodes
// to a fault at DrainAt (the requeue decision is the campaign driver's, not
// the executor's). The zero value means "never executed" — the driver
// skips it, which only happens on cancellation.
type UnitOutcome struct {
	Run     *dataset.Run
	Drained bool
	DrainAt float64
}

// PlanOverride captures the mutable state of a requeued plan — the new
// submission window, the new allocation, and the requeue count — so a
// remote process holding the same deterministic schedule can reproduce the
// campaign driver's plan list exactly. Overrides accumulate monotonically
// over a campaign; Requeues orders overrides for the same unit.
type PlanOverride struct {
	Unit     int               `json:"unit"`
	Start    float64           `json:"start"`
	EstEnd   float64           `json:"est_end"`
	Nodes    []topology.NodeID `json:"nodes"`
	Requeues int               `json:"requeues"`
}

// UnitExecutor simulates one campaign round. ExecuteRound must return one
// outcome per entry of pending (outs[k] belongs to pending[k]); overrides
// is the accumulated requeue state remote executors need to mirror the
// driver's plan list (the in-process executor ignores it — its plans are
// the driver's); completed is the thread-safe progress tick to call once
// per successfully simulated unit. On error the partial outcome slice is
// still honored: units with a non-zero outcome are merged.
//
// The campaign driver calls ExecuteRound serially — rounds are barriers —
// so an implementation never sees two rounds in flight.
type UnitExecutor interface {
	ExecuteRound(ctx context.Context, pending []int, overrides []PlanOverride, completed func()) ([]UnitOutcome, error)
}

// localExecutor is the in-process UnitExecutor: pending units are sharded
// across a bounded pool of simulation workers via the engine.
type localExecutor struct {
	c     *Cluster
	plans []*plan
	sws   []*simWorker
}

func (e *localExecutor) ExecuteRound(ctx context.Context, pending []int, _ []PlanOverride, completed func()) ([]UnitOutcome, error) {
	c := e.c
	outs := make([]UnitOutcome, len(pending))
	err := engine.Map(ctx, len(e.sws), len(pending), func(_ context.Context, wkr, k int) error {
		if e.sws[wkr] == nil {
			e.sws[wkr] = c.newSimWorker()
		}
		i := pending[k]
		simStart := time.Now()
		run, err := e.sws[wkr].simulate(e.plans[i], e.plans, i)
		c.tm.runSecs.ObserveSince(simStart)
		var de drainError
		if errors.As(err, &de) {
			c.tm.drained.Add(1)
			outs[k] = UnitOutcome{Drained: true, DrainAt: de.at}
			return nil
		}
		if err != nil {
			return err
		}
		c.tm.runs.Add(1)
		outs[k] = UnitOutcome{Run: run}
		completed()
		return nil
	})
	return outs, err
}

// RunCampaign schedules and simulates the full controlled experiment
// campaign and returns the datasets.
func (c *Cluster) RunCampaign() (*dataset.Campaign, error) {
	return c.RunCampaignCtx(context.Background())
}

// RunCampaignCtx is RunCampaign with cancellation: runs are sharded across
// cfg.Workers simulation workers, and on context cancellation the campaign
// returns early with Partial set alongside ctx's error, carrying every run
// that completed before the cancel (so callers can flush a usable partial
// dataset instead of losing the work).
//
// Execution proceeds in rounds: all pending runs are simulated in parallel
// against a frozen plan list, then — serially, in plan order — runs that
// lost their nodes to a fault are requeued with a deterministic backoff,
// like slurm --requeue would, and the next round simulates only those.
// Plans are never mutated while a round is in flight, so every worker count
// produces byte-identical campaigns.
func (c *Cluster) RunCampaignCtx(ctx context.Context) (*dataset.Campaign, error) {
	workers := engine.Workers(c.cfg.Workers)
	return c.runCampaign(ctx, func(plans []*plan) UnitExecutor {
		return &localExecutor{c: c, plans: plans, sws: make([]*simWorker, workers)}
	})
}

// RunCampaignWith runs the campaign through an external unit executor —
// the entry point of the distributed layer (internal/dist): the campaign
// driver (scheduling, round barriers, requeue decisions, deterministic
// merge) stays in this process while exec ships units elsewhere. Because
// units are merged in plan order and requeue decisions are made serially
// from unit outcomes alone, any executor that returns correct outcomes
// yields a campaign byte-identical to RunCampaignCtx.
func (c *Cluster) RunCampaignWith(ctx context.Context, exec UnitExecutor) (*dataset.Campaign, error) {
	return c.runCampaign(ctx, func([]*plan) UnitExecutor { return exec })
}

func (c *Cluster) runCampaign(ctx context.Context, mkExec func(plans []*plan) UnitExecutor) (*dataset.Campaign, error) {
	cfg := c.cfg
	ctx, campSpan := telemetry.Start(ctx, telemetry.SpanCampaign)
	defer campSpan.End()
	_, schedSpan := telemetry.Start(ctx, telemetry.SpanCampaignSchedule)
	plans, err := c.schedule()
	schedSpan.End()
	if err != nil {
		return nil, err
	}
	exec := mkExec(plans)

	camp := &dataset.Campaign{
		Seed: cfg.Seed, Days: cfg.Days, Faults: cfg.FaultSpec,
		Routing: cfg.Net.PolicyName(), Placement: cfg.Placement,
	}
	byName := map[string]*dataset.Dataset{}
	for _, m := range cfg.Models {
		ds := &dataset.Dataset{Name: m.Name(), App: m.App.String(), Nodes: m.Nodes}
		byName[m.Name()] = ds
		camp.Datasets = append(camp.Datasets, ds)
	}

	results := make([]*dataset.Run, len(plans))
	var mu sync.Mutex
	done := 0
	progress := func() {
		if cfg.Progress == nil {
			return
		}
		mu.Lock()
		done++
		cfg.Progress(done, len(plans))
		mu.Unlock()
	}

	var overrides []PlanOverride
	pending := make([]int, len(plans))
	for i := range pending {
		pending[i] = i
	}
	var runErr error
	for len(pending) > 0 && runErr == nil {
		roundCtx, roundSpan := telemetry.Start(ctx, telemetry.SpanCampaignRound)
		c.tm.rounds.Add(1)
		// the round-span context travels into the executor so a distributed
		// executor can parent per-unit lease spans under the round
		outs, roundErr := exec.ExecuteRound(roundCtx, pending, overrides, progress)
		if len(outs) < len(pending) {
			// a misbehaving executor returned a short slice; treat the
			// missing tail as never-executed
			outs = append(outs, make([]UnitOutcome, len(pending)-len(outs))...)
		}

		// merge the round and decide requeues serially, in plan order
		mergeStart := time.Now()
		var next []int
		for k, i := range pending {
			o := outs[k]
			if o.Run != nil {
				results[i] = o.Run
				if cfg.OnRunMerged != nil {
					// stamp the identity fields now (the fixup loop below
					// re-derives the same values) so the hook observes the
					// run exactly as the final campaign will carry it
					o.Run.RunID = i
					o.Run.Requeues = plans[i].requeues
					cfg.OnRunMerged(o.Run)
				}
				continue
			}
			if roundErr != nil || !o.Drained {
				continue // cancelled before this run executed
			}
			// the run lost its nodes mid-flight; requeue the submission
			// after a deterministic backoff, like slurm --requeue would
			p := plans[i]
			if p.requeues < requeueLimit {
				p.requeues++
				rs := c.root.Split(fmt.Sprintf("requeue-%d-%d", i, p.requeues))
				est := p.estEnd - p.start
				p.start = o.DrainAt + 900*math.Pow(2, float64(p.requeues-1))
				p.estEnd = p.start + est
				p.nodes = nil
				p.pat = nil // pattern follows the placement
				if c.place(p, plans, i, rs) {
					p.footprint = c.planFootprint(p)
					c.tm.requeues.Add(1)
					overrides = append(overrides, PlanOverride{
						Unit:     i,
						Start:    p.start,
						EstEnd:   p.estEnd,
						Nodes:    append([]topology.NodeID(nil), p.nodes...),
						Requeues: p.requeues,
					})
					next = append(next, i) // retry at the new slot next round
					continue
				}
			}
			// gave up: the submission never completes and records no run
			c.tm.abandoned.Add(1)
			progress()
		}
		c.tm.mergeSecs.ObserveSince(mergeStart)
		roundSpan.End()
		pending = next
		runErr = roundErr
	}

	for i, run := range results {
		if run == nil {
			continue
		}
		run.RunID = i
		run.Requeues = plans[i].requeues
		byName[plans[i].model.Name()].Runs = append(byName[plans[i].model.Name()].Runs, run)
	}
	if runErr != nil {
		camp.Partial = true
		return camp, runErr
	}
	return camp, nil
}

// schedule decides submission times and placements for every controlled
// run, avoiding both background jobs and our own overlapping runs.
func (c *Cluster) schedule() ([]*plan, error) {
	cfg := c.cfg
	s := c.root.Split("schedule")
	var plans []*plan
	for day := 0; day < int(cfg.Days); day++ {
		for _, m := range cfg.Models {
			count := 1
			if s.Float64() < cfg.MeanRunsPerDay-1 {
				count = 2
			}
			for i := 0; i < count; i++ {
				// submissions go out in daily batches (the paper submitted
				// from a script), so controlled runs naturally cluster and
				// sometimes overlap each other — the User-8 effect
				batch := []float64{9 * 3600, 15 * 3600}
				submit := float64(day)*86400 + batch[s.Intn(len(batch))] + s.Uniform(0, 1800)
				wait := s.Exp(3600) // queue wait decided by the scheduler
				start := submit + wait
				est := m.TotalBaseTime() * 1.8
				if start+est > c.Timeline.Horizon() {
					continue
				}
				plans = append(plans, &plan{model: m, day: day, start: start, estEnd: start + est})
			}
		}
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].start < plans[j].start })

	// place in start order; when the machine is full, the job waits in the
	// queue and retries later (like a real submission would)
	for i, p := range plans {
		if !c.place(p, plans, i, s) {
			continue // gave up on this submission
		}
		p.footprint = c.planFootprint(p)
	}
	// drop unplaced plans
	placed := plans[:0]
	for _, p := range plans {
		if p.nodes != nil {
			placed = append(placed, p)
		}
	}
	return placed, nil
}

// place allocates nodes for one controlled run, avoiding background jobs,
// other controlled runs, Haswell nodes, and currently drained nodes. When
// the machine is full the submission waits in the queue and retries; false
// means it gave up (or ran off the end of the campaign). Sets p.nodes.
func (c *Cluster) place(p *plan, plans []*plan, self int, s *rng.Stream) bool {
	est := p.estEnd - p.start
	haswell := c.Topo.ComputeNodes(topology.Haswell)
	for try := 0; try < 6; try++ {
		if p.estEnd > c.Timeline.Horizon() {
			return false
		}
		busy := c.Timeline.BusyNodesAt(p.start, p.estEnd)
		// our jobs run on KNL nodes only (§II-A)
		for _, n := range haswell {
			busy[n] = true
		}
		// the scheduler sees the drain list at submission time but cannot
		// foresee future drains — those still kill runs mid-flight
		for n := range c.Faults.DrainedNodes(p.start) {
			busy[n] = true
		}
		for j, q := range plans {
			if j != self && q.nodes != nil && q.start < p.estEnd && q.estEnd > p.start {
				for _, n := range q.nodes {
					busy[n] = true
				}
			}
		}
		alloc := slurm.NewAllocator(c.Topo)
		compact := s.Uniform(0.05, 0.95)
		advise := func() *slurm.PlacementAdvice { return c.placementAdvice(p, plans, self) }
		p.nodes = c.placer.Place(alloc, p.model.Nodes, compact, busy, advise, s)
		if p.nodes != nil {
			c.tm.placements.Add(1)
			_, ng := slurm.PlacementFeatures(c.Topo, p.nodes)
			c.tm.placeNodes.Observe(float64(len(p.nodes)))
			c.tm.placeGroups.Observe(float64(ng))
			return true
		}
		p.start += s.Uniform(1800, 7200)
		p.estEnd = p.start + est
	}
	return false
}

// placementAdvice builds the deterministic congestion view the
// interference-aware placement policy consults: expected per-group load
// over the plan's window from the background timeline (advisor-blamed
// users' jobs weigh double) plus our own overlapping runs' footprints,
// with the monitor's cross-sectional hot-spot criterion flagging outlier
// groups. Everything derives from schedule state — the live monitor feed
// is observation-only by contract and is never read here.
func (c *Cluster) placementAdvice(p *plan, plans []*plan, self int) *slurm.PlacementAdvice {
	adv := &slurm.PlacementAdvice{GroupLoad: make([]float64, c.Topo.Cfg.Groups)}
	addSet := func(set *netsim.LoadSet, w float64) {
		if set == nil {
			return
		}
		for i, r := range set.RouterIDs {
			adv.GroupLoad[c.Topo.Group(r)] += (set.InjFlits[i] + set.EjFlits[i]) * w
		}
	}
	for _, j := range c.Timeline.Overlapping(p.start, p.estEnd) {
		w := 1.0
		if c.blamed[j.User.Name()] {
			w = 2
			adv.BlamedActive = true
		}
		addSet(j.Load, w)
	}
	for i, q := range plans {
		if i != self && q.nodes != nil && q.start < p.estEnd && q.estEnd > p.start {
			addSet(q.footprint, 1)
		}
	}
	// hotZ 1.5: with ~10 groups a full 3-sigma outlier (the monitor's
	// per-router default) almost never appears in a cross-section this
	// small; 1.5 flags the clearly-loaded tail without emptying the pool
	if hot := monitor.CrossSectionHot(adv.GroupLoad, 1.5); len(hot) > 0 {
		adv.HotGroups = make(map[topology.GroupID]bool, len(hot))
		for _, g := range hot {
			adv.HotGroups[topology.GroupID(g)] = true
		}
	}
	return adv
}

// planFootprint builds the unit (per-second) footprint used when this run
// is background for another of our runs.
func (c *Cluster) planFootprint(p *plan) *netsim.LoadSet {
	bp, err := c.planPattern(p)
	if err != nil {
		return nil
	}
	inst := p.model.InstantiateWith(bp, rng.New(1))
	// average step volume over the run, converted to per-second rates
	total := p.model.TotalBaseTime()
	var flows []netsim.Flow
	flows = inst.StepFlows(p.model.Steps/2, flows)
	scale := 1.0
	if total > 0 {
		scale = float64(p.model.Steps) / total // steps per second
	}
	for i := range flows {
		flows[i].Flits *= scale
		flows[i].Packets *= scale
	}
	return c.Net.BuildLoadSet(flows)
}

// simulate runs one controlled experiment step by step on this worker's
// private network. The board is reset first so the run's counter deltas are
// exact regardless of what the worker simulated before.
func (w *simWorker) simulate(p *plan, plans []*plan, self int) (*dataset.Run, error) {
	c := w.c
	cfg := c.cfg
	w.net.Board.Reset()
	w.net.ResetFeedback()
	runStream := c.root.Split(fmt.Sprintf("run-%d", self))
	bp, err := c.planPattern(p)
	if err != nil {
		return nil, err
	}
	// InstantiateWith consumes the same single draw Instantiate would, so
	// the run's noise trajectory is unchanged by the pattern reuse
	inst := p.model.InstantiateWith(bp, runStream.Split("inst"))
	mine := inst.Routers()
	nr, ng := slurm.PlacementFeatures(c.Topo, p.nodes)

	run := &dataset.Run{
		Dataset:    p.model.Name(),
		Start:      p.start,
		Day:        p.day,
		NumRouters: nr,
		NumGroups:  ng,
		StepTimes:  make([]float64, 0, p.model.Steps),
		Compute:    make([]float64, 0, p.model.Steps),
		Counters:   make([][counters.NumJob]float64, 0, p.model.Steps),
		IO:         make([][counters.NumLDMS]float64, 0, p.model.Steps),
		Sys:        make([][counters.NumLDMS]float64, 0, p.model.Steps),
		Missing:    make([]bool, 0, p.model.Steps),
	}

	// sys routers: every router not directly connected to our job
	for _, r := range mine {
		w.mineMask[r] = true
	}
	w.sysRouters = w.sysRouters[:0]
	for r := 0; r < c.Topo.Cfg.NumRouters(); r++ {
		if !w.mineMask[r] {
			w.sysRouters = append(w.sysRouters, topology.RouterID(r))
		}
	}
	for _, r := range mine {
		w.mineMask[r] = false
	}
	ioRouters := c.Topo.IORouters()

	// background candidates for the whole run window
	bgJobs := c.Timeline.Overlapping(p.start, p.estEnd)
	var ownBg []*plan
	for j, q := range plans {
		if j != self && q.nodes != nil && q.footprint != nil &&
			q.start < p.estEnd && q.estEnd > p.start {
			ownBg = append(ownBg, q)
		}
	}

	noise := runStream.Split("counter-noise")
	t := p.start
	var flows []netsim.Flow
	var scaled []netsim.ScaledLoad
	before := w.before
	// the flow pair list is fixed for the whole run; resolve routes once
	// per fault epoch (link failures invalidate cached candidate paths)
	c.applyFaultsTo(w.net, &w.curEpoch, t)
	flows = inst.StepFlows(0, flows[:0])
	routed, err := w.net.ResolveHealthy(flows)
	if err != nil {
		// our routers are partitioned off; the job cannot start here
		return nil, drainError{at: t}
	}
	for step := 0; step < p.model.Steps; step++ {
		dur := inst.StepDuration(step)
		if c.Faults != nil {
			// a drain or router failure on our nodes kills the run
			if tf, failed := c.Faults.FirstFailure(mine, t, t+dur); failed {
				return nil, drainError{at: tf}
			}
			if c.applyFaultsTo(w.net, &w.curEpoch, t) {
				// the pair list is identical across steps, so the stale
				// flows slice still has the right endpoints to re-resolve
				if routed, err = w.net.ResolveHealthy(flows); err != nil {
					return nil, drainError{at: t}
				}
			}
		}
		flows = inst.StepFlows(step, flows[:0])

		scaled = scaled[:0]
		for _, j := range bgJobs {
			if j.Overlaps(t, t+dur) {
				if sl := j.ScaledLoadAt(t, dur); sl.Scale > 0 {
					scaled = append(scaled, sl)
				}
			}
		}
		for _, q := range ownBg {
			if q.start < t+dur && q.estEnd > t {
				scaled = append(scaled, netsim.ScaledLoad{Set: q.footprint, Scale: dur})
			}
		}

		w.net.Board.SnapshotInto(before)
		res := w.net.RunRoundRouted(flows, routed, scaled, dur)

		// volume-weighted slowdown over our flows
		var wsum, wt float64
		for i, f := range flows {
			wsum += res.Slowdown[i] * f.Flits
			wt += f.Flits
		}
		slowdown := 1.0
		if wt > 0 {
			slowdown = wsum / wt
		}
		stepRes := inst.StepTime(step, slowdown, runStream)

		// record observations with measurement noise
		delta := w.net.Board.DeltaSum(before, mine)
		var rec [counters.NumJob]float64
		for ci := 0; ci < counters.NumJob; ci++ {
			rec[ci] = delta[ci] * (1 + cfg.CounterNoise*noise.NormFloat64())
		}
		io := w.net.Board.LDMSSample(before, ioRouters)
		sys := w.net.Board.LDMSSample(before, w.sysRouters)
		for i := range io {
			io[i] *= 1 + cfg.CounterNoise*noise.NormFloat64()
			sys[i] *= 1 + cfg.CounterNoise*noise.NormFloat64()
		}

		// a sampler dropout loses this step's observations — the run still
		// executed (step time is known from the job log), but the counter
		// read is explicitly missing, not zero
		missing := c.Faults.DropoutOverlaps(t, t+stepRes.Total)
		if missing {
			for ci := range rec {
				rec[ci] = counters.Missing()
			}
			for i := range io {
				io[i] = counters.Missing()
				sys[i] = counters.Missing()
			}
		}

		// live monitor feed: the round's raw (noise-free) per-router
		// deltas, or the dropout marker — observation-only by contract
		if mon := cfg.Monitor; mon != nil {
			if missing {
				mon.ObserveMissing(t)
			} else {
				w.net.Board.DeltaInto(before, ldmsSources[:], w.monDeltas)
				mon.ObserveRound(t, dur, w.monDeltas)
			}
		}

		run.StepTimes = append(run.StepTimes, stepRes.Total)
		run.Compute = append(run.Compute, stepRes.Compute)
		run.Counters = append(run.Counters, rec)
		run.IO = append(run.IO, io)
		run.Sys = append(run.Sys, sys)
		run.Missing = append(run.Missing, missing)
		run.Profile.Add(&stepRes.MPI)

		t += stepRes.Total
	}

	// neighborhood: background users plus our own overlapping runs (User-8)
	run.Neighbors = c.neighbors(p, plans, self, t)
	return run, nil
}

// neighbors lists every user with a job overlapping the run's actual
// execution window, with the largest overlapping job size.
func (c *Cluster) neighbors(p *plan, plans []*plan, self int, end float64) []dataset.NeighborJob {
	maxNodes := map[string]int{}
	for _, j := range c.Timeline.Overlapping(p.start, end) {
		name := j.User.Name()
		if len(j.Nodes) > maxNodes[name] {
			maxNodes[name] = len(j.Nodes)
		}
	}
	selfName := fmt.Sprintf("User-%d", slurm.SelfUserID)
	for j, q := range plans {
		if j == self || q.nodes == nil {
			continue
		}
		if q.start < end && q.estEnd > p.start {
			if len(q.nodes) > maxNodes[selfName] {
				maxNodes[selfName] = len(q.nodes)
			}
		}
	}
	var names []string
	for name := range maxNodes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]dataset.NeighborJob, 0, len(names))
	for _, name := range names {
		out = append(out, dataset.NeighborJob{User: name, MaxNodes: maxNodes[name]})
	}
	return out
}

// SimulateAt simulates a single job of the given model (with an overridden
// step count when steps > 0) against the background timeline only,
// starting at or near the given campaign time. compactLo/compactHi bound
// the allocation compactness drawn for the placement. When the machine is
// full, the job waits in the queue and retries, like any production
// submission.
func (c *Cluster) SimulateAt(model *apps.Model, steps int, start, compactLo, compactHi float64, seed int64) (*dataset.Run, error) {
	job := *model
	if steps > 0 {
		job.Steps = steps
	}
	p := &plan{model: &job, start: start, estEnd: start + job.TotalBaseTime()*1.8}
	s := rng.New(seed)
	est := p.estEnd - p.start
	for try := 0; try < 64 && p.nodes == nil; try++ {
		busy := c.Timeline.BusyNodesAt(p.start, p.estEnd)
		for _, n := range c.Topo.ComputeNodes(topology.Haswell) {
			busy[n] = true
		}
		alloc := slurm.NewAllocator(c.Topo)
		p.nodes = alloc.AllocAvoiding(job.Nodes, s.Uniform(compactLo, compactHi), busy, s)
		if p.nodes == nil {
			// queue wait, like any production submission
			p.start += s.Uniform(1800, 7200)
			p.estEnd = p.start + est
		}
	}
	if p.nodes == nil {
		return nil, fmt.Errorf("cluster: no room for %s near t=%v", job.Name(), start)
	}
	// a fresh worker context keeps one-off simulations independent of (and
	// safe to run concurrently with) any other simulation on this cluster
	return c.newSimWorker().simulate(p, nil, -1)
}

// SimulateLongRun simulates a single long-running job of the given model
// with an overridden step count — the paper's 620-step MILC run of Figure
// 12. The placement is deliberately fragmented (a production backfill
// allocation), so the run samples the system's congestion state.
func (c *Cluster) SimulateLongRun(model *apps.Model, steps int, start float64, seed int64) (*dataset.Run, error) {
	return c.SimulateAt(model, steps, start, 0.05, 0.3, seed)
}

// WhatIfPlacement is the outcome of a placement what-if experiment: the
// same job, same submission time, same background — placed compactly
// versus fragmented across the machine.
type WhatIfPlacement struct {
	Compact, Fragmented *dataset.Run
}

// CompactSpeedup is the fragmented-to-compact total-time ratio (> 1 means
// the compact placement ran faster).
func (w WhatIfPlacement) CompactSpeedup() float64 {
	ct := w.Compact.TotalTime()
	if ct <= 0 {
		return 0
	}
	return w.Fragmented.TotalTime() / ct
}

// PlacementWhatIf runs the placement experiment the paper's future work
// motivates (and the related simulation study of Yang et al. explored):
// simulate the same job twice at the same time against the same
// background, once with a compact allocation (few groups and routers) and
// once fragmented across the machine.
func (c *Cluster) PlacementWhatIf(model *apps.Model, steps int, start float64, seed int64) (WhatIfPlacement, error) {
	compact, err := c.SimulateAt(model, steps, start, 0.9, 0.99, seed)
	if err != nil {
		return WhatIfPlacement{}, err
	}
	frag, err := c.SimulateAt(model, steps, start, 0.01, 0.1, seed)
	if err != nil {
		return WhatIfPlacement{}, err
	}
	return WhatIfPlacement{Compact: compact, Fragmented: frag}, nil
}

// MeanStepProfile aggregates a dataset's per-run MPI profiles into best /
// average / worst rows, the shape of Figures 4 and 5.
type ProfileSummary struct {
	BestCompute, BestMPI   float64
	AvgCompute, AvgMPI     float64
	WorstCompute, WorstMPI float64
	Best, Avg, Worst       mpi.Profile
}

// SummarizeProfiles computes the Figure 4/5 decomposition for a dataset:
// the run with the lowest total time is "best", highest is "worst", and
// the routine-level mean over all runs is "average".
func SummarizeProfiles(ds *dataset.Dataset) ProfileSummary {
	var out ProfileSummary
	if len(ds.Runs) == 0 {
		return out
	}
	bestIdx, worstIdx := 0, 0
	bestT, worstT := math.Inf(1), math.Inf(-1)
	for i, r := range ds.Runs {
		t := r.TotalTime()
		if t < bestT {
			bestT, bestIdx = t, i
		}
		if t > worstT {
			worstT, worstIdx = t, i
		}
	}
	best, worst := ds.Runs[bestIdx], ds.Runs[worstIdx]
	out.Best = best.Profile
	out.Worst = worst.Profile
	out.BestCompute, out.BestMPI = best.TotalCompute(), best.Profile.Total()
	out.WorstCompute, out.WorstMPI = worst.TotalCompute(), worst.Profile.Total()
	for _, r := range ds.Runs {
		out.AvgCompute += r.TotalCompute()
		p := r.Profile
		out.Avg.Add(&p)
	}
	n := float64(len(ds.Runs))
	out.AvgCompute /= n
	for i := range out.Avg {
		out.Avg[i] /= n
	}
	out.AvgMPI = out.Avg.Total()
	return out
}
