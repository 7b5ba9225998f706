package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// campaignDays is the length of every benchmark campaign: the length the
// hash anchors were recorded at.
const campaignDays = 30

// anchorSeed is the seed of the anchor configuration. Sub-campaign 0 of
// both campaign workloads and the analysis input use it, so every run
// also checks the anchor where one exists.
const anchorSeed = 42

// anchorContent holds the anchored campaigns (small machine, 30 days,
// seed 42, firstfit, no faults) per routing policy, as the first eight
// bytes of the SHA-256 of the campaign's JSON encoding. The anchors the
// repository quotes, 5f693028bbca9950 (adaptive) and 021614d8a27dbf52
// (minimal), hash the gob encoding instead; gob bytes embed wire type ids
// that depend on what a process encoded first, and the dataset package's
// type-id pinning shifted them, so the same campaigns now gob-hash to
// f096afa21db15eae and 306362c018cc0b8a. The JSON hashes below were taken
// from the code that produced the quoted gob anchors and match today's
// campaigns, so they pin the content itself.
var anchorContent = map[string]string{
	"adaptive": "a836983eb2f81861",
	"minimal":  "323932e6963e0e2e",
}

// faultSpec is campaign-faults' random fault schedule: links down and
// degraded, routers down, many short node drains and sampler dropouts.
// The drains are short and dense so that runs get killed and requeued.
const faultSpec = "links=4,degraded=4,routers=4,drains=300,dropouts=3,outage=300"

// campaignSpec is what distinguishes the two campaign workloads.
type campaignSpec struct {
	routing string
	faults  string
}

func (s campaignSpec) config(seed int64, workers int) cluster.Config {
	cfg := cluster.Config{
		Machine:   topology.Small(),
		Days:      campaignDays,
		Seed:      seed,
		FaultSpec: s.faults,
		Placement: "firstfit",
		Workers:   workers,
	}
	cfg.Net.Routing = s.routing
	return cfg
}

// anchor returns the content anchor for the sub-campaign with this seed.
func (s campaignSpec) anchor(seed int64) (string, bool) {
	if s.faults != "" || seed != anchorSeed {
		return "", false
	}
	h, ok := anchorContent[s.routing]
	return h, ok
}

// subSeeds are the campaign seeds of one run: the anchor seed, then two
// drawn from the workload seed.
func subSeeds(seed int64) []int64 {
	return []int64{anchorSeed, seed*16 + 1, seed*16 + 2}
}

func runCampaign(o options) (*outcome, error) {
	return runCampaignWorkload(o, campaignSpec{routing: "adaptive"})
}

func runCampaignFaults(o options) (*outcome, error) {
	return runCampaignWorkload(o, campaignSpec{routing: "minimal", faults: faultSpec})
}

// simulate is the timed unit of the campaign workloads: cluster.New
// through RunCampaign, what every "dfvar campaign" pays.
func simulate(cfg cluster.Config) (*dataset.Campaign, time.Duration, error) {
	t0 := time.Now()
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	camp, err := c.RunCampaign()
	return camp, time.Since(t0), err
}

func runCampaignWorkload(o options, spec campaignSpec) (*outcome, error) {
	out := newOutcome()
	seeds := subSeeds(o.seed)
	out.prov["campaign_seeds"] = seeds
	out.prov["routing"] = spec.routing
	out.prov["faults"] = spec.faults
	if o.trace {
		return out, traceCampaign(spec, seeds, out)
	}

	// set-up: the reference each sub-campaign is checked against — its
	// anchor, or else the hash of the same config simulated by one worker
	refs := make([]string, len(seeds))
	var setups []float64
	for i, s := range seeds {
		if _, ok := spec.anchor(s); ok {
			continue
		}
		camp, d, err := simulate(spec.config(s, 1))
		if err != nil {
			return nil, fmt.Errorf("reference campaign seed %d: %w", s, err)
		}
		setups = append(setups, d.Seconds())
		refs[i] = gobHash(camp)
	}
	out.set("setup_s", median(setups))
	runtime.GC() // the references are garbage; keep their collection out of the timed region

	// timed region: sub-campaigns round-robin until the time is up, each at
	// least once; op_ms is the mean over sub-campaigns of each one's median
	// time
	times := make([][]float64, len(seeds))
	hashes := make([]string, len(seeds))
	requeues := make([]int, len(seeds))
	start := time.Now()
	for k := 0; k < len(seeds) || time.Since(start).Seconds() < o.seconds; k++ {
		i := k % len(seeds)
		out.attempted++
		camp, d, err := simulate(spec.config(seeds[i], simWorkers))
		if err != nil {
			out.failed++
			out.check(false, "campaign seed %d: %v", seeds[i], err)
			continue
		}
		times[i] = append(times[i], d.Seconds())
		h := gobHash(camp)
		if hashes[i] != "" {
			out.check(h == hashes[i], "campaign seed %d: hash %s, earlier %s", seeds[i], h, hashes[i])
			continue
		}
		hashes[i] = h
		requeues[i] = camp.TotalRequeues()
		if want, ok := spec.anchor(seeds[i]); ok {
			got := contentHash(camp)
			out.check(got == want, "campaign seed %d: content hash %s, anchor %s", seeds[i], got, want)
		} else {
			out.check(h == refs[i], "campaign seed %d: %d-worker hash %s, 1-worker hash %s", seeds[i], simWorkers, h, refs[i])
		}
	}
	medians := make([]float64, len(seeds))
	for i, ts := range times {
		if len(ts) == 0 {
			return nil, fmt.Errorf("campaign seed %d never completed", seeds[i])
		}
		medians[i] = median(ts)
	}
	out.set("op_ms", 1000*mean(medians))
	out.prov["campaign_s_by_seed"] = medians
	out.prov["campaign_hashes"] = hashes
	out.prov["requeues"] = requeues
	if spec.faults != "" {
		total := 0
		for _, r := range requeues {
			total += r
		}
		out.check(total > 0, "fault schedule %q requeued no run", spec.faults)
	}
	return out, nil
}

// traceCampaign runs every sub-campaign once untraced and once traced,
// with units simulated by a benchmark-owned executor that times each one.
func traceCampaign(spec campaignSpec, seeds []int64, out *outcome) error {
	untraced := make([]string, len(seeds))
	var plainWall time.Duration
	for i, s := range seeds {
		camp, d, err := simulate(spec.config(s, simWorkers))
		if err != nil {
			return fmt.Errorf("campaign seed %d: %w", s, err)
		}
		out.attempted++
		plainWall += d
		untraced[i] = gobHash(camp)
	}

	reg, disable := enableRegistry()
	defer disable()
	tr := newTracer()
	var tracedWall time.Duration
	counts := map[string]int64{}
	for i, s := range seeds {
		cfg := spec.config(s, simWorkers)
		// the executor's simulators are built outside the timed spans and
		// before the counter baseline: each re-derives the machine and
		// schedule the way a distributed worker does
		exec, err := newTimedExecutor(cfg, simWorkers, tr)
		if err != nil {
			return err
		}
		before := reg.Snapshot().Counters
		t0 := time.Now()
		root := tr.begin(0, "campaign")
		sp := tr.begin(root.id, "topology.new")
		if _, err := topology.New(cfg.Machine); err != nil {
			return err
		}
		sp.finish()
		sp = tr.begin(root.id, "cluster.new")
		c, err := cluster.New(cfg)
		sp.finish()
		if err != nil {
			return err
		}
		camp, err := exec.run(c, root.id)
		root.finish()
		tracedWall += time.Since(t0)
		if err != nil {
			return fmt.Errorf("traced campaign seed %d: %w", s, err)
		}
		out.attempted++
		h := gobHash(camp)
		out.check(h == untraced[i], "campaign seed %d: traced hash %s, untraced %s", s, h, untraced[i])
		for name, v := range reg.Snapshot().Counters {
			counts[name] += v - before[name]
		}
	}
	out.prov["campaign_hashes"] = untraced

	spans := tr.records()
	layers := byLayer(spans)
	out.set("trace.overhead_s", (tracedWall - plainWall).Seconds())
	out.set("trace.coverage", coverage(spans, "campaign"))
	out.set("topology.new_s", selfSeconds(layers, "topology.new"))
	out.set("cluster.new_s", selfSeconds(layers, "cluster.new"))
	out.set("cluster.schedule_s", selfSeconds(layers, "cluster.schedule"))
	out.set("cluster.round_s", selfSeconds(layers, "cluster.round"))
	out.set("cluster.merge_s", selfSeconds(layers, "cluster.merge"))
	out.set("cluster.unit_s", selfSeconds(layers, "cluster.unit"))
	if units := layers["cluster.unit"]; units != nil {
		var ms []float64
		for _, d := range units.durs {
			ms = append(ms, millis(d))
		}
		out.set("cluster.unit_p50_ms", median(ms))
		out.set("cluster.unit_max_ms", quantile(ms, 1))
		out.set("cluster.units", float64(units.count))
	}
	if rounds := layers["cluster.round"]; rounds != nil {
		out.set("cluster.rounds", float64(rounds.count))
	}
	out.set("cluster.requeues", float64(counts[telemetry.MClusterRequeues]))
	out.set("netsim.rounds", float64(counts[telemetry.MNetsimRounds]))
	out.set("routing.candidate_sets", float64(counts[telemetry.MRoutingCandidateSets]))
	hits, misses := counts[telemetry.MNetsimCacheHits], counts[telemetry.MNetsimCacheMisses]
	if hits+misses > 0 {
		out.set("netsim.path_cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	out.set("netsim.path_cache_invalidations", float64(counts[telemetry.MNetsimCacheInval]))
	out.set("slurm.placements", float64(counts[telemetry.MSlurmPlacements]))
	return nil
}

// timedExecutor is a cluster.UnitExecutor that simulates each round's
// units on a fixed set of UnitSims, one goroutine each, and records a span
// per round and per unit. The gaps it sees between rounds are the campaign
// loop's own work: scheduling before the first round, merging and requeue
// decisions after each.
type timedExecutor struct {
	sims []*cluster.UnitSim
	tr   *tracer

	runSpan int64
	gap     spanHandle // the campaign loop's work since the last round ended
}

func newTimedExecutor(cfg cluster.Config, workers int, tr *tracer) (*timedExecutor, error) {
	e := &timedExecutor{sims: make([]*cluster.UnitSim, workers), tr: tr}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range e.sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.sims[w], errs[w] = cluster.NewUnitSim(cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// run drives the campaign through the executor under a cluster.run span.
func (e *timedExecutor) run(c *cluster.Cluster, parent int64) (*dataset.Campaign, error) {
	run := e.tr.begin(parent, "cluster.run")
	e.runSpan = run.id
	e.gap = e.tr.begin(run.id, "cluster.schedule")
	camp, err := c.RunCampaignWith(context.Background(), e)
	e.gap.finish()
	run.finish()
	return camp, err
}

func (e *timedExecutor) ExecuteRound(ctx context.Context, pending []int, overrides []cluster.PlanOverride, completed func()) ([]cluster.UnitOutcome, error) {
	e.gap.finish()
	defer func() { e.gap = e.tr.begin(e.runSpan, "cluster.merge") }()
	round := e.tr.begin(e.runSpan, "cluster.round")
	defer round.finish()
	for _, s := range e.sims {
		if err := s.Apply(overrides); err != nil {
			return nil, err
		}
	}
	outs := make([]cluster.UnitOutcome, len(pending))
	errs := make([]error, len(e.sims))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, sim := range e.sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= len(pending) {
					return
				}
				sp := e.tr.begin(round.id, "cluster.unit")
				o, err := sim.Simulate(pending[k])
				sp.finish()
				if err != nil {
					errs[w] = err
					return
				}
				outs[k] = o
				if o.Run != nil {
					completed()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, ctx.Err()
}

// gobHash is the repository's campaign identity: the SHA-256 of the gob
// encoding, first eight bytes in hex. Comparable within one process.
func gobHash(camp *dataset.Campaign) string {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(camp); err != nil {
		panic(err) // campaign types are gob-safe by construction
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// contentHash hashes the campaign's JSON encoding, which unlike gob does
// not depend on process-global encoder state.
func contentHash(camp *dataset.Campaign) string {
	blob, err := json.Marshal(camp)
	if err != nil {
		panic(err) // campaign fields are finite numbers and strings
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}
