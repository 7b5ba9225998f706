// Command dfbench measures the execution engine: it runs the same campaign
// serially and with a parallel worker pool, verifies the outputs are
// byte-identical (the engine's core contract), and writes the timings as
// JSON for the benchmark ledger.
//
//	dfbench [-days N] [-seed S] [-workers N] [-cori] [-routing POLICY] [-placement POLICY]
//	        [-reps N] [-out BENCH_engine.json] [-telemetry FILE] [-pprof ADDR]
//
// The ledger is append-only: each invocation adds one row (keyed by the
// routing/placement pair it benchmarked) and keeps prior rows, so per-policy
// engine timings accumulate side by side. -reps repeats the serial
// measurement and records mean/std/std_rel of the timings.
//
// The speedup is bounded by the host: on a single-core container the
// parallel run can be no faster than the serial one (the JSON records the
// CPU count so readers can tell). On a multi-core host expect near-linear
// scaling up to the worker count, since campaign runs are independent.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/netsim"
	"dragonvar/internal/rng"
	"dragonvar/internal/stats"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

type result struct {
	Benchmark  string  `json:"benchmark"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Machine    string  `json:"machine"`
	Days       float64 `json:"days"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Workers    int     `json:"workers"`
	Routing    string  `json:"routing"`
	Placement  string  `json:"placement"`
	SerialSec  float64 `json:"serial_sec"`
	// -reps repeats the serial measurement; the ledger records the spread
	// in the mean/std/std_rel convention so timing noise is visible.
	Reps            int     `json:"reps"`
	SerialSecMean   float64 `json:"serial_sec_mean"`
	SerialSecStd    float64 `json:"serial_sec_std"`
	SerialSecStdRel float64 `json:"serial_sec_std_rel"`
	ParallelSec     float64 `json:"parallel_sec"`
	// parallel timings get the same reps treatment as serial ones, and the
	// speedup is the ratio of the two means
	ParallelSecMean   float64 `json:"parallel_sec_mean"`
	ParallelSecStd    float64 `json:"parallel_sec_std"`
	ParallelSecStdRel float64 `json:"parallel_sec_std_rel"`
	Speedup           float64 `json:"speedup"`
	// single-worker round-loop throughput on the fixed 256-flow microbench
	// workload (internal/netsim RunRoundRouted, same shape as the repo's
	// BenchmarkNetsimRound), so the hot-path trend is visible per ledger row
	RoundLoopNsOp float64 `json:"round_loop_ns_op"`
	Identical     bool    `json:"identical"`
	Hash          string  `json:"campaign_sha256"`
}

func main() {
	days := flag.Float64("days", 10, "campaign length in days")
	seed := flag.Int64("seed", 42, "campaign seed")
	workers := flag.Int("workers", 4, "parallel worker count to compare against serial")
	cori := flag.Bool("cori", false, "benchmark the full Cori machine instead of the small one")
	routingPolicy := flag.String("routing", "", "routing policy to benchmark (empty = engine default, adaptive)")
	placementPolicy := flag.String("placement", "", "placement policy to benchmark (empty = firstfit)")
	reps := flag.Int("reps", 1, "serial measurement repetitions for the mean/std/std_rel timing row")
	out := flag.String("out", "BENCH_engine.json", "output JSON ledger; existing entries are kept and the new row appended")
	allowHashChange := flag.Bool("allow-hash-change", false, "permit appending a row whose campaign hash differs from the previous same-config ledger entry (required after intentional behavior changes)")
	tmPath := flag.String("telemetry", "", "write a telemetry snapshot (metrics + span trace) to this JSON file on exit")
	tracePath := flag.String("trace", "", `write the span stream to this JSONL file on exit (stitch with "dfvar trace")`)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /telemetry on this address (e.g. localhost:6060)")
	flag.Parse()

	// enable before the clusters are built so their handles are live; the
	// determinism check below then doubles as proof that telemetry is
	// observation-only (identical hashes with instrumentation recording)
	if *tmPath != "" || *tracePath != "" || *pprofAddr != "" {
		reg := telemetry.New()
		reg.SetRole("dfbench")
		telemetry.Enable(reg)
	}
	if *pprofAddr != "" {
		if err := telemetry.ServePprof(*pprofAddr); err != nil {
			fatal(err)
		}
	}
	defer func() {
		if err := telemetry.Flush(*tmPath); err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: %v\n", err)
		}
		if err := telemetry.FlushTrace(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: %v\n", err)
		}
	}()

	cfg := cluster.Config{Days: *days, Seed: *seed}
	cfg.Net.Routing = *routingPolicy
	cfg.Placement = *placementPolicy
	machine := "small"
	if !*cori {
		cfg.Machine = topology.Small()
	} else {
		machine = "cori"
	}
	if *reps < 1 {
		*reps = 1
	}

	var serialCamp *dataset.Campaign
	var w stats.Welford
	serialSec := 0.0
	for rep := 0; rep < *reps; rep++ {
		camp, sec, err := timeCampaign(cfg, 1)
		if err != nil {
			fatal(err)
		}
		w.Add(sec)
		if rep == 0 {
			serialCamp, serialSec = camp, sec
		} else if campaignHash(camp) != campaignHash(serialCamp) {
			fatal(fmt.Errorf("DETERMINISM VIOLATION: serial rep %d differs from rep 0", rep))
		}
		fmt.Fprintf(os.Stderr, "serial   (workers=1, rep %d/%d): %d runs in %.2fs\n",
			rep+1, *reps, camp.TotalRuns(), sec)
	}

	var parCamp *dataset.Campaign
	var pw stats.Welford
	parSec := 0.0
	for rep := 0; rep < *reps; rep++ {
		camp, sec, err := timeCampaign(cfg, *workers)
		if err != nil {
			fatal(err)
		}
		pw.Add(sec)
		if rep == 0 {
			parCamp, parSec = camp, sec
		} else if campaignHash(camp) != campaignHash(parCamp) {
			fatal(fmt.Errorf("DETERMINISM VIOLATION: parallel rep %d differs from rep 0", rep))
		}
		fmt.Fprintf(os.Stderr, "parallel (workers=%d, rep %d/%d): %d runs in %.2fs\n",
			*workers, rep+1, *reps, camp.TotalRuns(), sec)
	}

	h1, h2 := campaignHash(serialCamp), campaignHash(parCamp)
	routingName, placementName := cfg.EffectivePolicies()
	roundNs := measureRoundLoop(cfg)
	fmt.Fprintf(os.Stderr, "round loop (%s, 256 flows): %.0f ns/op\n", routingName, roundNs)
	res := result{
		Benchmark:       "campaign-engine",
		CPUs:            runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Machine:         machine,
		Days:            *days,
		Seed:            *seed,
		Runs:            serialCamp.TotalRuns(),
		Workers:         *workers,
		Routing:         routingName,
		Placement:       placementName,
		SerialSec:       serialSec,
		Reps:            *reps,
		SerialSecMean:   w.Mean(),
		SerialSecStd:    w.Std(),
		ParallelSec:     parSec,
		ParallelSecMean: pw.Mean(),
		ParallelSecStd:  pw.Std(),
		Speedup:         w.Mean() / pw.Mean(),
		RoundLoopNsOp:   roundNs,
		Identical:       h1 == h2,
		Hash:            hex.EncodeToString(h1[:8]),
	}
	if res.SerialSecMean > 0 {
		res.SerialSecStdRel = res.SerialSecStd / res.SerialSecMean
	}
	if res.ParallelSecMean > 0 {
		res.ParallelSecStdRel = res.ParallelSecStd / res.ParallelSecMean
	}
	if !res.Identical {
		fatal(fmt.Errorf("DETERMINISM VIOLATION: workers=1 and workers=%d campaigns differ", *workers))
	}
	if err := checkHashContinuity(*out, res, *allowHashChange); err != nil {
		fatal(err)
	}

	blob, err := appendLedger(*out, res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "speedup %.2fx on %d CPUs, outputs identical; appended %s/%s row to %s\n",
		res.Speedup, res.CPUs, res.Routing, res.Placement, *out)
	os.Stdout.Write(blob)
}

// appendLedger appends res to the JSON ledger at path, keeping existing
// entries: the ledger is an array of result objects, and a legacy
// single-object file is wrapped into an array first. Returns the bytes
// written.
func appendLedger(path string, res result) ([]byte, error) {
	var entries []map[string]interface{}
	if old, err := os.ReadFile(path); err == nil {
		trimmed := bytes.TrimSpace(old)
		if len(trimmed) > 0 && trimmed[0] == '[' {
			if err := json.Unmarshal(trimmed, &entries); err != nil {
				return nil, fmt.Errorf("ledger %s is not a valid result array: %w", path, err)
			}
		} else if len(trimmed) > 0 {
			var one map[string]interface{}
			if err := json.Unmarshal(trimmed, &one); err != nil {
				return nil, fmt.Errorf("ledger %s is not valid JSON: %w", path, err)
			}
			entries = append(entries, one)
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var entry map[string]interface{}
	if err := json.Unmarshal(blob, &entry); err != nil {
		return nil, err
	}
	entries = append(entries, entry)
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return nil, err
	}
	out = append(out, '\n')
	return out, os.WriteFile(path, out, 0o644)
}

// measureRoundLoop times the single-worker netsim round loop on the fixed
// 256-flow microbench workload (the same shape as the repo's
// BenchmarkNetsimRound), so every ledger row carries a hot-path throughput
// number alongside the campaign timings.
func measureRoundLoop(cfg cluster.Config) float64 {
	d, err := topology.New(topology.Small())
	if err != nil {
		fatal(err)
	}
	ncfg := netsim.DefaultConfig()
	if cfg.Net.Routing != "" {
		ncfg.Routing = cfg.Net.Routing
	}
	n := netsim.New(d, ncfg, rng.New(1))
	n.ReuseSlowdowns(true)
	var flows []netsim.Flow
	for g := 0; g < 8; g++ {
		for c := 0; c < 32; c++ {
			flows = append(flows, netsim.Flow{
				Src:             d.RouterAt(topology.GroupID(g), c%4, c%6),
				Dst:             d.RouterAt(topology.GroupID((g+3)%9), (c+1)%4, (c+2)%6),
				Flits:           1e8,
				Packets:         1e4,
				RequestFraction: 0.8,
			})
		}
	}
	routed := n.Resolve(flows)
	for i := 0; i < 16; i++ { // warm the caches before timing
		n.RunRoundRouted(flows, routed, nil, 1.0)
	}
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		n.RunRoundRouted(flows, routed, nil, 1.0)
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// checkHashContinuity refuses to append a row whose campaign hash differs
// from the most recent ledger entry with the same configuration, unless the
// -allow-hash-change flag is set. The ledger's hashes are the repo's
// determinism anchors; silently appending a changed hash would let a
// behavior regression masquerade as timing noise.
func checkHashContinuity(path string, res result, allow bool) error {
	old, err := os.ReadFile(path)
	if err != nil {
		return nil // no ledger yet — nothing to be continuous with
	}
	trimmed := bytes.TrimSpace(old)
	if len(trimmed) == 0 {
		return nil
	}
	var entries []map[string]interface{}
	if trimmed[0] == '[' {
		if json.Unmarshal(trimmed, &entries) != nil {
			return nil // appendLedger reports malformed ledgers
		}
	} else {
		var one map[string]interface{}
		if json.Unmarshal(trimmed, &one) != nil {
			return nil
		}
		entries = append(entries, one)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if jstr(e["benchmark"]) != res.Benchmark || jstr(e["machine"]) != res.Machine ||
			jnum(e["days"]) != res.Days || jnum(e["seed"]) != float64(res.Seed) ||
			jstr(e["routing"]) != res.Routing || jstr(e["placement"]) != res.Placement {
			continue
		}
		prev := jstr(e["campaign_sha256"])
		if prev == "" || prev == res.Hash {
			return nil
		}
		if !allow {
			return fmt.Errorf("campaign hash %s differs from previous same-config ledger row (%s); rerun with -allow-hash-change if the behavior change is intentional", res.Hash, prev)
		}
		fmt.Fprintf(os.Stderr, "dfbench: note: campaign hash changed %s -> %s (allowed by flag)\n", prev, res.Hash)
		return nil
	}
	return nil
}

func jstr(v interface{}) string  { s, _ := v.(string); return s }
func jnum(v interface{}) float64 { f, _ := v.(float64); return f }

func timeCampaign(cfg cluster.Config, workers int) (*dataset.Campaign, float64, error) {
	cfg.Workers = workers
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	camp, err := c.RunCampaign()
	if err != nil {
		return nil, 0, err
	}
	return camp, time.Since(start).Seconds(), nil
}

// campaignHash hashes the campaign's JSON encoding. Unlike gob, whose wire
// type ids depend on what the process encoded first, JSON bytes depend only
// on the campaign's content, so ledger rows compare across processes.
func campaignHash(camp *dataset.Campaign) [32]byte {
	blob, err := json.Marshal(camp)
	if err != nil {
		fatal(err)
	}
	return sha256.Sum256(blob)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dfbench: %v\n", err)
	os.Exit(1)
}
