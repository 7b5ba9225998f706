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
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/netsim"
	"dragonvar/internal/rng"
	"dragonvar/internal/stats"
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

func main() { cli.Main("dfbench", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("dfbench", stderr)
	days := fs.Float64("days", 10, "campaign length in days")
	seed := fs.Int64("seed", 42, "campaign seed")
	workers := fs.Int("workers", 4, "parallel worker count to compare against serial")
	cori := fs.Bool("cori", false, "benchmark the full Cori machine instead of the small one")
	routingPolicy := fs.String("routing", "", "routing policy to benchmark (empty = engine default, adaptive)")
	placementPolicy := fs.String("placement", "", "placement policy to benchmark (empty = firstfit)")
	reps := fs.Int("reps", 1, "serial measurement repetitions for the mean/std/std_rel timing row")
	out := fs.String("out", "BENCH_engine.json", "output JSON ledger; existing entries are kept and the new row appended")
	allowHashChange := fs.Bool("allow-hash-change", false, "permit appending a row whose campaign hash differs from the previous same-config ledger entry (required after intentional behavior changes)")
	var tm cli.Telemetry
	tm.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	// enable before the clusters are built so their handles are live; the
	// determinism check below then doubles as proof that telemetry is
	// observation-only (identical hashes with instrumentation recording)
	flush, err := tm.Start("dfbench", stderr)
	if err != nil {
		return err
	}
	defer flush()

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

	serial, err := timeReps(cfg, "serial", 1, *reps, stderr)
	if err != nil {
		return err
	}
	par, err := timeReps(cfg, "parallel", *workers, *reps, stderr)
	if err != nil {
		return err
	}

	routingName, placementName := cfg.EffectivePolicies()
	roundNs, err := measureRoundLoop(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "round loop (%s, 256 flows): %.0f ns/op\n", routingName, roundNs)
	res := result{
		Benchmark:       "campaign-engine",
		CPUs:            runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Machine:         machine,
		Days:            *days,
		Seed:            *seed,
		Runs:            serial.runs,
		Workers:         *workers,
		Routing:         routingName,
		Placement:       placementName,
		SerialSec:       serial.first,
		Reps:            *reps,
		SerialSecMean:   serial.w.Mean(),
		SerialSecStd:    serial.w.Std(),
		ParallelSec:     par.first,
		ParallelSecMean: par.w.Mean(),
		ParallelSecStd:  par.w.Std(),
		Speedup:         serial.w.Mean() / par.w.Mean(),
		RoundLoopNsOp:   roundNs,
		Identical:       serial.hash == par.hash,
		Hash:            hex.EncodeToString(serial.hash[:8]),
	}
	if res.SerialSecMean > 0 {
		res.SerialSecStdRel = res.SerialSecStd / res.SerialSecMean
	}
	if res.ParallelSecMean > 0 {
		res.ParallelSecStdRel = res.ParallelSecStd / res.ParallelSecMean
	}
	if !res.Identical {
		return fmt.Errorf("DETERMINISM VIOLATION: workers=1 and workers=%d campaigns differ", *workers)
	}
	if err := checkHashContinuity(*out, res, *allowHashChange, stderr); err != nil {
		return err
	}

	blob, err := appendLedger(*out, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "speedup %.2fx on %d CPUs, outputs identical; appended %s/%s row to %s\n",
		res.Speedup, res.CPUs, res.Routing, res.Placement, *out)
	_, err = stdout.Write(blob)
	return err
}

// repTimings is one worker count's measurement: the first rep's campaign
// hash, run count and time, and the spread over all reps.
type repTimings struct {
	hash  [32]byte
	runs  int
	first float64
	w     stats.Welford
}

// timeReps times the campaign reps times at the given worker count and
// requires every rep to hash like the first.
func timeReps(cfg cluster.Config, label string, workers, reps int, stderr io.Writer) (repTimings, error) {
	var rt repTimings
	for rep := 0; rep < reps; rep++ {
		camp, sec, err := timeCampaign(cfg, workers)
		if err != nil {
			return rt, err
		}
		h, err := campaignHash(camp)
		if err != nil {
			return rt, err
		}
		rt.w.Add(sec)
		if rep == 0 {
			rt.hash, rt.runs, rt.first = h, camp.TotalRuns(), sec
		} else if h != rt.hash {
			return rt, fmt.Errorf("DETERMINISM VIOLATION: %s rep %d differs from rep 0", label, rep)
		}
		fmt.Fprintf(stderr, "%-8s (workers=%d, rep %d/%d): %d runs in %.2fs\n",
			label, workers, rep+1, reps, camp.TotalRuns(), sec)
	}
	return rt, nil
}

// readLedger reads the JSON ledger at path: an array of result objects,
// with a legacy single-object file read as a one-row array. A missing or
// empty file is an empty ledger.
func readLedger(path string) ([]map[string]interface{}, error) {
	old, err := os.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	var entries []map[string]interface{}
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
	return entries, nil
}

// appendLedger appends res to the JSON ledger at path, keeping existing
// entries (a legacy single-object file is wrapped into an array first).
// Returns the bytes written.
func appendLedger(path string, res result) ([]byte, error) {
	entries, err := readLedger(path)
	if err != nil {
		return nil, err
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
func measureRoundLoop(cfg cluster.Config) (float64, error) {
	d, err := topology.New(topology.Small())
	if err != nil {
		return 0, err
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
	return float64(time.Since(start).Nanoseconds()) / iters, nil
}

// checkHashContinuity refuses to append a row whose campaign hash differs
// from the most recent ledger entry with the same configuration, unless the
// -allow-hash-change flag is set. The ledger's hashes are the repo's
// determinism anchors; silently appending a changed hash would let a
// behavior regression masquerade as timing noise.
func checkHashContinuity(path string, res result, allow bool, stderr io.Writer) error {
	entries, err := readLedger(path)
	if err != nil {
		return err
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
		fmt.Fprintf(stderr, "dfbench: note: campaign hash changed %s -> %s (allowed by flag)\n", prev, res.Hash)
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
func campaignHash(camp *dataset.Campaign) ([32]byte, error) {
	blob, err := json.Marshal(camp)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(blob), nil
}
