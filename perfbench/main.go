// Command perfbench is dragonvar's whole-pipeline benchmark. One
// invocation runs one workload in its own process and prints, as the last
// line of standard output, a JSON object with the keys correct, attempted,
// failed and metrics:
//
//	perfbench --workload campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing at all. With --trace 1 the same timed region runs once untraced
// and once with the benchmark's own spans around each layer's public calls
// plus the program's telemetry registry enabled; the metrics are then the
// per-layer self times and counts and the tracing overhead. README.md in
// this directory maps layers to end-to-end metrics and explains why each
// workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// simWorkers is the simulation, analysis and connection parallelism of
// every workload: the benchmark host has two CPUs and load comes from one
// process.
const simWorkers = 2

// workload is one benchmark input set.
type workload struct {
	name string
	why  string
	run  func(o options) (*outcome, error)
	// byHand marks a workload BENCHMARK.json leaves out: it runs the same
	// way, but only when asked for by name (see README.md).
	byHand bool
}

var workloads = []workload{
	{name: "campaign", why: "adaptive campaign: background timeline, serial scheduler and the fused adaptive round-loop tiers, no ML", run: runCampaign},
	{name: "campaign-faults", why: "minimal routing under dense faults: generic split path, path-cache invalidation and requeue rounds", run: runCampaignFaults, byHand: true},
	{name: "analysis", why: "every report artifact at full fidelity on a fixed campaign: the ML half (nn, gbr, rfe, MI)", run: runAnalysis},
	{name: "serve", why: "open-loop /v1/forecast traffic over loopback HTTP/2: batcher, PredictAll and LRU paths", run: runServe},
}

// endToEnd and perLayer name every metric the benchmark prints, with its
// unit. BENCHMARK.json lists the same names; a test keeps them equal.
//
// Every workload prints every end-to-end metric. op_ms is the time of the
// workload's own operation: one campaign (cluster.New through RunCampaign)
// on the campaign workloads, one analysis pass (every artifact except
// Figure 12) on analysis, and one distinct-window forecast request from its
// due time on serve.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"op_ms":       "ms",
}

var perLayer = map[string]string{
	"trace.overhead_s":                "s",
	"trace.coverage":                  "fraction",
	"topology.new_s":                  "s",
	"cluster.new_s":                   "s",
	"cluster.schedule_s":              "s",
	"cluster.round_s":                 "s",
	"cluster.merge_s":                 "s",
	"cluster.unit_s":                  "s",
	"cluster.unit_p50_ms":             "ms",
	"cluster.unit_max_ms":             "ms",
	"cluster.units":                   "count",
	"cluster.rounds":                  "count",
	"cluster.requeues":                "count",
	"netsim.rounds":                   "count",
	"routing.candidate_sets":          "count",
	"netsim.path_cache_hit_ratio":     "fraction",
	"netsim.path_cache_invalidations": "count",
	"slurm.placements":                "count",
	"dataset.save_s":                  "s",
	"dataset.load_s":                  "s",
	"setup.campaign_s":                "s",
	"experiments.cheap_s":             "s",
	"experiments.table3_s":            "s",
	"experiments.fig8_s":              "s",
	"experiments.fig9_s":              "s",
	"experiments.fig10_s":             "s",
	"experiments.fig11_s":             "s",
	"experiments.fig12_s":             "s",
	"ml.nn_fits":                      "count",
	"ml.gbr_fits":                     "count",
	"ml.rfe_rounds":                   "count",
	"forecast_mape_pct":               "%",
	"deviation_mape_pct":              "%",
	"nn.predict_b1_ms":                "ms",
	"nn.predict_b64_ms":               "ms",
	"serve.request_s":                 "s",
	"serve.batch_size_mean":           "count",
	"serve.cache_hit_ratio":           "fraction",
	"serve.shed":                      "count",
	"serve.errors":                    "count",
	"serve.p99_ms":                    "ms",
	"serve.cached_p99_ms":             "ms",
	"serve.max_rps":                   "1/s",
	"loadgen.idle_s":                  "s",
	"loadgen.lag_p99_ms":              "ms",
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks; empty means correct
	metrics           map[string]metric
	prov              map[string]any // provenance beyond the common fields
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, prov: map[string]any{}}
}

// set records a metric; the name must be one of the declared ones.
func (o *outcome) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayer[name]
	}
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// complete makes the metrics the full set the run prints: every
// end-to-end metric untraced, every per-layer metric traced. An
// end-to-end metric the workload did not measure is an error; a per-layer
// metric of a layer the workload never calls reads 0.
func (o *outcome) complete(trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	for name := range o.metrics {
		if _, ok := want[name]; !ok {
			delete(o.metrics, name)
		}
	}
	for name := range want {
		if _, ok := o.metrics[name]; ok {
			continue
		}
		if !trace {
			return fmt.Errorf("end-to-end metric %s was not measured", name)
		}
		o.set(name, 0)
	}
	return nil
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: campaign, campaign-faults, analysis or serve")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	if err := run(*name, options{seed: *seed, seconds: *seconds, trace: *trace == 1}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, o options) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	out, err := w.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !o.trace {
		out.set("peak_rss_mb", peakRSSMB())
	}
	if err := out.complete(o.trace); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	prov := map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workers":    simWorkers,
	}
	for k, v := range out.prov {
		prov[k] = v
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a checkout without .git has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value (the mean of the middle two for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
