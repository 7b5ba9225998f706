// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// regenerates its artifact from the shared simulated campaign and reports
// the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The campaign itself is generated once
// and cached under testdata/ (about four minutes on first run); its scale
// is controlled by the DRAGONVAR_BENCH_DAYS and DRAGONVAR_BENCH_SMALL
// environment variables.
package dragonvar

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"dragonvar/internal/advisor"
	"dragonvar/internal/apps"
	"dragonvar/internal/cluster"
	"dragonvar/internal/core"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/experiments"
	"dragonvar/internal/gbr"
	"dragonvar/internal/linreg"
	"dragonvar/internal/netsim"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

func mathSqrt(v float64) float64 { return math.Sqrt(v) }

const benchSeed = 42

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

// benchConfig derives the campaign scale from the environment.
func benchConfig() (cluster.Config, string) {
	days := 130.0
	if v := os.Getenv("DRAGONVAR_BENCH_DAYS"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			days = f
		}
	}
	cfg := cluster.Config{Days: days, Seed: benchSeed}
	tag := "cori"
	if os.Getenv("DRAGONVAR_BENCH_SMALL") != "" {
		cfg.Machine = topology.Small()
		tag = "small"
	}
	cache := fmt.Sprintf("testdata/campaign-%s-d%g-s%d.gob", tag, days, benchSeed)
	if tag == "cori" && days == 130 {
		cache = "testdata/campaign.gob" // the canonical cache the CLI writes
	}
	return cfg, cache
}

// suite lazily generates (or loads) the campaign and cluster shared by all
// benchmarks.
func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		cfg, cache := benchConfig()
		camp, err := core.LoadOrGenerate(core.CampaignConfig{Cluster: cfg, CachePath: cache})
		if err != nil {
			benchErr = err
			return
		}
		cl, err := cluster.New(cfg) // cluster state for the re-simulating figures
		if err != nil {
			benchErr = err
			return
		}
		benchSuite = &experiments.Suite{Camp: camp, Clust: cl, Seed: benchSeed}
	})
	if benchErr != nil {
		b.Fatalf("campaign setup: %v", benchErr)
	}
	return benchSuite
}

// report emits a labeled custom metric.
func reportMetric(b *testing.B, value float64, unit string) {
	b.ReportMetric(value, unit)
}

func BenchmarkTable1_ApplicationInputs(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		out := s.Table1()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2_CounterRegistry(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		out := s.Table2()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3_NeighborhoodMI(b *testing.B) {
	s := suite(b)
	var recurring map[string]int
	for i := 0; i < b.N; i++ {
		_, _, recurring = s.Table3()
	}
	reportMetric(b, float64(len(recurring)), "recurring-users")
	b.Logf("\n%s", render(func() string { out, _, _ := s.Table3(); return out }))
}

func BenchmarkFigure1_RelativePerformance(b *testing.B) {
	s := suite(b)
	var maxima map[string]float64
	for i := 0; i < b.N; i++ {
		_, maxima = s.Figure1()
	}
	var worst float64
	for _, v := range maxima {
		if v > worst {
			worst = v
		}
	}
	reportMetric(b, worst, "max-relative-slowdown")
}

func BenchmarkFigure2_TopologyCensus(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if len(s.Figure2()) == 0 {
			b.Fatal("empty census")
		}
	}
}

func BenchmarkFigure3_MeanStepBehavior(b *testing.B) {
	s := suite(b)
	var trends map[string][]float64
	for i := 0; i < b.N; i++ {
		_, trends = s.Figure3()
	}
	reportMetric(b, float64(len(trends)), "datasets")
}

func BenchmarkFigure4_AMG_MILC_Profile(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if len(s.Figure4()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure5_miniVite_UMT_Profile(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if len(s.Figure5()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure7_CounterTrends(b *testing.B) {
	s := suite(b)
	var corr map[string]float64
	for i := 0; i < b.N; i++ {
		_, corr = s.Figure7()
	}
	reportMetric(b, corr["RT_FLIT_TOT"], "flit-trend-corr")
	reportMetric(b, corr["RT_RB_STL"], "stall-trend-corr")
}

func BenchmarkFigure8_ForecastAMG(b *testing.B) {
	s := suite(b)
	var results []core.ForecastResult
	for i := 0; i < b.N; i++ {
		_, results = s.Figure8()
	}
	reportMetric(b, bestMAPE(results), "best-mape-pct")
}

func BenchmarkFigure9_DeviationRelevance(b *testing.B) {
	s := suite(b)
	var results []core.DeviationResult
	for i := 0; i < b.N; i++ {
		_, results = s.Figure9()
	}
	var worst float64
	for _, r := range results {
		if r.MAPE > worst {
			worst = r.MAPE
		}
	}
	reportMetric(b, worst, "worst-mape-pct")
}

func BenchmarkFigure10_ForecastMILC(b *testing.B) {
	s := suite(b)
	var results []core.ForecastResult
	for i := 0; i < b.N; i++ {
		_, results = s.Figure10()
	}
	reportMetric(b, bestMAPE(results), "best-mape-pct")
}

func BenchmarkFigure11_ForecastImportances(b *testing.B) {
	s := suite(b)
	var imps map[string][]float64
	for i := 0; i < b.N; i++ {
		_, imps = s.Figure11()
	}
	reportMetric(b, float64(len(imps)), "models")
}

func BenchmarkFigure12_LongRunForecast(b *testing.B) {
	s := suite(b)
	var segs []core.SegmentForecast
	for i := 0; i < b.N; i++ {
		var err error
		_, segs, err = s.Figure12()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportMetric(b, core.SegmentMAPE(segs), "segment-mape-pct")
}

// --- ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationAdaptiveRouting compares peak link utilization with
// adaptive routing on and off under the same hotspot traffic: adaptive
// routing should spread load (the §II-A mechanism the variability story
// rests on).
func BenchmarkAblationAdaptiveRouting(b *testing.B) {
	d, err := topology.New(topology.Small())
	if err != nil {
		b.Fatal(err)
	}
	mk := func(adaptive bool) float64 {
		cfg := netsim.DefaultConfig()
		cfg.Routing = "minimal"
		if adaptive {
			cfg.Routing = "adaptive"
		}
		n := netsim.New(d, cfg, rng.New(1))
		var flows []netsim.Flow
		src := d.RouterAt(0, 1, 1)
		dst := d.RouterAt(5, 2, 3)
		for j := 0; j < 12; j++ {
			flows = append(flows, netsim.Flow{Src: src, Dst: dst, Flits: 2e9, Packets: 1e5, RequestFraction: 1})
		}
		return n.RunRound(flows, nil, 1.0).MaxLinkUtilization
	}
	var adaptive, minimal float64
	for i := 0; i < b.N; i++ {
		adaptive = mk(true)
		minimal = mk(false)
	}
	reportMetric(b, minimal/adaptive, "peak-util-ratio")
	if minimal <= adaptive {
		b.Fatal("adaptive routing failed to spread load")
	}
}

// BenchmarkAblationAttention compares the attention forecaster with the
// mean-pooling baseline on the same windows.
func BenchmarkAblationAttention(b *testing.B) {
	s := suite(b)
	ds := s.Camp.Get("MILC-128")
	if ds == nil || len(ds.Runs) < 4 {
		b.Skip("no MILC-128 data")
	}
	spec := core.ForecastSpec{M: 10, K: 20}
	var att, pool float64
	for i := 0; i < b.N; i++ {
		opt := core.ForecastOptions{Folds: 3}
		att = core.Forecast(ds, spec, opt, benchSeed).MAPE
		opt.NN.EmbedDim = 8
		opt.NN.HiddenDim = 16
		opt.NN.Epochs = 35
		opt.NN.BatchSize = 16
		opt.NN.LearningRate = 0.01
		opt.NN.UseAttention = false
		opt.NN.MaxSamples = 1200
		pool = core.Forecast(ds, spec, opt, benchSeed).MAPE
	}
	reportMetric(b, att, "attention-mape-pct")
	reportMetric(b, pool, "meanpool-mape-pct")
}

// BenchmarkAblationPlacementCompactness measures how allocation
// fragmentation changes a job's placement features (the NUM_ROUTERS /
// NUM_GROUPS inputs of the forecaster).
func BenchmarkAblationPlacementCompactness(b *testing.B) {
	s := suite(b)
	ds := s.Camp.Get("MILC-128")
	if ds == nil || len(ds.Runs) == 0 {
		b.Skip("no data")
	}
	var minG, maxG = 1 << 30, 0
	for i := 0; i < b.N; i++ {
		minG, maxG = 1<<30, 0
		for _, r := range ds.Runs {
			if r.NumGroups < minG {
				minG = r.NumGroups
			}
			if r.NumGroups > maxG {
				maxG = r.NumGroups
			}
		}
	}
	reportMetric(b, float64(minG), "min-groups")
	reportMetric(b, float64(maxG), "max-groups")
}

// BenchmarkAblationGBRvsLinear compares the paper's gradient boosted
// deviation model with a ridge-regression baseline (the approach of the
// related work it improves over) on the same deviation samples.
func BenchmarkAblationGBRvsLinear(b *testing.B) {
	s := suite(b)
	ds := s.Camp.Get("MILC-128")
	if ds == nil || len(ds.Runs) < 4 {
		b.Skip("no MILC-128 data")
	}
	x, y, _, _ := ds.DeviationSamples()
	// deterministic subsample for speed
	st := rng.New(benchSeed)
	idx := st.Perm(x.Rows)
	if len(idx) > 4000 {
		idx = idx[:4000]
	}
	cut := len(idx) * 3 / 4
	train, test := idx[:cut], idx[cut:]

	var gbrRMSE, linRMSE float64
	for i := 0; i < b.N; i++ {
		gm := gbr.Fit(x, y, train, nil, gbr.Options{NumTrees: 60}, rng.New(benchSeed))
		lm, err := linreg.Fit(x, y, train, linreg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var gs, ls float64
		for _, t := range test {
			dg := gm.Predict(x.Row(t)) - y[t]
			dl := lm.Predict(x.Row(t)) - y[t]
			gs += dg * dg
			ls += dl * dl
		}
		n := float64(len(test))
		gbrRMSE = mathSqrt(gs / n)
		linRMSE = mathSqrt(ls / n)
	}
	reportMetric(b, gbrRMSE, "gbr-rmse-s")
	reportMetric(b, linRMSE, "linear-rmse-s")
	if gbrRMSE >= linRMSE {
		b.Logf("note: GBR (%.3f) did not beat linear (%.3f) on this dataset", gbrRMSE, linRMSE)
	}
}

// BenchmarkAblationSchedulingAdvisor evaluates the paper's future-work
// proposal: train the blame-list advisor on the first half of the campaign
// and measure, on the second half, how much slower the runs it would have
// delayed actually were.
func BenchmarkAblationSchedulingAdvisor(b *testing.B) {
	s := suite(b)
	var ev advisor.Evaluation
	for i := 0; i < b.N; i++ {
		// blame only the users that recur in most datasets' lists: with the
		// default threshold the busy production machine always has some
		// blamed user running and the advisor would delay everything
		a := advisor.Train(s.Camp, advisor.Options{
			Neighborhood: core.NeighborhoodOptions{TopK: 5},
			MinLists:     4,
		})
		ev = advisor.Evaluate(s.Camp, a)
	}
	reportMetric(b, ev.FlaggedMeanRel, "flagged-mean-rel")
	reportMetric(b, ev.AdmittedMeanRel, "admitted-mean-rel")
	reportMetric(b, float64(ev.Flagged), "flagged-runs")
	reportMetric(b, float64(ev.Admitted), "admitted-runs")
}

// BenchmarkAblationPlacementWhatIf re-simulates the same MILC job compactly
// and fragmented against the same background (the placement-policy question
// of the paper's future work) and reports how much faster the compact
// placement ran.
func BenchmarkAblationPlacementWhatIf(b *testing.B) {
	s := suite(b)
	milc := findModel(b, "MILC", 128)
	var speedup float64
	for i := 0; i < b.N; i++ {
		w, err := s.Clust.PlacementWhatIf(milc, 40, s.Camp.Days*86400*0.4, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		speedup = w.CompactSpeedup()
	}
	reportMetric(b, speedup, "compact-speedup")
}

// --- component microbenchmarks ---

// benchRoundFlows builds the standard 256-flow round-loop workload.
func benchRoundFlows(b *testing.B, d *topology.Dragonfly) []netsim.Flow {
	b.Helper()
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
	return flows
}

// BenchmarkNetsimRound times one simulation round over pre-resolved
// routes — the campaign's hot path. The adaptive and minimal cases run the
// fixed 256-flow, background-free workload whose history
// docs/PERFORMANCE.md tables. The campaign case is shaped like a campaign
// round instead: a MILC-128 step on a random 128-node KNL placement under
// 11 scaled AMG-128 background footprints, adaptively routed; it reports
// the flows, candidate paths and path links a round walks. perfbench's
// `campaign` workload times whole campaigns.
func BenchmarkNetsimRound(b *testing.B) {
	d, err := topology.New(topology.Small())
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []string{"adaptive", "minimal"} {
		b.Run(pol, func(b *testing.B) {
			cfg := netsim.DefaultConfig()
			cfg.Routing = pol
			n := netsim.New(d, cfg, rng.New(1))
			flows := benchRoundFlows(b, d)
			routed := n.Resolve(flows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.RunRoundRouted(flows, routed, nil, 1.0)
			}
			reportMetric(b, float64(len(flows)), "flows")
		})
	}
	b.Run("campaign", func(b *testing.B) {
		n := netsim.New(d, netsim.DefaultConfig(), rng.New(1))
		s := rng.New(7)
		// MILC holds the first 128 nodes of a shuffled KNL pool; each
		// background job takes 128 of the rest, reshuffled per job (the
		// small machine has too few nodes for 12 disjoint jobs)
		knl := d.ComputeNodes(topology.KNL)
		place := func(m *apps.Model, k int, pool []topology.NodeID) *apps.Instance {
			s.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			bp, err := m.BuildPattern(d, pool[:m.Nodes])
			if err != nil {
				b.Fatal(err)
			}
			return m.InstantiateWith(bp, s.Split(fmt.Sprintf("inst-%d", k)))
		}
		milc := apps.Find(apps.MILC, 128)
		run := place(milc, 0, knl)
		rest := knl[milc.Nodes:]
		step := milc.Steps / 2
		flows := run.StepFlows(step, nil)
		dur := run.StepDuration(step)
		// each background job's footprint is its mid-run step at
		// per-second rates, scaled to the round like a campaign's co-runner
		amg := apps.Find(apps.AMG, 128)
		var bg []netsim.ScaledLoad
		for k := 1; k <= 11; k++ {
			fp := place(amg, k, rest).StepFlows(amg.Steps/2, nil)
			rate := float64(amg.Steps) / amg.TotalBaseTime()
			for i := range fp {
				fp[i].Flits *= rate
				fp[i].Packets *= rate
			}
			bg = append(bg, netsim.ScaledLoad{Set: n.BuildLoadSet(fp), Scale: dur * (0.5 + s.Float64())})
		}
		routed := n.Resolve(flows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.RunRoundRouted(flows, routed, bg, dur)
		}
		paths, links := routed.Size()
		reportMetric(b, float64(len(flows)), "flows")
		reportMetric(b, float64(paths), "paths")
		reportMetric(b, float64(links), "path-links")
	})
}

// campaignAnchors are the JSON content hashes of the small 30-day seed-42
// firstfit campaign that TestCampaignContentGolden pins in internal/cluster.
var campaignAnchors = map[string]string{
	"adaptive": "a836983eb2f81861",
	"minimal":  "323932e6963e0e2e",
}

// BenchmarkCampaignSpeedup runs the anchored campaign (small machine, 30
// days, seed 42, firstfit) with 1 worker and with 4 in every iteration. Every
// campaign must hash like the first one and like its anchor: serial equals
// parallel, repeats equal each other, and the content has not moved. It
// reports the mean serial and parallel campaign times and their ratio, and
// on a host with more than one CPU fails when the parallel campaign is
// slower than the serial one.
func BenchmarkCampaignSpeedup(b *testing.B) {
	for _, pol := range []string{"adaptive", "minimal"} {
		b.Run(pol, func(b *testing.B) {
			cfg := cluster.Config{Machine: topology.Small(), Days: 30, Seed: benchSeed, Placement: "firstfit"}
			cfg.Net.Routing = pol
			var first [32]byte
			var serial, parallel float64
			for i := 0; i < b.N; i++ {
				for _, workers := range []int{1, 4} {
					b.StopTimer()
					cfg.Workers = workers
					c, err := cluster.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					start := time.Now()
					camp, err := c.RunCampaign()
					if err != nil {
						b.Fatal(err)
					}
					sec := time.Since(start).Seconds()
					b.StopTimer()
					blob, err := json.Marshal(camp)
					if err != nil {
						b.Fatal(err)
					}
					sum := sha256.Sum256(blob)
					if i == 0 && workers == 1 {
						first = sum
						if got := hex.EncodeToString(sum[:8]); got != campaignAnchors[pol] {
							b.Fatalf("%s campaign content hash = %s, want anchor %s", pol, got, campaignAnchors[pol])
						}
					} else if sum != first {
						b.Fatalf("%s campaign at %d workers, iteration %d, differs from the first", pol, workers, i)
					}
					if workers == 1 {
						serial += sec
					} else {
						parallel += sec
					}
					b.StartTimer()
				}
			}
			serial /= float64(b.N)
			parallel /= float64(b.N)
			speedup := serial / parallel
			reportMetric(b, serial, "serial_s")
			reportMetric(b, parallel, "parallel_s")
			reportMetric(b, speedup, "speedup")
			if cpus := runtime.NumCPU(); cpus > 1 && speedup < 1 {
				b.Fatalf("%s: 4 workers %.2fx as fast as 1 on %d CPUs, want >= 1", pol, speedup, cpus)
			}
		})
	}
}

// BenchmarkForecasterTrain trains the forecaster on synthetic windows of
// Figure 10's largest shape — 30 steps of every feature column, 1200
// samples (the default subsampling cap) — with the default configuration
// cut to 3 epochs. One iteration is one nn.Train; the training kernel
// (forward and backward passes, Adam) is most of every forecasting figure.
func BenchmarkForecasterTrain(b *testing.B) {
	const m, n = 30, 1200
	h := counters.FeatureSet{Placement: true, IO: true, Sys: true}.Count()
	s := rng.New(benchSeed)
	samples := make([]nn.Sample, n)
	for i := range samples {
		steps := make([][]float64, m)
		for t := range steps {
			row := make([]float64, h)
			for j := range row {
				row[j] = s.Float64() * float64(j+1)
			}
			steps[t] = row
		}
		samples[i] = nn.Sample{Steps: steps, Target: 50 + 3*steps[m-1][0] + steps[m-1][1] + s.NormFloat64()}
	}
	cfg := core.DefaultForecastNN()
	cfg.Epochs = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Train(samples, cfg, rng.New(benchSeed))
	}
	reportMetric(b, float64(b.Elapsed().Nanoseconds())/float64(b.N*n*cfg.Epochs), "ns/sample")
}

// BenchmarkStreamSplit times the random streams every stochastic component
// draws from. "seed+30" is one rng.Split plus 30 Float64 draws, the shape of
// a per-pair path-sampling stream on a path-cache miss; "warm" is one
// Float64 draw from a stream past its lazily seeded phase, which should
// cost what a math/rand draw costs.
func BenchmarkStreamSplit(b *testing.B) {
	b.Run("seed+30", func(b *testing.B) {
		root := rng.New(benchSeed)
		var sink float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := root.Split("pair")
			for k := 0; k < 30; k++ {
				sink += s.Float64()
			}
		}
		_ = sink
	})
	b.Run("warm", func(b *testing.B) {
		s := rng.New(benchSeed)
		for k := 0; k < 1000; k++ {
			s.Float64()
		}
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += s.Float64()
		}
		_ = sink
	})
}

func BenchmarkCampaignDay(b *testing.B) {
	// cost of simulating one campaign day at reduced scale
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{
			Machine: topology.Small(),
			Days:    1,
			Seed:    int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.RunCampaign(); err != nil {
			b.Fatal(err)
		}
	}
}

// bestMAPE returns the lowest non-negative MAPE of the results.
func bestMAPE(results []core.ForecastResult) float64 {
	best := -1.0
	for _, r := range results {
		if r.MAPE >= 0 && (best < 0 || r.MAPE < best) {
			best = r.MAPE
		}
	}
	return best
}

// render safely captures a rendering closure's output for b.Logf.
func render(f func() string) string { return f() }

// ensure the dataset import is used even when benches are filtered
var _ = dataset.Campaign{}

// findModel fetches a Table I model by app name and node count.
func findModel(b *testing.B, app string, nodes int) *apps.Model {
	b.Helper()
	for _, m := range apps.Registry() {
		if m.App.String() == app && m.Nodes == nodes {
			return m
		}
	}
	b.Fatalf("no model %s-%d", app, nodes)
	return nil
}
