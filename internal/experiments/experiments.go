// Package experiments regenerates every table and figure of the paper's
// evaluation from a simulated campaign. Each method renders one artifact as
// text (via package report) and returns the structured numbers behind it,
// so the CLI, the examples, and the benchmark harness all share one
// implementation.
//
// Index (see DESIGN.md for the full mapping):
//
//	Figure1  — relative performance of the four applications over the campaign
//	Figure2  — dragonfly topology census
//	Table1   — application versions and inputs
//	Figure3  — mean time-per-step behaviour per dataset
//	Figure4  — AMG & MILC compute/MPI split and routine breakdown
//	Figure5  — miniVite & UMT compute/MPI split and routine breakdown
//	Table2   — network hardware counter registry
//	Figure7  — mean counter trends track the mean step-time trend
//	Table3   — users with high MI w.r.t. run optimality
//	Figure9  — RFE relevance scores of counters for deviation prediction
//	Figure8  — forecast MAPE for AMG (m, k, feature ablations)
//	Figure10 — forecast MAPE for MILC (m, k, feature ablations)
//	Figure11 — forecast-model feature importances
//	Figure12 — long-running MILC job: observed vs predicted segments
package experiments

import (
	"context"
	"fmt"
	"strings"

	"dragonvar/internal/apps"
	"dragonvar/internal/cluster"
	"dragonvar/internal/core"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/engine"
	"dragonvar/internal/mpi"
	"dragonvar/internal/report"
	"dragonvar/internal/stats"
	"dragonvar/internal/telemetry"
)

// Suite holds everything needed to regenerate the evaluation.
type Suite struct {
	Camp  *dataset.Campaign
	Clust *cluster.Cluster // nil disables the experiments that re-simulate (Figure 12)
	Seed  int64

	// Fast trades accuracy for speed in the ML-heavy experiments
	// (fewer folds, smaller models); used by tests.
	Fast bool
	// Workers bounds the concurrency of All and of the ML loops inside the
	// per-artifact analyses (0 means engine.Workers). Rendered output is
	// identical at every worker count.
	Workers int
}

func (s *Suite) forecastOpts() core.ForecastOptions {
	if s.Fast {
		return core.ForecastOptions{Folds: 2, Workers: s.Workers}
	}
	return core.ForecastOptions{Folds: 3, Workers: s.Workers}
}

func (s *Suite) deviationOpts() core.DeviationOptions {
	if s.Fast {
		return core.DeviationOptions{Folds: 4, MaxSamples: 800, Workers: s.Workers}
	}
	return core.DeviationOptions{Folds: 10, MaxSamples: 3000, Workers: s.Workers}
}

// cheapArtifacts are the artifact names rendered by default; the ML-heavy
// ones must be requested explicitly (or via AllArtifacts).
var cheapArtifacts = []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "table3"}

// heavyArtifacts run the ML pipelines (RFE, forecaster training, the long
// re-simulated run of Figure 12).
var heavyArtifacts = []string{"fig9", "fig8", "fig10", "fig11", "fig12"}

// CheapArtifacts returns the default artifact list, in render order.
func CheapArtifacts() []string {
	return append([]string(nil), cheapArtifacts...)
}

// AllArtifacts returns every artifact name, in render order.
func AllArtifacts() []string {
	return append(CheapArtifacts(), heavyArtifacts...)
}

// NeedsCluster reports whether any of the named artifacts re-simulates and
// therefore needs Suite.Clust (Figure 2 reads the topology, Figure 12 runs
// the long MILC job).
func NeedsCluster(names []string) bool {
	for _, n := range names {
		if n == "fig2" || n == "fig12" {
			return true
		}
	}
	return false
}

// Render regenerates one artifact by name ("table1" … "fig12") and returns
// its text rendering. Unknown names are an error. Render is safe to call
// concurrently: every analysis derives its randomness from (Seed, artifact)
// and re-simulation runs on a private worker context.
func (s *Suite) Render(name string) (string, error) {
	_, span := telemetry.Start(context.Background(), telemetry.SpanReportPrefix+name)
	defer span.End()
	switch name {
	case "table1":
		return s.Table1(), nil
	case "table2":
		return s.Table2(), nil
	case "table3":
		out, _, _ := s.Table3()
		return out, nil
	case "fig1":
		out, _ := s.Figure1()
		return out, nil
	case "fig2":
		return s.Figure2(), nil
	case "fig3":
		out, _ := s.Figure3()
		return out, nil
	case "fig4":
		return s.Figure4(), nil
	case "fig5":
		return s.Figure5(), nil
	case "fig7":
		out, _ := s.Figure7()
		return out, nil
	case "fig8":
		out, _ := s.Figure8()
		return out, nil
	case "fig9":
		out, _ := s.Figure9()
		return out, nil
	case "fig10":
		out, _ := s.Figure10()
		return out, nil
	case "fig11":
		out, _ := s.Figure11()
		return out, nil
	case "fig12":
		out, _, err := s.Figure12()
		return out, err
	default:
		return "", fmt.Errorf("experiments: unknown artifact %q", name)
	}
}

// All renders the named artifacts concurrently on the shared engine and
// returns their texts in input order — the output is byte-identical to
// rendering the names one by one.
func (s *Suite) All(ctx context.Context, names []string) ([]string, error) {
	return engine.MapOrdered(ctx, s.Workers, len(names),
		func(_ context.Context, i int) (string, error) {
			return s.Render(names[i])
		})
}

// Figure1 renders the relative-performance-over-time series and returns
// the per-dataset maxima (the "up to 3× slower" observation).
func (s *Suite) Figure1() (string, map[string]float64) {
	var b strings.Builder
	b.WriteString("Figure 1: performance relative to best observed run, per campaign day\n")
	maxima := map[string]float64{}
	for _, ds := range s.Camp.Datasets {
		if ds.Nodes != 128 {
			continue // the figure shows the 128-node configurations
		}
		pts := core.RelativePerformance(ds)
		// aggregate to a daily-mean series for the sparkline
		byDay := map[int][]float64{}
		maxDay := 0
		for _, p := range pts {
			byDay[p.Day] = append(byDay[p.Day], p.Relative)
			if p.Day > maxDay {
				maxDay = p.Day
			}
		}
		series := make([]float64, maxDay+1)
		for d := range series {
			vs := byDay[d]
			if len(vs) == 0 {
				series[d] = 1
				continue
			}
			var sum float64
			for _, v := range vs {
				sum += v
			}
			series[d] = sum / float64(len(vs))
		}
		maxima[ds.Name] = core.MaxRelative(pts)
		b.WriteString(report.Series(fmt.Sprintf("%-14s", ds.Name), series))
		fmt.Fprintf(&b, "%-14s  worst run: %.2fx slower than best\n", "", maxima[ds.Name])
	}
	return b.String(), maxima
}

// Figure2 renders the machine census.
func (s *Suite) Figure2() string {
	if s.Clust == nil {
		return "Figure 2: (cluster unavailable)\n"
	}
	c := s.Clust.Topo.TakeCensus()
	t := report.NewTable("Figure 2: dragonfly machine census", "component", "count")
	t.AddRow("groups", c.Groups)
	t.AddRow("routers per group", c.RoutersPerGroup)
	t.AddRow("routers", c.Routers)
	t.AddRow("nodes", c.Nodes)
	t.AddRow("KNL nodes", c.KNLNodes)
	t.AddRow("Haswell nodes", c.HaswellNodes)
	t.AddRow("I/O service nodes", c.IONodes)
	t.AddRow("green (row) links", c.GreenLinks)
	t.AddRow("black (column) links", c.BlackLinks)
	t.AddRow("blue (global) links", c.BlueLinks)
	t.AddRow("global links per group pair (min)", c.MinBluePerGroupPair)
	t.AddRow("global links per group pair (max)", c.MaxBluePerGroupPair)
	return t.String()
}

// Table1 renders the application/input registry.
func (s *Suite) Table1() string {
	t := report.NewTable("Table I: application versions and their inputs",
		"Application", "No. of Nodes", "Input Parameters")
	for _, m := range apps.Registry() {
		t.AddRow(fmt.Sprintf("%s %s", m.App, m.Version), m.Nodes, m.InputParams)
	}
	return t.String()
}

// Figure3 renders the mean time-per-step trends and returns them.
func (s *Suite) Figure3() (string, map[string][]float64) {
	var b strings.Builder
	b.WriteString("Figure 3: mean time per step across all runs\n")
	trends := map[string][]float64{}
	for _, ds := range s.Camp.Datasets {
		mean := ds.MeanStepTimes()
		trends[ds.Name] = mean
		b.WriteString(report.Series(fmt.Sprintf("%-14s (s/step)", ds.Name), mean))
	}
	return b.String(), trends
}

// profileFigure renders a Figure 4/5-style panel for the named datasets.
func (s *Suite) profileFigure(title string, names []string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, name := range names {
		ds := s.Camp.Get(name)
		if ds == nil || len(ds.Runs) == 0 {
			fmt.Fprintf(&b, "%s: (no data)\n", name)
			continue
		}
		sum := cluster.SummarizeProfiles(ds)
		t := report.NewTable(fmt.Sprintf("%s: time in computation and MPI (seconds)", name),
			"run", "Compute", "MPI")
		t.AddRow("best", sum.BestCompute, sum.BestMPI)
		t.AddRow("average", sum.AvgCompute, sum.AvgMPI)
		t.AddRow("worst", sum.WorstCompute, sum.WorstMPI)
		b.WriteString(t.String())

		rt := report.NewTable(fmt.Sprintf("%s: time per MPI routine (seconds)", name),
			"routine", "best", "average", "worst")
		for _, share := range sum.Avg.Dominant() {
			r := share.Routine
			rt.AddRow(r.String(), sum.Best[r], sum.Avg[r], sum.Worst[r])
		}
		b.WriteString(rt.String())
	}
	return b.String()
}

// Figure4 renders the AMG and MILC 512-node profiles.
func (s *Suite) Figure4() string {
	return s.profileFigure("Figure 4: AMG and MILC on 512 nodes", []string{"AMG-512", "MILC-512"})
}

// Figure5 renders the miniVite and UMT 128-node profiles.
func (s *Suite) Figure5() string {
	return s.profileFigure("Figure 5: miniVite and UMT on 128 nodes", []string{"miniVite-128", "UMT-128"})
}

// Table2 renders the counter registry.
func (s *Suite) Table2() string {
	t := report.NewTable("Table II: network hardware performance counters",
		"Counter name", "Abbreviation", "Derived", "Description")
	for i := 0; i < counters.NumJob; i++ {
		info := counters.Table[i]
		derived := ""
		if info.Derived {
			derived = "yes"
		}
		t.AddRow(info.AriesName, info.Abbrev, derived, info.Description)
	}
	return t.String()
}

// Figure7 renders, for AMG-128, the mean step-time trend next to two mean
// counter trends, and returns the correlation of each counter trend with
// the time trend (the figure's claim is that they track each other).
func (s *Suite) Figure7() (string, map[string]float64) {
	ds := s.Camp.Get("AMG-128")
	var b strings.Builder
	corr := map[string]float64{}
	if ds == nil || len(ds.Runs) == 0 {
		return "Figure 7: (no AMG-128 data)\n", corr
	}
	b.WriteString("Figure 7: mean trends over runs, per time step (AMG-128)\n")
	timeTrend := ds.MeanStepTimes()
	b.WriteString(report.Series("time per step   ", timeTrend))
	for _, c := range []counters.Index{counters.RTFlitTot, counters.RTRBStl} {
		trend := ds.MeanCounterTrend(c)
		b.WriteString(report.Series(fmt.Sprintf("%-16s", c.String()), trend))
		corr[c.String()] = stats.Pearson(timeTrend, trend)
	}
	fmt.Fprintf(&b, "trend correlation with time/step: RT_FLIT_TOT %.2f, RT_RB_STL %.2f\n",
		corr["RT_FLIT_TOT"], corr["RT_RB_STL"])
	return b.String(), corr
}

// Table3 renders the neighborhood analysis and returns the rows plus the
// per-user list counts.
func (s *Suite) Table3() (string, []core.Table3Row, map[string]int) {
	rows, recurring := core.Table3(s.Camp, core.NeighborhoodOptions{})
	t := report.NewTable("Table III: users highly correlated with performance optimality",
		"Application", "No. of nodes", "Highly correlated users")
	for _, r := range rows {
		t.AddRow(r.Dataset, r.Nodes, strings.Join(r.Users, ", "))
	}
	var b strings.Builder
	b.WriteString(t.String())
	return b.String(), rows, recurring
}

// Figure9 runs the deviation analysis on every dataset and renders the
// relevance bars; it returns the per-dataset results.
func (s *Suite) Figure9() (string, []core.DeviationResult) {
	var b strings.Builder
	b.WriteString("Figure 9: relevance of each counter for predicting deviation from mean behaviour\n")
	var results []core.DeviationResult
	for _, ds := range s.Camp.Datasets {
		if len(ds.Runs) == 0 {
			fmt.Fprintf(&b, "%s: (no data)\n", ds.Name)
			continue
		}
		res := core.AnalyzeDeviation(ds, s.deviationOpts(), s.Seed)
		results = append(results, res)
		label := fmt.Sprintf("%s (MAPE %.1f%%, top: %s)", res.Dataset, res.MAPE, res.TopCounter())
		if res.GapFraction > 0 {
			label = fmt.Sprintf("%s (MAPE %.1f%%, top: %s, gaps %.1f%%)",
				res.Dataset, res.MAPE, res.TopCounter(), 100*res.GapFraction)
		}
		b.WriteString(report.Bars(label, res.FeatureNames, res.Relevance, 40))
		b.WriteByte('\n')
	}
	return b.String(), results
}

// forecastFigure runs the forecasting grid of Figure 8 or 10: every spec on
// every dataset with data, trained in one ForecastGrid.
func (s *Suite) forecastFigure(title string, datasets []string, ms, ks []int, features []counters.FeatureSet) (string, []core.ForecastResult) {
	var cells []core.ForecastCell
	for _, name := range datasets {
		ds := s.Camp.Get(name)
		if ds == nil || len(ds.Runs) == 0 {
			continue
		}
		for _, k := range ks {
			for _, m := range ms {
				for _, fs := range features {
					cells = append(cells, core.ForecastCell{DS: ds, Spec: core.ForecastSpec{M: m, K: k, Features: fs}})
				}
			}
		}
	}
	results := core.ForecastGrid(cells, s.forecastOpts(), s.Seed)

	var b strings.Builder
	b.WriteString(title + "\n")
	rest := results
	for _, name := range datasets {
		ds := s.Camp.Get(name)
		if ds == nil || len(ds.Runs) == 0 {
			fmt.Fprintf(&b, "%s: (no data)\n", name)
			continue
		}
		title := name
		if gf := ds.GapFraction(); gf > 0 {
			title = fmt.Sprintf("%s (gaps %.1f%%, imputed)", name, 100*gf)
		}
		t := report.NewTable(title, "spec", "MAPE %")
		n := len(ks) * len(ms) * len(features)
		for _, res := range rest[:n] {
			t.AddRow(res.Spec.String(), res.MAPE)
		}
		rest = rest[n:]
		b.WriteString(t.String())
	}
	return b.String(), results
}

// Figure8 runs the AMG forecasting grid: m ∈ {3,8}, k ∈ {5,10}, app and
// app+placement feature sets.
func (s *Suite) Figure8() (string, []core.ForecastResult) {
	return s.forecastFigure(
		"Figure 8: forecast MAPE, AMG datasets",
		[]string{"AMG-128", "AMG-512"},
		[]int{3, 8}, []int{5, 10},
		[]counters.FeatureSet{{}, {Placement: true}},
	)
}

// Figure10 runs the MILC forecasting grid: m ∈ {10,30}, k ∈ {20,40}, with
// the io and sys feature ablations of §V-C.
func (s *Suite) Figure10() (string, []core.ForecastResult) {
	return s.forecastFigure(
		"Figure 10: forecast MAPE, MILC datasets",
		[]string{"MILC-128", "MILC-512"},
		[]int{10, 30}, []int{20, 40},
		[]counters.FeatureSet{
			{},
			{Placement: true},
			{Placement: true, IO: true},
			{Placement: true, IO: true, Sys: true},
		},
	)
}

// Figure11 renders forecast-model feature importances for the AMG datasets
// (largest m, k; app+placement) and the MILC datasets (largest m, k; all
// features), mirroring the paper's two panels.
func (s *Suite) Figure11() (string, map[string][]float64) {
	var b strings.Builder
	b.WriteString("Figure 11: feature importances of the forecasting models\n")
	out := map[string][]float64{}
	panel := func(names []string, spec core.ForecastSpec) {
		for _, name := range names {
			ds := s.Camp.Get(name)
			if ds == nil || len(ds.Runs) == 0 {
				continue
			}
			fn, imp := core.ForecastImportances(ds, spec, s.forecastOpts(), s.Seed)
			if imp == nil {
				continue
			}
			out[name] = imp
			b.WriteString(report.Bars(fmt.Sprintf("%s (%s)", name, spec), fn, imp, 40))
			b.WriteByte('\n')
		}
	}
	panel([]string{"AMG-128", "AMG-512"},
		core.ForecastSpec{M: 8, K: 10, Features: counters.FeatureSet{Placement: true}})
	panel([]string{"MILC-128", "MILC-512"},
		core.ForecastSpec{M: 30, K: 40, Features: counters.FeatureSet{Placement: true, IO: true, Sys: true}})
	return b.String(), out
}

// Figure12 simulates the 620-step MILC long run, forecasts it in 40-step
// segments from the previous 30 steps with a model trained only on the
// campaign runs, and renders observed vs predicted.
func (s *Suite) Figure12() (string, []core.SegmentForecast, error) {
	if s.Clust == nil {
		return "", nil, fmt.Errorf("experiments: Figure 12 needs the cluster to simulate the long run")
	}
	ds := s.Camp.Get("MILC-128")
	if ds == nil || len(ds.Runs) == 0 {
		return "", nil, fmt.Errorf("experiments: no MILC-128 dataset")
	}
	steps := 620
	m, k := 30, 40
	if s.Fast {
		steps, m, k = 200, 10, 20
	}
	long, err := s.Clust.SimulateLongRun(apps.Find(apps.MILC, 128), steps,
		s.Camp.Days*86400*0.5, s.Seed+620)
	if err != nil {
		return "", nil, err
	}
	spec := core.ForecastSpec{M: m, K: k, Features: counters.FeatureSet{Placement: true, IO: true, Sys: true}}
	segs := core.ForecastLongRun(ds, long, spec, s.forecastOpts(), s.Seed)

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: %d-step MILC-128 run, %d-step segments forecast from the previous %d steps\n",
		steps, k, m)
	obs := make([]float64, len(segs))
	pred := make([]float64, len(segs))
	for i, sg := range segs {
		obs[i] = sg.Observed
		pred[i] = sg.Predicted
	}
	b.WriteString(report.Series("observed ", obs))
	b.WriteString(report.Series("predicted", pred))
	fmt.Fprintf(&b, "segment MAPE: %.1f%%\n", core.SegmentMAPE(segs))
	return b.String(), segs, nil
}

// MPIProfileFractions reports the campaign's mean MPI time fraction per
// dataset — the §III-B characterization numbers.
func (s *Suite) MPIProfileFractions() map[string]float64 {
	out := map[string]float64{}
	for _, ds := range s.Camp.Datasets {
		var sum float64
		for _, r := range ds.Runs {
			sum += r.Profile.Total() / r.TotalTime()
		}
		if len(ds.Runs) > 0 {
			out[ds.Name] = sum / float64(len(ds.Runs))
		}
	}
	return out
}

// DominantRoutines reports each dataset's top MPI routine over the
// campaign, for the §III-B claims (AMG: Iprobe/Test/Waitall/...; miniVite:
// Waitall; UMT: Allreduce/Barrier/Wait; MILC: Allreduce/Wait/Isend/Irecv).
func (s *Suite) DominantRoutines() map[string]mpi.Routine {
	out := map[string]mpi.Routine{}
	for _, ds := range s.Camp.Datasets {
		var total mpi.Profile
		for _, r := range ds.Runs {
			p := r.Profile
			total.Add(&p)
		}
		dom := total.Dominant()
		if len(dom) > 0 {
			out[ds.Name] = dom[0].Routine
		}
	}
	return out
}
