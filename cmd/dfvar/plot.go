package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dragonvar/internal/cli"
	"dragonvar/internal/cluster"
	"dragonvar/internal/core"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/experiments"
	"dragonvar/internal/viz"
)

// cmdPlot renders figure SVGs from a cached campaign.
func cmdPlot(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("plot", stderr)
	var c commonFlags
	addCommon(fs, &c)
	out := fs.String("out", "plots", "output directory for SVG files")
	fig12 := fs.Bool("fig12", false, "also simulate and plot the Figure 12 long run (slow: rebuilds the cluster)")
	return c.withCampaign(ctx, fs, args, stderr, func(camp *dataset.Campaign) error {
		return plotFigures(camp, c, *out, *fig12, stdout, stderr)
	})
}

// plotFigures writes the figure SVGs of camp into dir.
func plotFigures(camp *dataset.Campaign, c commonFlags, dir string, fig12 bool, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suite := &experiments.Suite{Camp: camp, Seed: c.seed, Fast: c.fast, Workers: c.workers}

	write := func(name, svg string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
		return nil
	}

	// Figure 1: relative performance scatter over days
	fig1 := viz.NewPlot("Figure 1: performance relative to best run", "campaign day", "relative performance").Scatter()
	for _, ds := range camp.Datasets {
		if ds.Nodes != 128 {
			continue
		}
		pts := core.RelativePerformance(ds)
		x := make([]float64, len(pts))
		y := make([]float64, len(pts))
		for i, p := range pts {
			x[i] = float64(p.Day)
			y[i] = p.Relative
		}
		fig1.Line(ds.Name, x, y)
	}
	if err := write("fig1-relative-performance.svg", fig1.SVG()); err != nil {
		return err
	}

	// Figure 3: mean step trends, one plot per dataset
	for _, ds := range camp.Datasets {
		if len(ds.Runs) == 0 {
			continue
		}
		mean := ds.MeanStepTimes()
		x := make([]float64, len(mean))
		for i := range x {
			x[i] = float64(i)
		}
		p := viz.NewPlot(fmt.Sprintf("Figure 3: mean time per step, %s", ds.Name), "step", "seconds")
		p.Line("mean over runs", x, mean)
		if err := write(fmt.Sprintf("fig3-%s.svg", ds.Name), p.SVG()); err != nil {
			return err
		}
	}

	// Figure 9: relevance bars per dataset
	_, devResults := suite.Figure9()
	for _, res := range devResults {
		if res.MAPE < 0 {
			continue // dataset empty at this campaign scale
		}
		bc := &viz.BarChart{
			Title:  fmt.Sprintf("Figure 9: deviation-prediction relevance, %s (MAPE %.1f%%)", res.Dataset, res.MAPE),
			Labels: res.FeatureNames,
			Values: res.Relevance,
			XLabel: "relevance (fraction of CV folds in best subset)",
		}
		if err := write(fmt.Sprintf("fig9-%s.svg", res.Dataset), bc.SVG()); err != nil {
			return err
		}
	}

	// Figures 8 and 10: forecast MAPE bars
	plotForecast := func(prefix string, results []core.ForecastResult) error {
		byDS := map[string][]core.ForecastResult{}
		for _, r := range results {
			if r.MAPE >= 0 {
				byDS[r.Dataset] = append(byDS[r.Dataset], r)
			}
		}
		names := make([]string, 0, len(byDS))
		for n := range byDS {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			rs := byDS[name]
			labels := make([]string, len(rs))
			values := make([]float64, len(rs))
			for i, r := range rs {
				labels[i] = r.Spec.String()
				values[i] = r.MAPE
			}
			bc := &viz.BarChart{
				Title:  fmt.Sprintf("%s: forecast MAPE, %s", prefix, name),
				Labels: labels, Values: values, XLabel: "MAPE (%)",
			}
			if err := write(fmt.Sprintf("%s-%s.svg", prefix, name), bc.SVG()); err != nil {
				return err
			}
		}
		return nil
	}
	_, f8 := suite.Figure8()
	if err := plotForecast("fig8", f8); err != nil {
		return err
	}
	_, f10 := suite.Figure10()
	if err := plotForecast("fig10", f10); err != nil {
		return err
	}

	if fig12 {
		fmt.Fprintln(stderr, "rebuilding cluster state for fig12...")
		cl, err := cluster.New(c.clusterConfig(stderr))
		if err != nil {
			return err
		}
		suite.Clust = cl
		_, segs, err := suite.Figure12()
		if err != nil {
			return err
		}
		if err := plotFigure12(dir, segs); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", filepath.Join(dir, "fig12-longrun.svg"))
	}

	// Figure 11: forecast importances
	_, imps := suite.Figure11()
	full := counters.FeatureSet{Placement: true, IO: true, Sys: true}
	amgFS := counters.FeatureSet{Placement: true}
	for _, name := range viz.SortedKeys(imps) {
		imp := imps[name]
		labels := full.Names()
		if len(imp) == amgFS.Count() {
			labels = amgFS.Names()
		}
		if len(labels) != len(imp) {
			continue
		}
		bc := &viz.BarChart{
			Title:  fmt.Sprintf("Figure 11: forecast-model feature importances, %s", name),
			Labels: labels, Values: imp, XLabel: "permutation importance (MAPE increase)",
		}
		if err := write(fmt.Sprintf("fig11-%s.svg", name), bc.SVG()); err != nil {
			return err
		}
	}
	return nil
}

// plotFigure12 renders the long-run forecast series (requires cluster
// state, so it is invoked from cmdReport when available).
func plotFigure12(dir string, segs []core.SegmentForecast) error {
	x := make([]float64, len(segs))
	obs := make([]float64, len(segs))
	pred := make([]float64, len(segs))
	for i, sg := range segs {
		x[i] = float64(sg.StartStep)
		obs[i] = sg.Observed
		pred[i] = sg.Predicted
	}
	p := viz.NewPlot("Figure 12: long-running MILC job, 40-step segments", "step", "time per segment (s)")
	p.Line("observed", x, obs)
	p.Line("predicted", x, pred)
	return os.WriteFile(filepath.Join(dir, "fig12-longrun.svg"), []byte(p.SVG()), 0o644)
}
