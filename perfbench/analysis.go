package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dragonvar/internal/cluster"
	"dragonvar/internal/core"
	"dragonvar/internal/dataset"
	"dragonvar/internal/engine"
	"dragonvar/internal/experiments"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// scratchRoot is where workloads keep files while they run, relative to
// the checkout root the benchmark runs from; each run uses and removes
// its own directory inside it.
const scratchRoot = ".bench_build"

// cheapArtifacts are the tables and figures that need no model fitting;
// the traced run reports their self time as one layer.
var cheapArtifacts = []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig7"}

// analysisInput is the analysis workload's set-up product.
type analysisInput struct {
	suite     *experiments.Suite
	artifacts []string // every "dfvar report all" artifact except fig12
	reference []string // set-up rendering of artifacts, the expected bytes
	forecast  []float64
	deviation []float64
	hash      string
}

// setupAnalysis generates the anchor campaign, saves and reloads it, builds
// the cluster Figures 2 and 12 re-simulate on, and renders the reference.
// The campaign is the anchor configuration for every seed; the seed drives
// the analyses' own randomness (fold splits, model initialisation).
func setupAnalysis(o options, tr *tracer) (*analysisInput, error) {
	root := tr.begin(0, "setup")
	defer root.finish()
	spec := campaignSpec{routing: "adaptive"}
	cfg := spec.config(anchorSeed, simWorkers)

	sp := tr.begin(root.id, "setup.campaign")
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	camp, err := c.RunCampaign()
	sp.finish()
	if err != nil {
		return nil, err
	}
	want, _ := spec.anchor(anchorSeed)
	if got := contentHash(camp); got != want {
		return nil, fmt.Errorf("analysis campaign content hash %s, anchor %s", got, want)
	}

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "analysis-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "campaign.gob")
	sp = tr.begin(root.id, "dataset.save")
	err = camp.Save(path)
	sp.finish()
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root.id, "dataset.load")
	loaded, err := dataset.Load(path)
	sp.finish()
	if err != nil {
		return nil, err
	}
	in := &analysisInput{hash: gobHash(loaded)}
	if h := gobHash(camp); in.hash != h {
		return nil, fmt.Errorf("reloaded campaign hash %s, saved %s", in.hash, h)
	}

	sp = tr.begin(root.id, "topology.new")
	_, err = topology.New(cfg.Machine)
	sp.finish()
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root.id, "cluster.new")
	cl, err := cluster.New(cfg)
	sp.finish()
	if err != nil {
		return nil, err
	}

	in.suite = &experiments.Suite{Camp: loaded, Clust: cl, Seed: o.seed, Workers: simWorkers}
	for _, a := range experiments.AllArtifacts() {
		if a != "fig12" {
			in.artifacts = append(in.artifacts, a)
		}
	}
	sp = tr.begin(root.id, "setup.reference")
	in.reference, err = in.render(nil, 0)
	sp.finish()
	if err != nil {
		return nil, err
	}
	return in, nil
}

// render produces every artifact except Figure 12 with simWorkers
// artifacts in flight, as experiments.Suite.All does, and records the
// accuracy of the forecast and deviation models on the way.
func (in *analysisInput) render(tr *tracer, parent int64) ([]string, error) {
	type rendered struct {
		text string
		mape []float64
	}
	outs, err := engine.MapOrdered(context.Background(), simWorkers, len(in.artifacts),
		func(_ context.Context, i int) (rendered, error) {
			name := in.artifacts[i]
			sp := tr.begin(parent, "experiments."+name)
			defer sp.finish()
			var r rendered
			var fr []core.ForecastResult
			switch name {
			case "fig8":
				r.text, fr = in.suite.Figure8()
			case "fig10":
				r.text, fr = in.suite.Figure10()
			case "fig9":
				var dr []core.DeviationResult
				r.text, dr = in.suite.Figure9()
				for _, d := range dr {
					r.mape = append(r.mape, d.MAPE)
				}
			default:
				var err error
				r.text, err = in.suite.Render(name)
				return r, err
			}
			for _, f := range fr {
				r.mape = append(r.mape, f.MAPE)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(outs))
	in.forecast, in.deviation = in.forecast[:0], in.deviation[:0]
	for i, r := range outs {
		texts[i] = r.text
		if in.artifacts[i] == "fig9" {
			in.deviation = append(in.deviation, r.mape...)
		} else {
			in.forecast = append(in.forecast, r.mape...)
		}
	}
	return texts, nil
}

// pass is one timed analysis: every artifact, then Figure 12 on its own.
// It returns the time of the first part, which is the workload's op_ms.
func (in *analysisInput) pass(tr *tracer, parent int64, out *outcome) (time.Duration, error) {
	t0 := time.Now()
	texts, err := in.render(tr, parent)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	out.attempted += len(texts)
	for i, t := range texts {
		if t != in.reference[i] {
			out.failed++
			out.check(false, "%s differs from the set-up reference", in.artifacts[i])
		}
	}
	// Figure 12 fails on the small machine today; it is an attempted
	// operation that counts as failed, timed outside op_ms
	out.attempted++
	sp := tr.begin(parent, "experiments.fig12")
	_, err = in.suite.Render("fig12")
	sp.finish()
	if err != nil {
		out.failed++
		fmt.Fprintf(os.Stderr, "perfbench: analysis: fig12 failed: %v\n", err)
	}
	return d, nil
}

func runAnalysis(o options) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	t0 := time.Now()
	in, err := setupAnalysis(o, tr)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	runtime.GC() // collect set-up garbage (the unsaved campaign) before timing
	out.prov["campaign_hashes"] = []string{in.hash}
	out.prov["campaign_seeds"] = []int64{anchorSeed}

	if o.trace {
		return out, traceAnalysis(in, tr, out)
	}
	out.set("setup_s", setup.Seconds())
	var times []float64
	start := time.Now()
	for len(times) == 0 || time.Since(start).Seconds() < o.seconds {
		d, err := in.pass(nil, 0, out)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	out.set("op_ms", 1000*median(times))
	out.prov["pass_s"] = times
	return out, nil
}

func traceAnalysis(in *analysisInput, tr *tracer, out *outcome) error {
	t0 := time.Now()
	if _, err := in.pass(nil, 0, out); err != nil {
		return err
	}
	plain := time.Since(t0)

	reg, disable := enableRegistry()
	defer disable()
	t0 = time.Now()
	root := tr.begin(0, "analysis")
	_, err := in.pass(tr, root.id, out)
	root.finish()
	traced := time.Since(t0)
	if err != nil {
		return err
	}
	counts := reg.Snapshot().Counters

	spans := tr.records()
	layers := byLayer(spans)
	out.set("trace.overhead_s", (traced - plain).Seconds())
	out.set("trace.coverage", coverage(spans, "analysis"))
	out.set("setup.campaign_s", selfSeconds(layers, "setup.campaign"))
	out.set("dataset.save_s", selfSeconds(layers, "dataset.save"))
	out.set("dataset.load_s", selfSeconds(layers, "dataset.load"))
	out.set("topology.new_s", selfSeconds(layers, "topology.new"))
	out.set("cluster.new_s", selfSeconds(layers, "cluster.new"))
	var cheap []string
	for _, a := range cheapArtifacts {
		cheap = append(cheap, "experiments."+a)
	}
	out.set("experiments.cheap_s", selfSeconds(layers, cheap...))
	for _, a := range []string{"table3", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		out.set("experiments."+a+"_s", selfSeconds(layers, "experiments."+a))
	}
	out.set("ml.nn_fits", float64(counts[telemetry.MNNFits]))
	out.set("ml.gbr_fits", float64(counts[telemetry.MGBRFits]))
	out.set("ml.rfe_rounds", float64(counts[telemetry.MRFERounds]))
	out.set("forecast_mape_pct", mean(in.forecast))
	out.set("deviation_mape_pct", mean(in.deviation))
	return nil
}
