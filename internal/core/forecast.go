package core

import (
	"context"
	"fmt"
	"slices"

	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/engine"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
	"dragonvar/internal/stats"
	"dragonvar/internal/telemetry"
)

// ForecastSpec names one forecasting experiment: predict the total time of
// the next K steps from the features of the last M steps, using the given
// feature groups (the legends of Figures 8 and 10).
type ForecastSpec struct {
	M, K     int
	Features counters.FeatureSet
}

// String renders "m=30 k=40 app + placement + io".
func (s ForecastSpec) String() string {
	return fmt.Sprintf("m=%d k=%d %s", s.M, s.K, s.Features)
}

// ForecastOptions parameterizes training and evaluation.
type ForecastOptions struct {
	Folds int       // cross-validation folds over runs; default 4
	NN    nn.Config // zero value uses campaign-tuned defaults
	// Gaps selects how windows treat steps lost to sampler dropouts:
	// dataset.GapImpute (default) interpolates, dataset.GapSkip drops
	// affected windows.
	Gaps dataset.GapPolicy
	// Workers is the number of trainings of the grid run concurrently (0
	// means engine.Workers); ForecastImportances scores feature columns on
	// as many. Fold results merge in fold order, so the reported MAPE is
	// identical at every worker count.
	Workers int
}

func (o ForecastOptions) withDefaults() ForecastOptions {
	if o.Folds <= 0 {
		o.Folds = 4
	}
	if o.NN.Epochs == 0 {
		o.NN = DefaultForecastNN()
	}
	return o
}

// DefaultForecastNN returns the campaign-tuned forecaster configuration
// that a zero ForecastOptions.NN selects.
func DefaultForecastNN() nn.Config {
	return nn.Config{
		EmbedDim:     8,
		HiddenDim:    16,
		Epochs:       35,
		BatchSize:    16,
		LearningRate: 0.01,
		UseAttention: true,
		MaxSamples:   1200,
	}
}

// ForecastResult is the cross-validated error of one spec on one dataset
// — one bar of Figure 8 or 10.
type ForecastResult struct {
	Dataset string
	Spec    ForecastSpec
	MAPE    float64
	Windows int
	// GapFraction is the dataset's share of dropped-out observations; the
	// window builder imputed or skipped them per ForecastOptions.Gaps.
	GapFraction float64
}

// ForecastCell is one cell of a forecasting grid: a spec on a dataset.
type ForecastCell struct {
	DS   *dataset.Dataset
	Spec ForecastSpec
}

// Forecast trains and evaluates the attention forecaster with
// cross-validation over runs: windows of held-out runs are never seen in
// training, mirroring the paper's splits. It is a one-cell ForecastGrid.
func Forecast(ds *dataset.Dataset, spec ForecastSpec, opt ForecastOptions, seed int64) ForecastResult {
	return ForecastGrid([]ForecastCell{{DS: ds, Spec: spec}}, opt, seed)[0]
}

// ForecastGrid cross-validates every cell as Forecast describes and returns
// the results in cell order. Every (cell, fold) training of the grid runs in one worker
// pool, so no cell waits for another's slowest fold. Each fold's stream is
// split from its cell's stream by fold index, and a cell's MAPEs are
// summed in fold order afterwards, so the results are identical at every
// worker count.
func ForecastGrid(cells []ForecastCell, opt ForecastOptions, seed int64) []ForecastResult {
	_, span := telemetry.Start(context.Background(), telemetry.SpanMLForecast)
	defer span.End()
	opt = opt.withDefaults()

	// cross-validation set-up of one cell: its stream, its windows grouped
	// by run (in ascending run index), and its run-level folds
	type cv struct {
		s      *rng.Stream
		byRun  [][]nn.Sample
		splits []dataset.FoldSplit
	}
	type training struct{ cell, fold int }
	cvs := make([]cv, len(cells))
	res := make([]ForecastResult, len(cells))
	var trainings []training
	for c, cell := range cells {
		ds, spec := cell.DS, cell.Spec
		res[c] = ForecastResult{Dataset: ds.Name, Spec: spec, GapFraction: ds.GapFraction()}
		windows := ds.BuildWindowsGap(spec.Features, spec.M, spec.K, opt.Gaps)
		if len(windows) == 0 {
			res[c].MAPE = -1
			continue
		}
		res[c].Windows = len(windows)
		byRun := map[int][]nn.Sample{}
		for _, w := range windows {
			byRun[w.RunIdx] = append(byRun[w.RunIdx], nn.Sample{Steps: w.Steps, Target: w.Target})
		}
		runIdxs := make([]int, 0, len(byRun))
		for ri := range byRun {
			runIdxs = append(runIdxs, ri)
		}
		slices.Sort(runIdxs) // map iteration order must not matter
		s := rng.NewLabeled(seed, "forecast-"+ds.Name+"-"+spec.String())
		cvs[c] = cv{s: s, byRun: make([][]nn.Sample, len(runIdxs)),
			splits: dataset.KFoldSplits(len(runIdxs), opt.Folds, s.Split("folds"))}
		for i, ri := range runIdxs {
			cvs[c].byRun[i] = byRun[ri]
		}
		for fold := range cvs[c].splits {
			trainings = append(trainings, training{c, fold})
		}
	}

	type foldMAPE struct {
		mape float64
		ok   bool
	}
	out, _ := engine.MapOrdered(context.Background(), opt.Workers, len(trainings),
		func(_ context.Context, i int) (foldMAPE, error) {
			cv, fold := cvs[trainings[i].cell], trainings[i].fold
			var trainSamples, testSamples []nn.Sample
			for _, r := range cv.splits[fold].Train {
				trainSamples = append(trainSamples, cv.byRun[r]...)
			}
			for _, r := range cv.splits[fold].Test {
				testSamples = append(testSamples, cv.byRun[r]...)
			}
			if len(trainSamples) == 0 || len(testSamples) == 0 {
				return foldMAPE{}, nil
			}
			model := nn.Train(trainSamples, opt.NN, cv.s.Split(fmt.Sprintf("fold-%d", fold)))
			return foldMAPE{mape: model.MAPE(testSamples), ok: true}, nil
		})
	// trainings are in (cell, fold) order, so each cell sums in fold order
	sums := make([]float64, len(cells))
	folds := make([]int, len(cells))
	for i, f := range out {
		if f.ok {
			sums[trainings[i].cell] += f.mape
			folds[trainings[i].cell]++
		}
	}
	for c := range res {
		if folds[c] > 0 {
			res[c].MAPE = sums[c] / float64(folds[c])
		}
	}
	return res
}

// ForecastImportances trains one model on 3/4 of the runs and returns
// permutation importances on the held-out quarter — one group of bars of
// Figure 11. The returned names parallel the importance values.
func ForecastImportances(ds *dataset.Dataset, spec ForecastSpec, opt ForecastOptions, seed int64) (names []string, importance []float64) {
	_, span := telemetry.Start(context.Background(), telemetry.SpanMLImportances)
	defer span.End()
	opt = opt.withDefaults()
	s := rng.NewLabeled(seed, "fimp-"+ds.Name+"-"+spec.String())
	windows := ds.BuildWindowsGap(spec.Features, spec.M, spec.K, opt.Gaps)
	if len(windows) == 0 {
		return spec.Features.Names(), nil
	}
	nRuns := len(ds.Runs)
	cut := nRuns * 3 / 4
	perm := s.Split("runsplit").Perm(nRuns)
	trainRun := map[int]bool{}
	for _, ri := range perm[:cut] {
		trainRun[ri] = true
	}
	var train, test []nn.Sample
	for _, w := range windows {
		smp := nn.Sample{Steps: w.Steps, Target: w.Target}
		if trainRun[w.RunIdx] {
			train = append(train, smp)
		} else {
			test = append(test, smp)
		}
	}
	if len(train) == 0 || len(test) == 0 {
		return spec.Features.Names(), nil
	}
	model := nn.Train(train, opt.NN, s.Split("train"))
	return spec.Features.Names(), model.PermutationImportance(test, s.Split("perm"), opt.Workers)
}

// SegmentForecast is one point of Figure 12: a 40-step segment of a long
// run with its observed and predicted total time.
type SegmentForecast struct {
	StartStep int
	Observed  float64
	Predicted float64
}

// ForecastLongRun trains a forecaster on the campaign dataset (none of the
// long run's data) and predicts the long run segment by segment: each
// segment of spec.K steps is predicted from the spec.M steps before it.
func ForecastLongRun(trainDS *dataset.Dataset, longRun *dataset.Run, spec ForecastSpec, opt ForecastOptions, seed int64) []SegmentForecast {
	_, span := telemetry.Start(context.Background(), telemetry.SpanMLForecastLong)
	defer span.End()
	opt = opt.withDefaults()
	s := rng.NewLabeled(seed, "flong-"+trainDS.Name)
	model := nn.Train(ForecastSamples(trainDS, spec, opt.Gaps), opt.NN, s.Split("train"))

	var out []SegmentForecast
	for start := spec.M; start+spec.K <= longRun.Steps(); start += spec.K {
		steps := make([][]float64, spec.M)
		for i := 0; i < spec.M; i++ {
			steps[i] = longRun.FeatureVector(start-spec.M+i, spec.Features, nil)
		}
		var obs float64
		for i := start; i < start+spec.K; i++ {
			obs += longRun.StepTimes[i]
		}
		out = append(out, SegmentForecast{
			StartStep: start,
			Observed:  obs,
			Predicted: model.Predict(steps),
		})
	}
	return out
}

// SegmentMAPE summarizes a long-run forecast series.
func SegmentMAPE(segs []SegmentForecast) float64 {
	pred := make([]float64, len(segs))
	obs := make([]float64, len(segs))
	for i, sg := range segs {
		pred[i] = sg.Predicted
		obs[i] = sg.Observed
	}
	return stats.MAPE(pred, obs)
}
