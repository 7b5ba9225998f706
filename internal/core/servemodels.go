package core

import (
	"fmt"

	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/gbr"
	"dragonvar/internal/linalg"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
)

// The helpers below train the models the serving daemon (cmd/dfserved)
// persists to a modelstore. Unlike Forecast/AnalyzeDeviation they don't
// cross-validate: a serving model trains on everything the campaign has,
// because its job is the next prediction, not an error bar.

// TrainServingForecaster trains a forecaster for online serving on every
// window of the dataset. Returns the model and the window count it saw.
func TrainServingForecaster(ds *dataset.Dataset, spec ForecastSpec, opt ForecastOptions, seed int64) (*nn.Forecaster, int, error) {
	opt = opt.withDefaults()
	s := rng.NewLabeled(seed, "serve-forecast-"+ds.Name+"-"+spec.String())
	samples := ForecastSamples(ds, spec, opt.Gaps)
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("dataset %s has no %s windows", ds.Name, spec)
	}
	return nn.Train(samples, opt.NN, s.Split("train")), len(samples), nil
}

// ForecastSamples returns the forecast windows of ds under spec, with
// dropout gaps handled per gaps, as forecaster samples in window order.
func ForecastSamples(ds *dataset.Dataset, spec ForecastSpec, gaps dataset.GapPolicy) []nn.Sample {
	windows := ds.BuildWindowsGap(spec.Features, spec.M, spec.K, gaps)
	samples := make([]nn.Sample, len(windows))
	for i, w := range windows {
		samples[i] = nn.Sample{Steps: w.Steps, Target: w.Target}
	}
	return samples
}

// ServingOptions returns the training options of the served models: the
// defaults, or with fast the reduced preset that dfserved's and dfvard's
// -fast selects (fewer epochs, smaller sample caps).
func ServingOptions(fast bool) (ForecastOptions, DeviationOptions) {
	var fo ForecastOptions
	var do DeviationOptions
	if fast {
		fo.NN = DefaultForecastNN()
		fo.NN.Epochs, fo.NN.MaxSamples = 10, 400
		do.MaxSamples = 800
	}
	return fo, do
}

// TrainServingDeviation fits a GBR on the dataset's per-step deviation
// samples (the §IV-B features) for online serving. The sample cap and
// subsampling mirror AnalyzeDeviation so the served model sees the same
// data the reported relevances came from.
func TrainServingDeviation(ds *dataset.Dataset, opt DeviationOptions, seed int64) (*gbr.Model, int, error) {
	opt = opt.withDefaults()
	x, y, _, _ := ds.DeviationSamples()
	if x.Rows == 0 {
		return nil, 0, fmt.Errorf("dataset %s has no deviation samples", ds.Name)
	}
	s := rng.NewLabeled(seed, "serve-deviation-"+ds.Name)
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	if opt.MaxSamples > 0 && len(idx) > opt.MaxSamples {
		s.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		idx = idx[:opt.MaxSamples]
	}
	xs := linalg.NewMatrix(len(idx), x.Cols)
	ys := make([]float64, len(idx))
	for k, i := range idx {
		copy(xs.Row(k), x.Row(i))
		ys[k] = y[i]
	}
	return gbr.Fit(xs, ys, nil, nil, opt.GBR, s.Split("fit")), len(idx), nil
}

// DeviationFeatureNames returns the column names of the deviation model's
// input, in Table II order.
func DeviationFeatureNames() []string {
	names := make([]string, counters.NumJob)
	for i := 0; i < counters.NumJob; i++ {
		names[i] = counters.Table[i].Abbrev
	}
	return names
}
