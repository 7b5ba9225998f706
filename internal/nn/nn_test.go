package nn

import (
	"math"
	"testing"

	"dragonvar/internal/rng"
)

// mkSamples builds windows where the target is a weighted sum of the LAST
// step's features — attention should learn to focus there.
func mkSamples(n, m, h int, noise float64, s *rng.Stream) []Sample {
	out := make([]Sample, n)
	for i := 0; i < n; i++ {
		steps := make([][]float64, m)
		for t := 0; t < m; t++ {
			row := make([]float64, h)
			for j := range row {
				row[j] = s.Float64() * 10
			}
			steps[t] = row
		}
		last := steps[m-1]
		target := 3*last[0] + 2*last[1] + 50
		if h > 2 {
			target += 0.5 * last[2]
		}
		out[i] = Sample{Steps: steps, Target: target + noise*s.NormFloat64()}
	}
	return out
}

// mkAutocorr builds windows resembling the real problem: a slowly varying
// latent congestion level drives both the features and the target.
func mkAutocorr(nRuns, runLen, m, k, h int, s *rng.Stream) (train, test []Sample) {
	for r := 0; r < nRuns; r++ {
		ar := rng.AR1{Mean: 1, Std: 0.3, Rho: 0.95}
		level := make([]float64, runLen)
		for t := range level {
			level[t] = ar.Next(s)
		}
		feats := make([][]float64, runLen)
		times := make([]float64, runLen)
		for t := range level {
			row := make([]float64, h)
			for j := 0; j < h; j++ {
				row[j] = level[t]*float64(j+1) + 0.1*s.NormFloat64()
			}
			feats[t] = row
			times[t] = 10 * (1 + 0.5*level[t])
		}
		for tc := m; tc <= runLen-k; tc++ {
			var target float64
			for i := tc; i < tc+k; i++ {
				target += times[i]
			}
			smp := Sample{Steps: feats[tc-m : tc], Target: target}
			if r < nRuns*3/4 {
				train = append(train, smp)
			} else {
				test = append(test, smp)
			}
		}
	}
	return train, test
}

func fastCfg() Config {
	return Config{EmbedDim: 6, HiddenDim: 12, Epochs: 40, BatchSize: 16, LearningRate: 0.02, UseAttention: true}
}

func TestForecasterLearnsLastStepSignal(t *testing.T) {
	s := rng.New(1)
	samples := mkSamples(400, 4, 3, 0.1, s)
	f := Train(samples[:300], fastCfg(), rng.New(2))
	mape := f.MAPE(samples[300:])
	if mape > 8 {
		t.Fatalf("test MAPE = %v%%, want < 8%%", mape)
	}
}

func TestForecasterBeatsMeanBaseline(t *testing.T) {
	s := rng.New(3)
	train, test := mkAutocorr(12, 40, 5, 5, 4, s)
	f := Train(train, fastCfg(), rng.New(4))
	mape := f.MAPE(test)

	// mean-prediction baseline
	var mu float64
	for _, smp := range train {
		mu += smp.Target
	}
	mu /= float64(len(train))
	var base float64
	for _, smp := range test {
		base += math.Abs((mu - smp.Target) / smp.Target)
	}
	base = 100 * base / float64(len(test))
	if mape >= base {
		t.Fatalf("forecaster MAPE %v%% not better than mean baseline %v%%", mape, base)
	}
}

func TestAttentionFocusesOnInformativeStep(t *testing.T) {
	s := rng.New(5)
	samples := mkSamples(500, 5, 3, 0.05, s)
	f := Train(samples, fastCfg(), rng.New(6))
	// average attention over test samples: last position should dominate
	avg := make([]float64, 5)
	for _, smp := range samples[:100] {
		w := f.AttentionWeights(smp.Steps)
		for i, v := range w {
			avg[i] += v
		}
	}
	for i := range avg {
		avg[i] /= 100
	}
	best := 0
	for i := 1; i < len(avg); i++ {
		if avg[i] > avg[best] {
			best = i
		}
	}
	if best != 4 {
		t.Fatalf("attention focuses on position %d (weights %v), want the last", best, avg)
	}
}

func TestAttentionWeightsSumToOne(t *testing.T) {
	s := rng.New(7)
	samples := mkSamples(50, 4, 3, 0.1, s)
	f := Train(samples, fastCfg(), rng.New(8))
	w := f.AttentionWeights(samples[0].Steps)
	var sum float64
	for _, v := range w {
		if v < 0 {
			t.Fatal("negative attention weight")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("attention sums to %v", sum)
	}
}

func TestMeanPoolAblation(t *testing.T) {
	s := rng.New(9)
	samples := mkSamples(300, 5, 3, 0.05, s)
	cfg := fastCfg()
	cfg.UseAttention = false
	f := Train(samples, cfg, rng.New(10))
	w := f.AttentionWeights(samples[0].Steps)
	for _, v := range w {
		if math.Abs(v-0.2) > 1e-12 {
			t.Fatalf("mean pooling should weight uniformly, got %v", w)
		}
	}
	// it still learns something
	if mape := f.MAPE(samples); mape > 25 {
		t.Fatalf("mean-pool ablation MAPE = %v%%", mape)
	}
}

func TestGradientCheck(t *testing.T) {
	// numerical vs analytical gradient on a tiny model
	s := rng.New(11)
	samples := mkSamples(1, 3, 2, 0, s)
	cfg := Config{EmbedDim: 3, HiddenDim: 4, Epochs: 1, BatchSize: 1, LearningRate: 0.01, UseAttention: true}
	f := newForecaster(3, 2, cfg.withDefaults(), rng.New(12))
	f.featMu = []float64{0, 0}
	f.featSigma = []float64{1, 1}
	f.yMu, f.ySigma = 0, 1

	smp := samples[0]
	target := 1.5
	loss := func() float64 {
		sc := f.newScratch()
		p := f.forward(smp.Steps, sc)
		return (p - target) * (p - target)
	}
	grad := make([]float64, len(f.params))
	sc := f.newScratch()
	pred := f.forward(smp.Steps, sc)
	f.backward(2*(pred-target), sc, grad)

	const eps = 1e-6
	bad := 0
	for i := range f.params {
		orig := f.params[i]
		f.params[i] = orig + eps
		up := loss()
		f.params[i] = orig - eps
		down := loss()
		f.params[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)+math.Abs(grad[i])) {
			bad++
			if bad < 4 {
				t.Errorf("param %d: numerical %v vs analytical %v", i, num, grad[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d gradient mismatches", bad, len(f.params))
	}
}

func TestPermutationImportance(t *testing.T) {
	s := rng.New(13)
	samples := mkSamples(400, 4, 3, 0.05, s)
	f := Train(samples[:300], fastCfg(), rng.New(14))
	imp := f.PermutationImportance(samples[300:], rng.New(15), 1)
	if len(imp) != 3 {
		t.Fatalf("importance length = %d", len(imp))
	}
	// columns reduce in column order whatever the worker count
	for i, v := range f.PermutationImportance(samples[300:], rng.New(15), 3) {
		if v != imp[i] {
			t.Fatalf("importance %d: %v at 3 workers, %v at 1", i, v, imp[i])
		}
	}
	// feature 0 (weight 3) must beat feature 2 (weight 0.5)
	if imp[0] <= imp[2] {
		t.Fatalf("importance ordering wrong: %v", imp)
	}
	for _, v := range imp {
		if v < 0 {
			t.Fatal("importance below zero")
		}
	}
}

// TestForwardBackwardAllocFree pins the training kernel: a warm forward and
// backward pass on a reused scratch allocates nothing.
func TestForwardBackwardAllocFree(t *testing.T) {
	s := rng.New(22)
	samples := mkSamples(16, 6, 5, 0.1, s)
	for _, att := range []bool{true, false} {
		cfg := Config{EmbedDim: 6, HiddenDim: 5, Epochs: 1, UseAttention: att}
		f := Train(samples, cfg, rng.New(23))
		sc := f.newScratch()
		grad := make([]float64, len(f.params))
		allocs := testing.AllocsPerRun(50, func() {
			f.backward(f.forward(samples[1].Steps, sc)-0.5, sc, grad)
		})
		if allocs != 0 {
			t.Fatalf("attention=%v: forward+backward allocates %v times per sample", att, allocs)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	s := rng.New(16)
	samples := mkSamples(100, 3, 2, 0.1, s)
	cfg := fastCfg()
	cfg.Epochs = 5
	f1 := Train(samples, cfg, rng.New(17))
	f2 := Train(samples, cfg, rng.New(17))
	for i := range f1.params {
		if f1.params[i] != f2.params[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestMaxSamplesSubsampling(t *testing.T) {
	s := rng.New(18)
	samples := mkSamples(500, 3, 2, 0.1, s)
	cfg := fastCfg()
	cfg.Epochs = 3
	cfg.MaxSamples = 50
	f := Train(samples, cfg, rng.New(19))
	if f == nil {
		t.Fatal("training failed")
	}
	// prediction still finite and sane
	p := f.Predict(samples[0].Steps)
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("prediction = %v", p)
	}
}

func TestTrainEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty training set")
		}
	}()
	Train(nil, Config{}, rng.New(1))
}

func TestConstantTargetNormalization(t *testing.T) {
	s := rng.New(20)
	samples := mkSamples(50, 3, 2, 0, s)
	for i := range samples {
		samples[i].Target = 42
	}
	cfg := fastCfg()
	cfg.Epochs = 5
	f := Train(samples, cfg, rng.New(21))
	p := f.Predict(samples[0].Steps)
	if math.Abs(p-42) > 2 {
		t.Fatalf("constant target prediction = %v", p)
	}
}
