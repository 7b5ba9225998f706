package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(x) != 5 {
		t.Fatalf("Mean = %v", Mean(x))
	}
	// sample variance of this classic dataset is 32/7
	if math.Abs(Variance(x)-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", Variance(x))
	}
	if math.Abs(Std(x)-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("Std = %v", Std(x))
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestMeanStdMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				x = append(x, math.Mod(v, 1e6))
			}
		}
		if len(x) < 2 {
			return true
		}
		m1, s1 := MeanStd(x)
		return math.Abs(m1-Mean(x)) < 1e-6 && math.Abs(s1-Std(x)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	x := []float64{3, -1, 4}
	if Min(x) != -1 || Max(x) != 4 {
		t.Fatal("Min/Max wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be ±Inf")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if Quantile(x, 0) != 1 || Quantile(x, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if Quantile(x, 0.25) != 2 {
		t.Fatalf("Q1 = %v", Quantile(x, 0.25))
	}
	// interpolation between order statistics
	y := []float64{0, 10}
	if Quantile(y, 0.5) != 5 {
		t.Fatalf("interpolated median = %v", Quantile(y, 0.5))
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	x := []float64{5, 1, 3}
	Quantile(x, 0.5)
	if x[0] != 5 || x[1] != 1 || x[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	obs := []float64{100, 100}
	if math.Abs(MAPE(pred, obs)-10) > 1e-12 {
		t.Fatalf("MAPE = %v, want 10", MAPE(pred, obs))
	}
	// zero observations skipped
	if math.Abs(MAPE([]float64{1, 110}, []float64{0, 100})-10) > 1e-12 {
		t.Fatal("MAPE should skip zero observations")
	}
	if !math.IsNaN(MAPE([]float64{1}, []float64{0})) {
		t.Fatal("MAPE with no valid pairs should be NaN")
	}
}

func TestMAPEPerfectPrediction(t *testing.T) {
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				x = append(x, v)
			}
		}
		if len(x) == 0 {
			return true
		}
		return MAPE(x, x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if math.Abs(Pearson(x, y)-1) > 1e-12 {
		t.Fatalf("perfect positive correlation = %v", Pearson(x, y))
	}
	ny := []float64{8, 6, 4, 2}
	if math.Abs(Pearson(x, ny)+1) > 1e-12 {
		t.Fatalf("perfect negative correlation = %v", Pearson(x, ny))
	}
	if Pearson(x, []float64{5, 5, 5, 5}) != 0 {
		t.Fatal("constant variable should give 0")
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 4, 9, 16, 25} // monotone but nonlinear
	if math.Abs(Spearman(x, y)-1) > 1e-12 {
		t.Fatalf("Spearman of monotone data = %v, want 1", Spearman(x, y))
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range data {
		w.Add(v)
	}
	if w.N() != len(data) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Welford mean = %v", w.Mean())
	}
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Welford variance = %v", w.Variance())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) {
		t.Fatal("empty Welford mean should be NaN")
	}
	if w.Variance() != 0 {
		t.Fatal("empty Welford variance should be 0")
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// X and Y independent by construction: all 4 combinations equally often
	var x, y []bool
	for i := 0; i < 400; i++ {
		x = append(x, i%2 == 0)
		y = append(y, (i/2)%2 == 0)
	}
	if mi := MutualInformationBinary(x, y); mi > 1e-9 {
		t.Fatalf("MI of independent variables = %v, want 0", mi)
	}
}

func TestMutualInformationIdentical(t *testing.T) {
	var x []bool
	for i := 0; i < 100; i++ {
		x = append(x, i%2 == 0)
	}
	mi := MutualInformationBinary(x, x)
	want := math.Log(2) // entropy of a fair coin, in nats
	if math.Abs(mi-want) > 1e-9 {
		t.Fatalf("MI(X;X) = %v, want %v", mi, want)
	}
}

func TestMutualInformationSymmetric(t *testing.T) {
	f := func(seed uint32) bool {
		n := 64
		x := make([]bool, n)
		y := make([]bool, n)
		s := seed
		next := func() uint32 { s = s*1664525 + 1013904223; return s }
		for i := 0; i < n; i++ {
			x[i] = next()%3 == 0
			y[i] = next()%2 == 0
		}
		a := MutualInformationBinary(x, y)
		b := MutualInformationBinary(y, x)
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMutualInformationNonNegative(t *testing.T) {
	f := func(xs, ys []bool) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		return MutualInformationBinary(xs[:n], ys[:n]) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMutualInformationBoundedByEntropy(t *testing.T) {
	// I(X;Y) <= H(X)
	f := func(xs, ys []bool) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		x, y := xs[:n], ys[:n]
		return MutualInformationBinary(x, y) <= EntropyBinary(x)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntropyBinaryExtremes(t *testing.T) {
	if EntropyBinary([]bool{true, true, true}) != 0 {
		t.Fatal("deterministic variable should have zero entropy")
	}
	h := EntropyBinary([]bool{true, false})
	if math.Abs(h-math.Log(2)) > 1e-12 {
		t.Fatalf("fair coin entropy = %v", h)
	}
}
