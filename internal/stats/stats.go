// Package stats implements the statistical primitives used by the
// variability analyses: summary statistics, quantiles, correlation, mean
// absolute percentage error, and the plug-in mutual-information estimator of
// §IV-A of the paper (Eq. 1).
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x; NaN for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the unbiased sample variance of x (0 when len < 2).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)-1)
}

// Std returns the unbiased sample standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// MeanStd returns both the mean and standard deviation in one pass over the
// data (Welford's algorithm).
func MeanStd(x []float64) (mean, std float64) {
	var w Welford
	for _, v := range x {
		w.Add(v)
	}
	return w.Mean(), w.Std()
}

// Min returns the minimum of x; +Inf for an empty slice.
func Min(x []float64) float64 {
	m := math.Inf(1)
	for _, v := range x {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x; -Inf for an empty slice.
func Max(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of x using linear
// interpolation between order statistics. x is not modified.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MAPE returns the mean absolute percentage error between predictions and
// observations, in percent, as reported in Figures 8 and 10 of the paper.
// Pairs whose observed value is zero, or where either side is NaN or Inf
// (e.g. a missing-sample marker that leaked into a prediction), are skipped.
func MAPE(pred, obs []float64) float64 {
	if len(pred) != len(obs) {
		panic("stats: MAPE length mismatch")
	}
	var s float64
	n := 0
	for i, o := range obs {
		if o == 0 {
			continue
		}
		if math.IsNaN(o) || math.IsInf(o, 0) || math.IsNaN(pred[i]) || math.IsInf(pred[i], 0) {
			continue
		}
		s += math.Abs((pred[i] - o) / o)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * s / float64(n)
}

// Pearson returns the Pearson linear correlation coefficient between x and
// y; 0 when either is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Ranks returns the fractional ranks of x (average rank for ties), 1-based.
func Ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		// average rank for the tie group [i, j]
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns the Spearman rank correlation between x and y.
func Spearman(x, y []float64) float64 {
	return Pearson(Ranks(x), Ranks(y))
}

// Welford accumulates a running mean and variance in one pass.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds a value into the accumulator.
func (w *Welford) Add(v float64) {
	w.n++
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N returns the number of values accumulated.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN if empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased running variance (0 when n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the unbiased running standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }
