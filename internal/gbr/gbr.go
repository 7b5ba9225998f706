// Package gbr implements gradient boosted regression (Friedman, 2001) with
// least-squares loss over histogram-based regression trees — the predictive
// model of the paper's deviation analysis (§IV-B). With squared loss, the
// negative gradient is simply the residual, so each boosting round fits a
// tree to the current residuals and the ensemble accumulates
// learning-rate-scaled corrections.
package gbr

import (
	"dragonvar/internal/linalg"
	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/tree"
)

// Options configures boosting.
type Options struct {
	NumTrees     int     // boosting rounds; default 40
	LearningRate float64 // shrinkage; default 0.1
	Subsample    float64 // row fraction per round (stochastic GB); default 0.8
	Tree         tree.Options
}

func (o Options) withDefaults() Options {
	if o.NumTrees <= 0 {
		o.NumTrees = 40
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	if o.Subsample <= 0 || o.Subsample > 1 {
		o.Subsample = 0.8
	}
	return o
}

// Model is a fitted gradient boosted ensemble.
type Model struct {
	bias       float64
	lr         float64
	trees      []*tree.Regressor
	importance []float64
}

// Fit trains a model on the rows of x listed in idx (all rows when idx is
// nil), optionally restricted to the given feature columns (nil = all).
func Fit(x *linalg.Matrix, y []float64, idx []int, features []int, opt Options, s *rng.Stream) *Model {
	telemetry.C(telemetry.MGBRFits).Inc()
	opt = opt.withDefaults()
	if idx == nil {
		idx = make([]int, x.Rows)
		for i := range idx {
			idx[i] = i
		}
	}
	binner := tree.NewBinner(x, idx, opt.Tree.Bins)
	binned := binner.BinMatrix(x)

	m := &Model{lr: opt.LearningRate, importance: make([]float64, x.Cols)}
	// residuals over all rows (only idx rows are ever touched)
	resid := make([]float64, x.Rows)
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	m.bias = sum / float64(len(idx))
	for _, i := range idx {
		resid[i] = y[i] - m.bias
	}

	sub := make([]int, 0, len(idx))
	for round := 0; round < opt.NumTrees; round++ {
		sub = sub[:0]
		if opt.Subsample < 1 {
			for _, i := range idx {
				if s.Float64() < opt.Subsample {
					sub = append(sub, i)
				}
			}
			if len(sub) < 2 {
				sub = append(sub[:0], idx...)
			}
		} else {
			sub = append(sub, idx...)
		}
		t := tree.FitBinned(binned, binner, resid, sub, features, opt.Tree, s)
		m.trees = append(m.trees, t)
		for fi, g := range t.Importance() {
			m.importance[fi] += g
		}
		// update residuals on the full training set
		for _, i := range idx {
			resid[i] -= m.lr * t.Predict(x.Row(i))
		}
	}
	// normalize importances to sum to 1
	var total float64
	for _, v := range m.importance {
		total += v
	}
	if total > 0 {
		for i := range m.importance {
			m.importance[i] /= total
		}
	}
	return m
}

// Predict returns the model's prediction for one feature row.
func (m *Model) Predict(row []float64) float64 {
	out := m.bias
	for _, t := range m.trees {
		out += m.lr * t.Predict(row)
	}
	return out
}

// PredictRows returns predictions for the rows of x listed in idx (all
// rows when idx is nil).
func (m *Model) PredictRows(x *linalg.Matrix, idx []int) []float64 {
	if idx == nil {
		idx = make([]int, x.Rows)
		for i := range idx {
			idx[i] = i
		}
	}
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = m.Predict(x.Row(i))
	}
	return out
}

// Importance returns the normalized (sums to 1) gain-based feature
// importances. The slice aliases the model's storage.
func (m *Model) Importance() []float64 { return m.importance }

// NumTrees returns the number of boosting rounds performed.
func (m *Model) NumTrees() int { return len(m.trees) }
