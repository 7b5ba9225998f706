// Package rfe implements recursive feature elimination over gradient
// boosted regression (§IV-B): repeatedly fit a model, drop the feature
// with the lowest importance, and repeat until no features remain. Features
// are scored by how often, across cross-validation folds, they belong to
// the best-performing subset — the relevance scores of Figure 9.
//
// Folds run concurrently on the shared execution engine; results are merged
// in fold order, so the output is identical at every worker count.
package rfe

import (
	"context"

	"dragonvar/internal/engine"
	"dragonvar/internal/gbr"
	"dragonvar/internal/linalg"
	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
)

// Options configures the elimination run.
type Options struct {
	Folds   int // cross-validation folds; default 10 (the paper's setting)
	GBR     gbr.Options
	Workers int // concurrent folds; default engine.Workers(0)
}

func (o Options) withDefaults() Options {
	if o.Folds < 2 {
		o.Folds = 10
	}
	return o
}

// Result is the outcome of an RFE run.
type Result struct {
	// Relevance[f] is the fraction of folds in which feature f was part of
	// the best-performing (lowest validation error) subset.
	Relevance []float64
	// Elimination[fold] lists features in elimination order (first
	// eliminated first; the last entry survived longest).
	Elimination [][]int
	// OOFPred holds out-of-fold predictions of the full-feature model,
	// aligned with the sample rows; used for the MAPE < 5% check of §V-B.
	OOFPred []float64
}

// foldResult is the output of one fold, merged serially after the pool.
type foldResult struct {
	elim, best []int
	fullPred   []float64
}

// Run performs cross-validated RFE on samples x (rows) and targets y.
func Run(x *linalg.Matrix, y []float64, opt Options, s *rng.Stream) *Result {
	opt = opt.withDefaults()
	n := x.Rows
	h := x.Cols
	res := &Result{
		Relevance:   make([]float64, h),
		Elimination: make([][]int, opt.Folds),
		OOFPred:     make([]float64, n),
	}

	// precompute fold index sets (shuffled contiguous blocks)
	perm := s.Split("folds").Perm(n)
	folds := make([][]int, opt.Folds)
	for f := 0; f < opt.Folds; f++ {
		lo, hi := f*n/opt.Folds, (f+1)*n/opt.Folds
		folds[f] = perm[lo:hi]
	}

	out, _ := engine.MapOrdered(context.Background(), opt.Workers, opt.Folds,
		func(_ context.Context, f int) (foldResult, error) {
			test := folds[f]
			train := make([]int, 0, n-len(test))
			for g := 0; g < opt.Folds; g++ {
				if g != f {
					train = append(train, folds[g]...)
				}
			}
			foldStream := s.Split("fold").Split(string(rune('a' + f)))
			elim, best, fullPred := eliminate(x, y, train, test, opt.GBR, foldStream)
			telemetry.C(telemetry.MRFERounds).Add(int64(len(elim)))
			return foldResult{elim: elim, best: best, fullPred: fullPred}, nil
		})

	for f, fr := range out {
		res.Elimination[f] = fr.elim
		for _, feat := range fr.best {
			res.Relevance[feat]++
		}
		for k, i := range folds[f] {
			res.OOFPred[i] = fr.fullPred[k]
		}
	}
	for i := range res.Relevance {
		res.Relevance[i] /= float64(opt.Folds)
	}
	return res
}

// eliminate runs one fold's RFE: returns the elimination order, the
// best-performing subset, and the full-feature model's test predictions.
func eliminate(x *linalg.Matrix, y []float64, train, test []int, opt gbr.Options, s *rng.Stream) (elim []int, best []int, fullPred []float64) {
	h := x.Cols
	features := make([]int, h)
	for i := range features {
		features[i] = i
	}

	bestErr := 0.0
	for round := 0; len(features) > 0; round++ {
		model := gbr.Fit(x, y, train, features, opt, s)
		if round == 0 {
			fullPred = model.PredictRows(x, test)
		}
		// validation error of the current subset
		var sse float64
		for _, i := range test {
			d := model.Predict(x.Row(i)) - y[i]
			sse += d * d
		}
		if round == 0 || sse < bestErr {
			bestErr = sse
			best = append(best[:0], features...)
		}
		// eliminate the worst feature (lowest importance among survivors)
		imp := model.Importance()
		worst := 0
		for k := 1; k < len(features); k++ {
			if imp[features[k]] < imp[features[worst]] {
				worst = k
			}
		}
		elim = append(elim, features[worst])
		features = append(features[:worst], features[worst+1:]...)
	}
	return elim, best, fullPred
}
