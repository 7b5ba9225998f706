// Package nn implements the performance forecaster of §IV-C: a scalar
// dot-product attention layer over the feature vectors of the last m time
// steps, followed by a fully connected network that predicts the total
// execution time of the next k steps. Training is mini-batch Adam on mean
// squared error, with manual backpropagation — no external ML runtime.
//
// The architecture, per sample (window W ∈ R^{m×H}):
//
//	E_t   = norm(W_t)·We + be + pos_t    (embedding, d dims, learnable
//	                                      positional term)
//	K_t   = E_t·Wk     V_t = E_t·Wv      (keys and values)
//	α     = softmax(q·K_t / √d)          (scalar dot-product attention)
//	c     = Σ_t α_t V_t                  (context)
//	h     = relu(c·W1 + b1)
//	ŷ     = h·w2 + b2
//
// Inputs and targets are z-score normalized from training statistics.
// Setting Config.UseAttention to false replaces α with uniform weights
// (mean pooling) — the ablation baseline.
package nn

import (
	"context"
	"fmt"
	"math"
	"time"

	"dragonvar/internal/engine"
	"dragonvar/internal/linalg"
	"dragonvar/internal/rng"
	"dragonvar/internal/stats"
	"dragonvar/internal/telemetry"
)

// Sample is one forecasting example: the per-step features of the m
// historical steps and the aggregate target.
type Sample struct {
	Steps  [][]float64
	Target float64
}

// Config sets the forecaster's hyperparameters.
type Config struct {
	EmbedDim     int     // d; default 8
	HiddenDim    int     // fully connected width; default 16
	Epochs       int     // default 60
	BatchSize    int     // default 16
	LearningRate float64 // Adam step size; default 0.01
	UseAttention bool    // false = mean pooling ablation
	MaxSamples   int     // subsample cap for training; 0 = no cap
}

func (c Config) withDefaults() Config {
	if c.EmbedDim <= 0 {
		c.EmbedDim = 8
	}
	if c.HiddenDim <= 0 {
		c.HiddenDim = 16
	}
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.01
	}
	return c
}

// Forecaster is a trained model.
type Forecaster struct {
	cfg  Config
	m, h int // window length and feature count

	// parameters, one flat vector with named views
	params []float64
	we     []float64 // h×d
	be     []float64 // d
	pos    []float64 // m×d learnable positional embeddings
	wk     []float64 // d×d
	wv     []float64 // d×d
	q      []float64 // d
	w1     []float64 // d×p
	b1     []float64 // p
	w2     []float64 // p
	b2     []float64 // 1

	// normalization statistics from the training set
	featMu, featSigma []float64
	yMu, ySigma       float64
}

// newForecaster allocates parameters with small random init.
func newForecaster(m, h int, cfg Config, s *rng.Stream) *Forecaster {
	d, p := cfg.EmbedDim, cfg.HiddenDim
	total := h*d + d + m*d + d*d + d*d + d + d*p + p + p + 1
	f := &Forecaster{cfg: cfg, m: m, h: h, params: make([]float64, total)}
	f.carve()
	scale := func(fanIn int) float64 { return math.Sqrt(2 / float64(fanIn)) }
	fill := func(v []float64, sc float64) {
		for i := range v {
			v[i] = sc * s.NormFloat64()
		}
	}
	fill(f.we, scale(h))
	fill(f.pos, 0.1)
	fill(f.wk, scale(d))
	fill(f.wv, scale(d))
	fill(f.q, scale(d))
	fill(f.w1, scale(d))
	fill(f.w2, scale(p))
	return f
}

// carve sets the parameter views into the flat vector.
func (f *Forecaster) carve() {
	d, p := f.cfg.EmbedDim, f.cfg.HiddenDim
	h := f.h
	off := 0
	take := func(n int) []float64 {
		v := f.params[off : off+n]
		off += n
		return v
	}
	f.we = take(h * d)
	f.be = take(d)
	f.pos = take(f.m * d)
	f.wk = take(d * d)
	f.wv = take(d * d)
	f.q = take(d)
	f.w1 = take(d * p)
	f.b1 = take(p)
	f.w2 = take(p)
	f.b2 = take(1)
}

// scratch holds per-sample forward/backward buffers, reused across samples,
// and the transposed key and value weights the forward pass reads row by
// row. The transposes are copies: refresh them whenever the parameters
// change.
type scratch struct {
	norm  []float64 // m×h normalized input
	e     []float64 // m×d embeddings
	k     []float64 // m×d keys
	v     []float64 // m×d values
	score []float64 // m
	alpha []float64 // m
	ctx   []float64 // d
	pre1  []float64 // p
	hid   []float64 // p
	wkT   []float64 // d×d, wkT[a*d+b] = wk[b*d+a]
	wvT   []float64 // d×d, wvT[a*d+b] = wv[b*d+a]

	gE   []float64 // m×d
	gCtx []float64 // d
	gPre []float64 // p
	gSc  []float64 // m
	gK   []float64 // d, one row's key gradient
	gV   []float64 // d, one row's value gradient
}

func (f *Forecaster) newScratch() *scratch {
	d, p, m := f.cfg.EmbedDim, f.cfg.HiddenDim, f.m
	buf := make([]float64, m*f.h+4*m*d+3*m+2*d*d+4*d+3*p)
	take := func(n int) []float64 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	sc := &scratch{
		norm:  take(m * f.h),
		e:     take(m * d),
		k:     take(m * d),
		v:     take(m * d),
		score: take(m),
		alpha: take(m),
		ctx:   take(d),
		pre1:  take(p),
		hid:   take(p),
		wkT:   take(d * d),
		wvT:   take(d * d),
		gE:    take(m * d),
		gCtx:  take(d),
		gPre:  take(p),
		gSc:   take(m),
		gK:    take(d),
		gV:    take(d),
	}
	f.refresh(sc)
	return sc
}

// refresh copies the current key and value weights, transposed, into sc.
func (f *Forecaster) refresh(sc *scratch) {
	d := f.cfg.EmbedDim
	for b := 0; b < d; b++ {
		wk, wv := f.wk[b*d:(b+1)*d], f.wv[b*d:(b+1)*d]
		for a := range wk {
			sc.wkT[a*d+b] = wk[a]
			sc.wvT[a*d+b] = wv[a]
		}
	}
}

// The forward and backward passes below are written for speed but keep
// every float operation of the textbook loops, in the same order: each
// accumulator receives its terms one at a time in ascending index order,
// starting from the same value, and every exact-zero skip is kept. Only
// which accumulators are live at once changes, so the trained parameters
// are bit-identical to those of the straightforward formulation.

// forward computes the normalized-space prediction for one window.
func (f *Forecaster) forward(steps [][]float64, sc *scratch) float64 {
	d, p := f.cfg.EmbedDim, f.cfg.HiddenDim
	m, h := f.m, f.h
	mu, sigma := f.featMu[:h], f.featSigma[:h]
	we, be := f.we[:h*d], f.be[:d]
	// embeddings and projections
	for t := 0; t < m; t++ {
		row := steps[t][:h]
		nt := sc.norm[t*h : (t+1)*h]
		for j, x := range row {
			nt[j] = (x - mu[j]) / sigma[j]
		}
		// E_t[a] starts from be[a] + pos_t[a] and adds x_j·We[j][a] for
		// j ascending, four columns a at a time
		et := sc.e[t*d : (t+1)*d]
		pt := f.pos[t*d : (t+1)*d]
		a := 0
		for ; a+4 <= d; a += 4 {
			e0, e1, e2, e3 := be[a]+pt[a], be[a+1]+pt[a+1], be[a+2]+pt[a+2], be[a+3]+pt[a+3]
			for j, x := range nt {
				if x == 0 {
					continue
				}
				w := we[j*d+a : j*d+a+4]
				e0 += x * w[0]
				e1 += x * w[1]
				e2 += x * w[2]
				e3 += x * w[3]
			}
			et[a], et[a+1], et[a+2], et[a+3] = e0, e1, e2, e3
		}
		for ; a < d; a++ {
			e := be[a] + pt[a]
			for j, x := range nt {
				if x != 0 {
					e += x * we[j*d+a]
				}
			}
			et[a] = e
		}
		project(sc.wkT, et, sc.k[t*d:(t+1)*d])
		project(sc.wvT, et, sc.v[t*d:(t+1)*d])
	}
	// attention weights
	if f.cfg.UseAttention {
		inv := 1 / math.Sqrt(float64(d))
		for t := 0; t < m; t++ {
			sc.score[t] = linalg.Dot(f.q, sc.k[t*d:(t+1)*d]) * inv
		}
		linalg.Softmax(sc.score, sc.alpha)
	} else {
		for t := 0; t < m; t++ {
			sc.alpha[t] = 1 / float64(m)
		}
	}
	// context
	for a := 0; a < d; a++ {
		sc.ctx[a] = 0
	}
	for t := 0; t < m; t++ {
		linalg.Axpy(sc.alpha[t], sc.v[t*d:(t+1)*d], sc.ctx)
	}
	// head
	for j := 0; j < p; j++ {
		sum := f.b1[j]
		for a := 0; a < d; a++ {
			sum += sc.ctx[a] * f.w1[a*p+j]
		}
		sc.pre1[j] = sum
		if sum > 0 {
			sc.hid[j] = sum
		} else {
			sc.hid[j] = 0
		}
	}
	return linalg.Dot(sc.hid, f.w2) + f.b2[0]
}

// backward accumulates parameter gradients for one sample given the loss
// gradient dL/dŷ. Must be called right after forward with the same scratch.
func (f *Forecaster) backward(dOut float64, sc *scratch, grad []float64) {
	d, p := f.cfg.EmbedDim, f.cfg.HiddenDim
	m, h := f.m, f.h
	// carve gradient views (same layout as params)
	off := 0
	take := func(n int) []float64 {
		v := grad[off : off+n]
		off += n
		return v
	}
	gWe := take(h * d)
	gBe := take(d)
	gPos := take(m * d)
	gWk := take(d * d)
	gWv := take(d * d)
	gQ := take(d)
	gW1 := take(d * p)
	gB1 := take(p)
	gW2 := take(p)
	gB2 := take(1)

	// head
	gB2[0] += dOut
	for j := 0; j < p; j++ {
		gW2[j] += dOut * sc.hid[j]
		g := dOut * f.w2[j]
		if sc.pre1[j] <= 0 {
			g = 0
		}
		sc.gPre[j] = g
		gB1[j] += g
	}
	gPre := sc.gPre[:p]
	for a := 0; a < d; a++ {
		var s float64
		c := sc.ctx[a]
		w1 := f.w1[a*p : (a+1)*p]
		gw1 := gW1[a*p : (a+1)*p]
		for j, g := range gPre {
			if g == 0 {
				continue
			}
			gw1[j] += c * g
			s += w1[j] * g
		}
		sc.gCtx[a] = s
	}

	// attention: gAlpha_t = V_t · gCtx; softmax backward
	att := f.cfg.UseAttention
	var dot, inv float64
	if att {
		for t := 0; t < m; t++ {
			sc.gSc[t] = linalg.Dot(sc.v[t*d:(t+1)*d], sc.gCtx)
		}
		for t := 0; t < m; t++ {
			dot += sc.alpha[t] * sc.gSc[t]
		}
		inv = 1 / math.Sqrt(float64(d))
	}
	// gK_t = gScore_t·q and gV_t = alpha_t·gCtx flow through Wk and Wv
	// into E_t: gE_t[b] sums the Wk terms, then the Wv terms
	gK, gV := sc.gK[:d], sc.gV[:d]
	for t := 0; t < m; t++ {
		et := sc.e[t*d : (t+1)*d]
		ge := sc.gE[t*d : (t+1)*d]
		clear(ge)
		if att {
			gScore := sc.alpha[t] * (sc.gSc[t] - dot) * inv
			kt := sc.k[t*d : (t+1)*d]
			for a, k := range kt {
				gQ[a] += gScore * k
			}
			for a, q := range f.q[:d] {
				gK[a] = gScore * q
			}
			backProject(f.wk, gWk, gK, et, ge)
		}
		if at := sc.alpha[t]; at != 0 {
			for a, g := range sc.gCtx[:d] {
				gV[a] = at * g
			}
			backProject(f.wv, gWv, gV, et, ge)
		}
	}
	// embeddings
	for t := 0; t < m; t++ {
		ge := sc.gE[t*d : (t+1)*d]
		gp := gPos[t*d : (t+1)*d]
		for a, g := range ge {
			gBe[a] += g
			gp[a] += g
		}
	}
	// gWe[j][a] adds x_tj·gE_t[a] for t ascending, four columns a at a time
	norm, gE := sc.norm[:m*h], sc.gE[:m*d]
	for j := 0; j < h; j++ {
		gw := gWe[j*d : (j+1)*d]
		a := 0
		for ; a+4 <= d; a += 4 {
			g0, g1, g2, g3 := gw[a], gw[a+1], gw[a+2], gw[a+3]
			for t := 0; t < m; t++ {
				x := norm[t*h+j]
				if x == 0 {
					continue
				}
				ge := gE[t*d+a : t*d+a+4]
				g0 += x * ge[0]
				g1 += x * ge[1]
				g2 += x * ge[2]
				g3 += x * ge[3]
			}
			gw[a], gw[a+1], gw[a+2], gw[a+3] = g0, g1, g2, g3
		}
		for ; a < d; a++ {
			g := gw[a]
			for t := 0; t < m; t++ {
				if x := norm[t*h+j]; x != 0 {
					g += x * gE[t*d+a]
				}
			}
			gw[a] = g
		}
	}
}

// project sets y[a] = Σ_b x[b]·wT[a][b] (wT is W transposed, one row per
// output), each sum starting from zero and adding b ascending. Four rows
// run at once so their sums overlap.
func project(wT, x, y []float64) {
	d := len(x)
	a := 0
	for ; a+4 <= len(y); a += 4 {
		w0, w1, w2, w3 := wT[a*d:(a+1)*d], wT[(a+1)*d:(a+2)*d], wT[(a+2)*d:(a+3)*d], wT[(a+3)*d:(a+4)*d]
		var s0, s1, s2, s3 float64
		for b, xb := range x {
			s0 += xb * w0[b]
			s1 += xb * w1[b]
			s2 += xb * w2[b]
			s3 += xb * w3[b]
		}
		y[a], y[a+1], y[a+2], y[a+3] = s0, s1, s2, s3
	}
	for ; a < len(y); a++ {
		w := wT[a*d : (a+1)*d]
		var s float64
		for b, xb := range x {
			s += xb * w[b]
		}
		y[a] = s
	}
}

// backProject backpropagates the gradient g of y = x·W (W is d×d, row b
// holds the weights from input b) for every nonzero g[a]: it adds
// x[b]·g[a] to gw[b][a] and w[b][a]·g[a] to ge[b], for a ascending. Four
// rows run at once so their sums overlap.
func backProject(w, gw, g, x, ge []float64) {
	d := len(g)
	b := 0
	for ; b+4 <= d; b += 4 {
		x0, x1, x2, x3 := x[b], x[b+1], x[b+2], x[b+3]
		s0, s1, s2, s3 := ge[b], ge[b+1], ge[b+2], ge[b+3]
		w0, w1, w2, w3 := w[b*d:(b+1)*d], w[(b+1)*d:(b+2)*d], w[(b+2)*d:(b+3)*d], w[(b+3)*d:(b+4)*d]
		g0, g1, g2, g3 := gw[b*d:(b+1)*d], gw[(b+1)*d:(b+2)*d], gw[(b+2)*d:(b+3)*d], gw[(b+3)*d:(b+4)*d]
		for a, ga := range g {
			if ga == 0 {
				continue
			}
			g0[a] += x0 * ga
			s0 += w0[a] * ga
			g1[a] += x1 * ga
			s1 += w1[a] * ga
			g2[a] += x2 * ga
			s2 += w2[a] * ga
			g3[a] += x3 * ga
			s3 += w3[a] * ga
		}
		ge[b], ge[b+1], ge[b+2], ge[b+3] = s0, s1, s2, s3
	}
	for ; b < d; b++ {
		xb, s := x[b], ge[b]
		wb, gb := w[b*d:(b+1)*d], gw[b*d:(b+1)*d]
		for a, ga := range g {
			if ga != 0 {
				gb[a] += xb * ga
				s += wb[a] * ga
			}
		}
		ge[b] = s
	}
}

// Train fits a forecaster to the samples. All samples must share the same
// window shape. The stream drives initialization, shuffling, and the
// optional subsampling.
func Train(samples []Sample, cfg Config, s *rng.Stream) *Forecaster {
	if telemetry.Enabled() {
		telemetry.C(telemetry.MNNFits).Inc()
		defer telemetry.H(telemetry.MNNFitSecs, telemetry.SecondsBuckets).ObserveSince(time.Now())
	}
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		panic("nn: no training samples")
	}
	if cfg.MaxSamples > 0 && len(samples) > cfg.MaxSamples {
		idx := s.Perm(len(samples))[:cfg.MaxSamples]
		sub := make([]Sample, cfg.MaxSamples)
		for i, j := range idx {
			sub[i] = samples[j]
		}
		samples = sub
	}
	m := len(samples[0].Steps)
	h := len(samples[0].Steps[0])
	f := newForecaster(m, h, cfg, s)

	// normalization statistics
	f.featMu = make([]float64, h)
	f.featSigma = make([]float64, h)
	var ws stats.Welford
	col := make([]stats.Welford, h)
	for _, smp := range samples {
		ws.Add(smp.Target)
		for _, row := range smp.Steps {
			for j, v := range row {
				col[j].Add(v)
			}
		}
	}
	f.yMu, f.ySigma = ws.Mean(), ws.Std()
	if f.ySigma == 0 {
		f.ySigma = 1
	}
	for j := 0; j < h; j++ {
		f.featMu[j] = col[j].Mean()
		f.featSigma[j] = col[j].Std()
		if f.featSigma[j] == 0 {
			f.featSigma[j] = 1
		}
	}

	// Adam state
	grad := make([]float64, len(f.params))
	mAdam := make([]float64, len(f.params))
	vAdam := make([]float64, len(f.params))
	beta1, beta2, eps := 0.9, 0.999, 1e-8
	step := 0
	sc := f.newScratch()

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		s.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			for i := range grad {
				grad[i] = 0
			}
			for _, oi := range order[lo:hi] {
				smp := samples[oi]
				pred := f.forward(smp.Steps, sc)
				target := (smp.Target - f.yMu) / f.ySigma
				dOut := 2 * (pred - target) / float64(hi-lo)
				f.backward(dOut, sc, grad)
			}
			step++
			c1 := 1 - math.Pow(beta1, float64(step))
			c2 := 1 - math.Pow(beta2, float64(step))
			for i := range f.params {
				g := grad[i]
				mAdam[i] = beta1*mAdam[i] + (1-beta1)*g
				vAdam[i] = beta2*vAdam[i] + (1-beta2)*g*g
				f.params[i] -= cfg.LearningRate * (mAdam[i] / c1) / (math.Sqrt(vAdam[i]/c2) + eps)
			}
			f.refresh(sc)
		}
	}
	return f
}

// Predict returns the forecast (in target units) for one window,
// clamped to be non-negative (execution times cannot be negative, and the
// clamp keeps extrapolation outside the training regime sane).
func (f *Forecaster) Predict(steps [][]float64) float64 {
	sc := f.newScratch()
	return clampPred(f.forward(steps, sc)*f.ySigma + f.yMu)
}

// PredictAll returns forecasts for many samples, reusing buffers.
func (f *Forecaster) PredictAll(samples []Sample) []float64 {
	sc := f.newScratch()
	out := make([]float64, len(samples))
	for i, smp := range samples {
		out[i] = clampPred(f.forward(smp.Steps, sc)*f.ySigma + f.yMu)
	}
	return out
}

// clampPred floors predictions at zero.
func clampPred(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// MAPE evaluates the model on samples and returns the mean absolute
// percentage error (the metric of Figures 8 and 10).
func (f *Forecaster) MAPE(samples []Sample) float64 {
	pred := f.PredictAll(samples)
	obs := make([]float64, len(samples))
	for i, smp := range samples {
		obs[i] = smp.Target
	}
	return stats.MAPE(pred, obs)
}

// AttentionWeights returns the attention distribution over the m window
// positions for one sample (uniform when attention is disabled).
func (f *Forecaster) AttentionWeights(steps [][]float64) []float64 {
	sc := f.newScratch()
	f.forward(steps, sc)
	out := make([]float64, f.m)
	copy(out, sc.alpha)
	return out
}

// PermutationImportance measures each feature column's contribution: the
// increase in MAPE when that column is shuffled across samples (at every
// window position). Larger is more important; floors at 0.
//
// Feature columns are scored on up to workers goroutines (0 means
// engine.Workers); each column's shuffle uses its own stream split from s
// by column index, so the scores are identical at every worker count
// (inference is read-only on the trained model).
func (f *Forecaster) PermutationImportance(samples []Sample, s *rng.Stream, workers int) []float64 {
	base := f.MAPE(samples)
	out, _ := engine.MapOrdered(context.Background(), workers, f.h,
		func(_ context.Context, j int) (float64, error) {
			perm := make([]int, len(samples))
			for i := range perm {
				perm[i] = i
			}
			cs := s.Split(fmt.Sprintf("feat-%d", j))
			cs.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			shuffled := make([]Sample, len(samples))
			for i := range samples {
				src := samples[perm[i]]
				steps := make([][]float64, f.m)
				for t := 0; t < f.m; t++ {
					row := make([]float64, f.h)
					copy(row, samples[i].Steps[t])
					row[j] = src.Steps[t][j]
					steps[t] = row
				}
				shuffled[i] = Sample{Steps: steps, Target: samples[i].Target}
			}
			delta := f.MAPE(shuffled) - base
			if delta < 0 {
				delta = 0
			}
			return delta, nil
		})
	return out
}
