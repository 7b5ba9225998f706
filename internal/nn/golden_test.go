package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dragonvar/internal/rng"
)

// goldenTrain pins the trained forecaster's bits: each case trains a
// seeded model and hashes (FNV-1a) the float bits of every parameter and
// of PredictAll on held-out windows. The matrix covers attention on and
// off, embedding widths that are and are not multiples of four, narrow
// and wide feature rows, exact-zero normalized features (a constant
// column, and a held-out window equal to the training means), MaxSamples
// subsampling and a final short batch. The values were recorded before
// the forward and backward passes were restructured; never regenerate
// them to make a change pass.
var goldenTrain = map[string]uint64{
	"att/d=8/h=2":         0x922a0dd2b137d474,
	"att/d=8/h=13":        0x4c545be94a92bc3c,
	"att/d=8/h=40":        0xd15a84f8f6227142,
	"att/d=6/h=2":         0x73c833edafd74839,
	"att/d=6/h=13":        0xfc5b5fa7f1981137,
	"att/d=6/h=40":        0x10412659e57a816c,
	"att/d=3/h=2":         0x3442bb2fee7f996b,
	"att/d=3/h=13":        0xa032b566658f904f,
	"att/d=3/h=40":        0x4a34b71b538b8dec,
	"pool/d=8/h=2":        0x92077088d08ca0ce,
	"pool/d=8/h=13":       0xeb824c1761468124,
	"pool/d=8/h=40":       0xc595c2097036348d,
	"pool/d=6/h=2":        0x13c614990117c841,
	"pool/d=6/h=13":       0x2aeb8a45864ecee,
	"pool/d=6/h=40":       0x8b6e91d6cdafb2b,
	"pool/d=3/h=2":        0x79a336fc5b7121a7,
	"pool/d=3/h=13":       0x3c857b083560e7b,
	"pool/d=3/h=40":       0x98365edb911d24b2,
	"att/d=8/h=13/max=50": 0x7d7ba7217befc4c0,
}

// goldenWindows builds n windows of m steps × h features. Column 0 is
// constant, so its normalized value is exactly zero everywhere.
func goldenWindows(n, m, h int, s *rng.Stream) []Sample {
	out := make([]Sample, n)
	for i := range out {
		steps := make([][]float64, m)
		for t := range steps {
			row := make([]float64, h)
			row[0] = 7
			for j := 1; j < h; j++ {
				row[j] = s.Float64() * float64(j+1)
			}
			steps[t] = row
		}
		last := steps[m-1]
		target := 40 + 3*last[1] + 0.5*steps[0][h-1] + s.NormFloat64()
		out[i] = Sample{Steps: steps, Target: target}
	}
	return out
}

func TestTrainGolden(t *testing.T) {
	const m = 6
	for _, att := range []bool{true, false} {
		for _, d := range []int{8, 6, 3} {
			for _, h := range []int{2, 13, 40} {
				name := fmt.Sprintf("pool/d=%d/h=%d", d, h)
				if att {
					name = fmt.Sprintf("att/d=%d/h=%d", d, h)
				}
				// 61 samples in batches of 16 leave a final batch of 13
				cfg := Config{EmbedDim: d, HiddenDim: 7, Epochs: 3, BatchSize: 16,
					LearningRate: 0.02, UseAttention: att}
				checkTrainGolden(t, name, 61, m, h, cfg)
			}
		}
	}
	cfg := Config{EmbedDim: 8, HiddenDim: 16, Epochs: 2, BatchSize: 16,
		LearningRate: 0.01, UseAttention: true, MaxSamples: 50}
	checkTrainGolden(t, "att/d=8/h=13/max=50", 200, m, 13, cfg)
}

func checkTrainGolden(t *testing.T, name string, n, m, h int, cfg Config) {
	t.Helper()
	s := rng.NewLabeled(77, name)
	train := goldenWindows(n, m, h, s.Split("train"))
	test := goldenWindows(20, m, h, s.Split("test"))
	f := Train(train, cfg, s.Split("fit"))
	// a held-out window at the training means normalizes to exact zeros
	for _, row := range test[0].Steps {
		copy(row, f.featMu)
	}
	hs := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		hs.Write(buf[:])
	}
	for _, v := range f.params {
		put(v)
	}
	for _, v := range f.PredictAll(test) {
		put(v)
	}
	if got, want := hs.Sum64(), goldenTrain[name]; got != want {
		t.Errorf("%s: trained-model hash = %#x, want %#x", name, got, want)
	}
}
