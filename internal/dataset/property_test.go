package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"dragonvar/internal/counters"
	"dragonvar/internal/rng"
)

// randomDataset builds a dataset with randomized (but finite) step times
// and counters.
func randomDataset(seed int64, nRuns, nSteps int) *Dataset {
	s := rng.New(seed)
	d := &Dataset{Name: "RND-128", App: "RND", Nodes: 128}
	for i := 0; i < nRuns; i++ {
		r := &Run{Dataset: d.Name, RunID: i, Day: i % 10, NumRouters: 10 + s.Intn(20), NumGroups: 1 + s.Intn(8)}
		for st := 0; st < nSteps; st++ {
			r.StepTimes = append(r.StepTimes, s.Uniform(1, 100))
			r.Compute = append(r.Compute, s.Uniform(0.1, 5))
			var c [counters.NumJob]float64
			for j := range c {
				c[j] = s.Uniform(0, 1e9)
			}
			r.Counters = append(r.Counters, c)
			r.IO = append(r.IO, [counters.NumLDMS]float64{s.Float64(), s.Float64(), s.Float64(), s.Float64()})
			r.Sys = append(r.Sys, [counters.NumLDMS]float64{s.Float64(), s.Float64(), s.Float64(), s.Float64()})
		}
		d.Runs = append(d.Runs, r)
	}
	return d
}

func TestPropertyDeviationSamplesCentered(t *testing.T) {
	f := func(seed int64, rawRuns, rawSteps uint8) bool {
		nRuns := int(rawRuns%8) + 2
		nSteps := int(rawSteps%12) + 2
		d := randomDataset(seed, nRuns, nSteps)
		x, y, stepMean, stepOf := d.DeviationSamples()
		if x.Rows != nRuns*nSteps || len(stepMean) != nSteps || len(stepOf) != x.Rows {
			return false
		}
		// per step, deviations sum to ~0 over runs, for target and every feature
		for st := 0; st < nSteps; st++ {
			var ySum float64
			fSum := make([]float64, x.Cols)
			for ri := 0; ri < nRuns; ri++ {
				row := x.Row(ri*nSteps + st)
				ySum += y[ri*nSteps+st]
				for j, v := range row {
					fSum[j] += v
				}
			}
			if math.Abs(ySum) > 1e-6 {
				return false
			}
			for _, v := range fSum {
				if math.Abs(v) > 1e-3 { // counters are ~1e9; relative tolerance
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWindowsTargetsConsistent(t *testing.T) {
	f := func(seed int64, rawM, rawK uint8) bool {
		m := int(rawM%5) + 1
		k := int(rawK%5) + 1
		d := randomDataset(seed, 3, 12)
		ws := d.BuildWindowsGap(counters.FeatureSet{Placement: true}, m, k, GapImpute)
		for _, w := range ws {
			if len(w.Steps) != m {
				return false
			}
			r := d.Runs[w.RunIdx]
			var want float64
			for i := w.TC; i < w.TC+k; i++ {
				want += r.StepTimes[i]
			}
			if math.Abs(w.Target-want) > 1e-9 {
				return false
			}
			// features of the last window step are the step tc-1's counters
			lastRow := w.Steps[m-1]
			if lastRow[0] != r.Counters[w.TC-1][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOptimalityThreshold(t *testing.T) {
	// raising τ can only mark more runs optimal
	f := func(seed int64) bool {
		d := randomDataset(seed, 6, 4)
		loose := d.Optimality(1.2)
		strict := d.Optimality(0.8)
		for i := range loose {
			if strict[i] && !loose[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
