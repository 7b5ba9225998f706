package dataset

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragonvar/internal/counters"
	"dragonvar/internal/rng"
)

// synthetic builds a small dataset with a known trend: step time = 10+s
// plus a per-run offset of runIdx, counter 0 = 100*(s+1) plus runIdx.
func synthetic(nRuns, nSteps int) *Dataset {
	d := &Dataset{Name: "TEST-128", App: "TEST", Nodes: 128}
	for i := 0; i < nRuns; i++ {
		r := &Run{
			Dataset: d.Name, RunID: i, Day: i,
			NumRouters: 30 + i, NumGroups: 5,
		}
		for s := 0; s < nSteps; s++ {
			r.StepTimes = append(r.StepTimes, float64(10+s+i))
			r.Compute = append(r.Compute, 2)
			var c [counters.NumJob]float64
			c[0] = float64(100*(s+1) + i)
			r.Counters = append(r.Counters, c)
			r.IO = append(r.IO, [counters.NumLDMS]float64{float64(s), 0, 0, 0})
			r.Sys = append(r.Sys, [counters.NumLDMS]float64{0, float64(i), 0, 0})
		}
		r.Neighbors = []NeighborJob{
			{User: "User-2", MaxNodes: 256},
			{User: "User-20", MaxNodes: 16},
		}
		if i%2 == 0 {
			r.Neighbors = append(r.Neighbors, NeighborJob{User: "User-11", MaxNodes: 512})
		}
		d.Runs = append(d.Runs, r)
	}
	return d
}

func TestRunTotals(t *testing.T) {
	d := synthetic(2, 3)
	r := d.Runs[0]
	if r.Steps() != 3 {
		t.Fatalf("Steps = %d", r.Steps())
	}
	if r.TotalTime() != 10+11+12 {
		t.Fatalf("TotalTime = %v", r.TotalTime())
	}
	if r.TotalCompute() != 6 {
		t.Fatalf("TotalCompute = %v", r.TotalCompute())
	}
}

func TestMeanStepTimes(t *testing.T) {
	d := synthetic(4, 5)
	mean := d.MeanStepTimes()
	// per-run offset averages to (0+1+2+3)/4 = 1.5
	for s, v := range mean {
		want := float64(10+s) + 1.5
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("mean step %d = %v, want %v", s, v, want)
		}
	}
}

func TestMeanCounterTrend(t *testing.T) {
	d := synthetic(4, 5)
	trend := d.MeanCounterTrend(0)
	for s, v := range trend {
		want := float64(100*(s+1)) + 1.5
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("counter trend step %d = %v, want %v", s, v, want)
		}
	}
}

func TestBestAndMeanTotalTime(t *testing.T) {
	d := synthetic(4, 2)
	// run i total = (10+i)+(11+i) = 21+2i → best 21, mean 24
	if d.BestTotalTime() != 21 {
		t.Fatalf("best = %v", d.BestTotalTime())
	}
	if d.MeanTotalTime() != 24 {
		t.Fatalf("mean = %v", d.MeanTotalTime())
	}
}

func TestOptimality(t *testing.T) {
	d := synthetic(4, 2)
	opt := d.Optimality(1.0)
	// totals 21,23,25,27; mean 24 → runs 0,1 optimal
	want := []bool{true, true, false, false}
	for i := range want {
		if opt[i] != want[i] {
			t.Fatalf("optimality = %v, want %v", opt, want)
		}
	}
}

func TestCooccurrence(t *testing.T) {
	d := synthetic(4, 2)
	users, m := d.Cooccurrence(128)
	// User-20's jobs are too small; User-2 always present, User-11 on even runs
	if len(users) != 2 || users[0] != "User-11" || users[1] != "User-2" {
		t.Fatalf("vocab = %v", users)
	}
	for i, row := range m {
		if !row[1] {
			t.Fatalf("User-2 missing from run %d", i)
		}
		if row[0] != (i%2 == 0) {
			t.Fatalf("User-11 presence wrong for run %d", i)
		}
	}
	// minNodes 1 admits the small user too
	users, _ = d.Cooccurrence(1)
	if len(users) != 3 {
		t.Fatalf("vocab with minNodes=1: %v", users)
	}
}

func TestDeviationSamplesCentered(t *testing.T) {
	d := synthetic(4, 5)
	x, y, stepMean, stepOf := d.DeviationSamples()
	if x.Rows != 4*5 || x.Cols != counters.NumJob {
		t.Fatalf("X shape = %dx%d", x.Rows, x.Cols)
	}
	if len(stepMean) != 5 {
		t.Fatal("stepMean length wrong")
	}
	// gap-free dataset: row i is step i%5 of run i/5
	for i, s := range stepOf {
		if s != i%5 {
			t.Fatalf("stepOf[%d] = %d, want %d", i, s, i%5)
		}
	}
	// each step's samples must be centered: mean over runs = 0
	for s := 0; s < 5; s++ {
		var tySum, c0Sum float64
		for r := 0; r < 4; r++ {
			tySum += y[r*5+s]
			c0Sum += x.At(r*5+s, 0)
		}
		if math.Abs(tySum) > 1e-9 || math.Abs(c0Sum) > 1e-9 {
			t.Fatalf("step %d not centered: y %v, c0 %v", s, tySum, c0Sum)
		}
	}
	// deviation + mean reconstructs the absolute time
	r0 := d.Runs[0]
	for s := 0; s < 5; s++ {
		if math.Abs(y[s]+stepMean[s]-r0.StepTimes[s]) > 1e-9 {
			t.Fatal("deviation does not reconstruct absolute time")
		}
	}
}

func TestFeatureVectorColumnOrder(t *testing.T) {
	d := synthetic(1, 3)
	r := d.Runs[0]
	fs := counters.FeatureSet{Placement: true, IO: true, Sys: true}
	v := r.FeatureVector(1, fs, nil)
	if len(v) != fs.Count() {
		t.Fatalf("feature vector length %d, want %d", len(v), fs.Count())
	}
	if v[0] != r.Counters[1][0] {
		t.Fatal("app counters first")
	}
	if v[counters.NumJob] != float64(r.NumRouters) || v[counters.NumJob+1] != float64(r.NumGroups) {
		t.Fatal("placement features misplaced")
	}
	if v[counters.NumJob+2] != r.IO[1][0] {
		t.Fatal("io features misplaced")
	}
	if v[counters.NumJob+2+counters.NumLDMS+1] != r.Sys[1][1] {
		t.Fatal("sys features misplaced")
	}
}

func TestBuildWindows(t *testing.T) {
	d := synthetic(2, 10)
	fs := counters.FeatureSet{}
	m, k := 3, 2
	ws := d.BuildWindowsGap(fs, m, k, GapImpute)
	// per run: tc from 3 to 8 inclusive = 6 windows
	if len(ws) != 2*6 {
		t.Fatalf("window count = %d, want 12", len(ws))
	}
	w := ws[0]
	if w.TC != 3 || len(w.Steps) != 3 || len(w.Steps[0]) != counters.NumJob {
		t.Fatalf("first window shape wrong: %+v", w)
	}
	// target = steps 3 and 4 of run 0: (10+3+0)+(10+4+0) = 27
	if w.Target != 27 {
		t.Fatalf("target = %v, want 27", w.Target)
	}
	// last window of run 0 has tc = 8, target = steps 8,9 = 18+19 = 37
	last := ws[5]
	if last.TC != 8 || last.Target != 37 {
		t.Fatalf("last window = %+v", last)
	}
}

func TestBuildWindowsTooShort(t *testing.T) {
	d := synthetic(2, 4)
	if ws := d.BuildWindowsGap(counters.FeatureSet{}, 3, 2, GapImpute); len(ws) != 0 {
		t.Fatalf("windows from too-short runs: %d", len(ws))
	}
}

func TestKFold(t *testing.T) {
	s := rng.New(7)
	n, k := 23, 5
	seen := make([]int, n)
	folds := 0
	KFold(n, k, s, func(fold int, train, test []int) {
		folds++
		if len(train)+len(test) != n {
			t.Fatalf("fold %d sizes %d+%d != %d", fold, len(train), len(test), n)
		}
		inTest := map[int]bool{}
		for _, i := range test {
			seen[i]++
			inTest[i] = true
		}
		for _, i := range train {
			if inTest[i] {
				t.Fatal("index in both train and test")
			}
		}
	})
	if folds != k {
		t.Fatalf("folds = %d", folds)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appeared in %d test folds", i, c)
		}
	}
}

func TestKFoldDegenerate(t *testing.T) {
	s := rng.New(7)
	count := 0
	KFold(3, 10, s, func(fold int, train, test []int) {
		count++
		if len(test) != 1 {
			t.Fatalf("k>n should reduce to leave-one-out, test = %v", test)
		}
	})
	if count != 3 {
		t.Fatalf("folds = %d", count)
	}
}

func TestCampaignSaveLoad(t *testing.T) {
	c := &Campaign{
		Seed: 42, Days: 130,
		Datasets: []*Dataset{synthetic(3, 4), {Name: "OTHER-512", App: "OTHER", Nodes: 512}},
	}
	path := filepath.Join(t.TempDir(), "campaign.gob")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.Days != 130 || len(got.Datasets) != 2 {
		t.Fatalf("metadata lost: %+v", got)
	}
	if got.TotalRuns() != 3 {
		t.Fatalf("TotalRuns = %d", got.TotalRuns())
	}
	d := got.Get("TEST-128")
	if d == nil {
		t.Fatal("Get failed")
	}
	if got.Get("NOPE") != nil {
		t.Fatal("Get of missing dataset should be nil")
	}
	r := d.Runs[1]
	if r.StepTimes[2] != synthetic(3, 4).Runs[1].StepTimes[2] {
		t.Fatal("step times corrupted by roundtrip")
	}
	if r.Neighbors[0].User != "User-2" {
		t.Fatal("neighbors corrupted by roundtrip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadCorruptCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.gob")
	if err := os.WriteFile(path, []byte("this is not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil {
		t.Fatal("corrupt cache loaded without error")
	}
	if !strings.Contains(err.Error(), "corrupt campaign cache") {
		t.Fatalf("error is not descriptive: %v", err)
	}
}

func TestLoadDimensionMismatch(t *testing.T) {
	// a structurally broken campaign — one run's counter slice is shorter
	// than its step times — must fail Load's validation, not panic later
	c := &Campaign{Seed: 1, Days: 2, Datasets: []*Dataset{synthetic(2, 4)}}
	c.Datasets[0].Runs[1].Counters = c.Datasets[0].Runs[1].Counters[:2]
	path := filepath.Join(t.TempDir(), "mismatch.gob")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil {
		t.Fatal("dimension mismatch loaded without error")
	}
	if !strings.Contains(err.Error(), "observation lengths disagree") {
		t.Fatalf("error is not descriptive: %v", err)
	}
}

func TestValidateMissingMarkers(t *testing.T) {
	c := &Campaign{Datasets: []*Dataset{synthetic(2, 4)}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Datasets[0].Runs[0].Missing = []bool{true} // wrong length
	if err := c.Validate(); err == nil {
		t.Fatal("short missing-marker slice passed validation")
	}
	c.Datasets[0].Runs[0].Missing = make([]bool, 4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// uneven step counts within a dataset are rejected
	c.Datasets[0].Runs[1].StepTimes = c.Datasets[0].Runs[1].StepTimes[:3]
	c.Datasets[0].Runs[1].Compute = c.Datasets[0].Runs[1].Compute[:3]
	c.Datasets[0].Runs[1].Counters = c.Datasets[0].Runs[1].Counters[:3]
	c.Datasets[0].Runs[1].IO = c.Datasets[0].Runs[1].IO[:3]
	c.Datasets[0].Runs[1].Sys = c.Datasets[0].Runs[1].Sys[:3]
	if err := c.Validate(); err == nil {
		t.Fatal("uneven step counts passed validation")
	}
}
