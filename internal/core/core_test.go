package core

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dragonvar/internal/apps"
	"dragonvar/internal/cluster"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/netsim"
	"dragonvar/internal/nn"
	"dragonvar/internal/topology"
)

// testCampaign generates (once) a small campaign shared by the package's
// tests: Small machine, 8 days, shortened AMG/MILC models.
var (
	campOnce sync.Once
	campVal  *dataset.Campaign
	clustVal *cluster.Cluster
)

func testCampaign(t *testing.T) (*dataset.Campaign, *cluster.Cluster) {
	t.Helper()
	campOnce.Do(func() {
		amg := *apps.Find(apps.AMG, 128)
		amg.Steps = 12
		milc := *apps.Find(apps.MILC, 128)
		milc.Steps = 32
		c, err := cluster.New(cluster.Config{
			Machine:        topology.Small(),
			Net:            netsim.DefaultConfig(),
			Days:           8,
			Seed:           7,
			Models:         []*apps.Model{&amg, &milc},
			MeanRunsPerDay: 2,
		})
		if err != nil {
			panic(err)
		}
		camp, err := c.RunCampaign()
		if err != nil {
			panic(err)
		}
		campVal, clustVal = camp, c
	})
	if campVal == nil {
		t.Fatal("campaign generation failed")
	}
	return campVal, clustVal
}

func TestAnalyzeNeighborhood(t *testing.T) {
	camp, _ := testCampaign(t)
	ds := camp.Get("MILC-128")
	res := AnalyzeNeighborhood(ds, NeighborhoodOptions{MinNodes: 32})
	if res.Runs != len(ds.Runs) {
		t.Fatalf("runs = %d", res.Runs)
	}
	if res.Optimal == 0 || res.Optimal == res.Runs {
		t.Fatalf("optimality split degenerate: %d/%d", res.Optimal, res.Runs)
	}
	if len(res.Users) == 0 {
		t.Fatal("no users analyzed")
	}
	// sorted by MI descending
	for i := 1; i < len(res.Users); i++ {
		if res.Users[i].MI > res.Users[i-1].MI {
			t.Fatal("users not sorted by MI")
		}
	}
	for _, u := range res.Users {
		if u.MI < 0 {
			t.Fatal("negative MI")
		}
		if u.Present <= 0 {
			t.Fatal("listed user never present")
		}
	}
}

func TestTopUsersRespectsPositiveMI(t *testing.T) {
	r := NeighborhoodResult{Users: []UserScore{
		{User: "User-2", MI: 0.5}, {User: "User-3", MI: 0.1}, {User: "User-4", MI: 0},
	}}
	top := r.TopUsers(5)
	if len(top) != 2 {
		t.Fatalf("TopUsers = %v", top)
	}
	if got := r.TopUsers(1); len(got) != 1 || got[0] != "User-2" {
		t.Fatalf("TopUsers(1) = %v", got)
	}
}

func TestTable3(t *testing.T) {
	camp, _ := testCampaign(t)
	rows, recurring := Table3(camp, NeighborhoodOptions{MinNodes: 32, TopK: 8})
	if len(rows) != len(camp.Datasets) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Dataset == "" || row.Nodes == 0 {
			t.Fatal("row metadata missing")
		}
		// users in rows must be recurring
		for _, u := range row.Users {
			if recurring[u] < 2 {
				t.Fatalf("user %s in row but not recurring", u)
			}
		}
		// numerically sorted
		for i := 1; i < len(row.Users); i++ {
			if len(row.Users[i]) < len(row.Users[i-1]) {
				t.Fatalf("users not numerically sorted: %v", row.Users)
			}
		}
	}
}

func TestAnalyzeDeviation(t *testing.T) {
	camp, _ := testCampaign(t)
	ds := camp.Get("MILC-128")
	res := AnalyzeDeviation(ds, DeviationOptions{Folds: 4, MaxSamples: 600}, 11)
	if len(res.Relevance) != counters.NumJob || len(res.FeatureNames) != counters.NumJob {
		t.Fatalf("relevance size = %d", len(res.Relevance))
	}
	for _, v := range res.Relevance {
		if v < 0 || v > 1 {
			t.Fatalf("relevance out of range: %v", v)
		}
	}
	if math.IsNaN(res.MAPE) || res.MAPE < 0 {
		t.Fatalf("MAPE = %v", res.MAPE)
	}
	// the §V-B claim, with slack for the tiny test campaign
	if res.MAPE > 20 {
		t.Fatalf("deviation MAPE = %v%%, expected small", res.MAPE)
	}
	if res.TopCounter() == "" {
		t.Fatal("no top counter")
	}
	want := len(ds.Runs) * ds.Steps()
	if want > 600 {
		want = 600
	}
	if res.Samples != want {
		t.Fatalf("samples = %d, want %d", res.Samples, want)
	}
}

func fastForecastOpts() ForecastOptions {
	return ForecastOptions{
		Folds: 3,
		NN: nn.Config{
			EmbedDim: 6, HiddenDim: 12, Epochs: 20, BatchSize: 16,
			LearningRate: 0.015, UseAttention: true, MaxSamples: 400,
		},
	}
}

func TestForecast(t *testing.T) {
	camp, _ := testCampaign(t)
	ds := camp.Get("MILC-128")
	spec := ForecastSpec{M: 5, K: 5, Features: counters.FeatureSet{}}
	res := Forecast(ds, spec, fastForecastOpts(), 13)
	if res.Windows == 0 {
		t.Fatal("no windows")
	}
	if math.IsNaN(res.MAPE) || res.MAPE <= 0 {
		t.Fatalf("MAPE = %v", res.MAPE)
	}
	if res.MAPE > 60 {
		t.Fatalf("MAPE = %v%%, model learned nothing", res.MAPE)
	}
}

// TestForecastGridMatchesCells checks that one grid, whose trainings share
// a worker pool, returns for every cell what Forecast returns for it alone,
// at any worker count — including a cell with no windows.
func TestForecastGridMatchesCells(t *testing.T) {
	camp, _ := testCampaign(t)
	milc, amg := camp.Get("MILC-128"), camp.Get("AMG-128")
	cells := []ForecastCell{
		{DS: milc, Spec: ForecastSpec{M: 5, K: 5}},
		{DS: amg, Spec: ForecastSpec{M: 10, K: 10}}, // no windows
		{DS: milc, Spec: ForecastSpec{M: 4, K: 6, Features: counters.FeatureSet{Placement: true}}},
	}
	opt := fastForecastOpts()
	opt.NN.Epochs = 4
	want := make([]ForecastResult, len(cells))
	for i, c := range cells {
		want[i] = Forecast(c.DS, c.Spec, opt, 13)
	}
	if want[1].MAPE != -1 || want[0].MAPE <= 0 || want[2].MAPE <= 0 {
		t.Fatalf("unexpected per-cell results %+v", want)
	}
	for _, workers := range []int{1, 3} {
		opt.Workers = workers
		got := ForecastGrid(cells, opt, 13)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d cell %d: grid %+v, alone %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForecastTooShort(t *testing.T) {
	camp, _ := testCampaign(t)
	ds := camp.Get("AMG-128") // 12 steps
	spec := ForecastSpec{M: 10, K: 10, Features: counters.FeatureSet{}}
	res := Forecast(ds, spec, fastForecastOpts(), 13)
	if res.MAPE != -1 {
		t.Fatalf("expected sentinel MAPE for impossible windows, got %v", res.MAPE)
	}
}

func TestForecastSpecString(t *testing.T) {
	spec := ForecastSpec{M: 30, K: 40, Features: counters.FeatureSet{Placement: true, IO: true}}
	if spec.String() != "m=30 k=40 app + placement + io" {
		t.Fatalf("String = %q", spec.String())
	}
}

func TestForecastImportances(t *testing.T) {
	camp, _ := testCampaign(t)
	ds := camp.Get("MILC-128")
	spec := ForecastSpec{M: 5, K: 5, Features: counters.FeatureSet{Placement: true}}
	names, imp := ForecastImportances(ds, spec, fastForecastOpts(), 17)
	if len(names) != spec.Features.Count() {
		t.Fatalf("names = %d", len(names))
	}
	if len(imp) != len(names) {
		t.Fatalf("importances = %d, names = %d", len(imp), len(names))
	}
	var total float64
	for _, v := range imp {
		if v < 0 {
			t.Fatal("negative importance")
		}
		total += v
	}
	if total == 0 {
		t.Fatal("all importances zero")
	}
}

func TestForecastLongRun(t *testing.T) {
	camp, cl := testCampaign(t)
	ds := camp.Get("MILC-128")
	milc := apps.Find(apps.MILC, 128)
	long, err := cl.SimulateLongRun(milc, 60, 86400, 23)
	if err != nil {
		t.Fatal(err)
	}
	spec := ForecastSpec{M: 8, K: 8, Features: counters.FeatureSet{}}
	segs := ForecastLongRun(ds, long, spec, fastForecastOpts(), 19)
	if len(segs) < 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	for i, sg := range segs {
		if sg.Observed <= 0 || sg.Predicted <= 0 {
			t.Fatalf("segment %d: obs %v pred %v", i, sg.Observed, sg.Predicted)
		}
		if i > 0 && sg.StartStep != segs[i-1].StartStep+spec.K {
			t.Fatal("segments not contiguous")
		}
	}
	if m := SegmentMAPE(segs); math.IsNaN(m) || m > 80 {
		t.Fatalf("segment MAPE = %v", m)
	}
}

func TestRelativePerformance(t *testing.T) {
	camp, _ := testCampaign(t)
	ds := camp.Get("MILC-128")
	pts := RelativePerformance(ds)
	if len(pts) != len(ds.Runs) {
		t.Fatalf("points = %d", len(pts))
	}
	sawBest := false
	for _, p := range pts {
		if p.Relative < 1 {
			t.Fatalf("relative perf below 1: %v", p.Relative)
		}
		if p.Relative == 1 {
			sawBest = true
		}
	}
	if !sawBest {
		t.Fatal("best run should have relative 1.0")
	}
	if MaxRelative(pts) <= 1 {
		t.Fatal("no variability in relative performance")
	}
	if RelativePerformance(&dataset.Dataset{}) != nil {
		t.Fatal("empty dataset should give nil series")
	}
}

// TestLoadOrGenerateCache: the cache serves exactly the campaign whose
// config identity it stores. A second identical request is a hit (it
// returns the marked copy written over the cache), and so is one that
// spells the perfect machine differently; a request that differs in any
// one identity field, the machine and the counter noise included,
// regenerates.
func TestLoadOrGenerateCache(t *testing.T) {
	amg := *apps.Find(apps.AMG, 128)
	amg.Steps = 4
	cfg := CampaignConfig{
		Cluster: cluster.Config{
			Machine:        topology.Small(),
			Days:           1,
			Seed:           31,
			Models:         []*apps.Model{&amg},
			MeanRunsPerDay: 1,
		},
		CachePath: filepath.Join(t.TempDir(), "camp.gob"),
	}
	a, err := LoadOrGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// mark the cached copy with an extra empty dataset: a hit returns the
	// mark, a regeneration does not
	const mark = "MARK-0"
	camp, err := dataset.Load(cfg.CachePath)
	if err != nil {
		t.Fatal(err)
	}
	camp.Datasets = append(camp.Datasets, &dataset.Dataset{Name: mark})
	if err := camp.Save(cfg.CachePath); err != nil {
		t.Fatal(err)
	}
	marked, err := os.ReadFile(cfg.CachePath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadOrGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Get(mark) == nil || b.TotalRuns() != a.TotalRuns() {
		t.Fatalf("second identical request regenerated instead of hitting the cache (%d runs, want %d)",
			b.TotalRuns(), a.TotalRuns())
	}

	// "none" spells the perfect machine too: still a hit
	none := cfg
	none.Cluster.FaultSpec = "none"
	if c, err := LoadOrGenerate(none); err != nil || c.Get(mark) == nil {
		t.Fatalf("faults %q missed the cache of a perfect-machine campaign (err %v)", "none", err)
	}

	otherMachine := topology.Small()
	otherMachine.IORoutersPerGroup++
	for name, change := range map[string]func(*cluster.Config){
		"seed":    func(c *cluster.Config) { c.Seed = 32 },
		"machine": func(c *cluster.Config) { c.Machine = otherMachine },
		"noise":   func(c *cluster.Config) { c.CounterNoise = 0.08 },
	} {
		if err := os.WriteFile(cfg.CachePath, marked, 0o644); err != nil {
			t.Fatal(err)
		}
		req := cfg
		change(&req.Cluster)
		c, err := LoadOrGenerate(req)
		if err != nil {
			t.Fatal(err)
		}
		if c.Get(mark) != nil {
			t.Errorf("request differing only in %s returned the cached campaign", name)
		}
	}
}

func TestAnalyzeDeviationEmptyDataset(t *testing.T) {
	res := AnalyzeDeviation(&dataset.Dataset{Name: "EMPTY-128"}, DeviationOptions{}, 1)
	if res.MAPE != -1 {
		t.Fatalf("empty dataset MAPE = %v, want -1 sentinel", res.MAPE)
	}
	if len(res.Relevance) != counters.NumJob || len(res.FeatureNames) != counters.NumJob {
		t.Fatal("empty result should still carry the feature axis")
	}
	for _, v := range res.Relevance {
		if v != 0 {
			t.Fatal("empty dataset should have zero relevance")
		}
	}
}

func TestForecastImportancesEmptyDataset(t *testing.T) {
	names, imp := ForecastImportances(&dataset.Dataset{Name: "EMPTY-128"},
		ForecastSpec{M: 3, K: 3}, ForecastOptions{}, 1)
	if imp != nil {
		t.Fatal("empty dataset should give nil importances")
	}
	if len(names) == 0 {
		t.Fatal("names should still be returned")
	}
}

func TestTable3EmptyCampaign(t *testing.T) {
	camp := &dataset.Campaign{Datasets: []*dataset.Dataset{{Name: "A-128", App: "A", Nodes: 128}}}
	rows, recurring := Table3(camp, NeighborhoodOptions{})
	if len(rows) != 1 || len(rows[0].Users) != 0 {
		t.Fatalf("rows = %+v", rows)
	}
	if len(recurring) != 0 {
		t.Fatal("no users should recur in an empty campaign")
	}
}
