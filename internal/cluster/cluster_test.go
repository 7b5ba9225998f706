package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"dragonvar/internal/apps"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/netsim"
	"dragonvar/internal/slurm"
	"dragonvar/internal/topology"
	"dragonvar/internal/traceio"
)

// tinyModels returns shortened copies of two datasets so campaign tests
// stay fast.
func tinyModels() []*apps.Model {
	amg := *apps.Find(apps.AMG, 128)
	amg.Steps = 6
	milc := *apps.Find(apps.MILC, 128)
	milc.Steps = 10
	return []*apps.Model{&amg, &milc}
}

func tinyConfig(seed int64) Config {
	return Config{
		Machine:        topology.Small(),
		Net:            netsim.DefaultConfig(),
		Days:           5,
		Seed:           seed,
		Models:         tinyModels(),
		MeanRunsPerDay: 2,
	}
}

func runTinyCampaign(t *testing.T, seed int64) *dataset.Campaign {
	t.Helper()
	c, err := New(tinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

func TestCampaignProducesDatasets(t *testing.T) {
	camp := runTinyCampaign(t, 100)
	if len(camp.Datasets) != 2 {
		t.Fatalf("datasets = %d", len(camp.Datasets))
	}
	for _, ds := range camp.Datasets {
		if len(ds.Runs) < 2 {
			t.Fatalf("%s has only %d runs", ds.Name, len(ds.Runs))
		}
		for _, r := range ds.Runs {
			if r.Steps() == 0 {
				t.Fatalf("%s run %d has no steps", ds.Name, r.RunID)
			}
			if r.NumRouters == 0 || r.NumGroups == 0 {
				t.Fatal("placement features missing")
			}
			for s := 0; s < r.Steps(); s++ {
				if r.StepTimes[s] <= 0 {
					t.Fatalf("non-positive step time at step %d", s)
				}
				if r.Counters[s][0] < 0 {
					t.Fatal("negative counter delta")
				}
			}
			if r.Profile.Total() <= 0 {
				t.Fatal("empty MPI profile")
			}
		}
	}
	amg := camp.Get("AMG-128")
	if amg.Steps() != 6 {
		t.Fatalf("AMG steps = %d", amg.Steps())
	}
}

func TestCampaignCountersCarrySignal(t *testing.T) {
	camp := runTinyCampaign(t, 101)
	ds := camp.Get("MILC-128")
	// per-run counter sums must vary across runs (different congestion)
	var totals []float64
	for _, r := range ds.Runs {
		var sum float64
		for s := 0; s < r.Steps(); s++ {
			sum += r.Counters[s][3] // RT_RB_STL
		}
		totals = append(totals, sum)
	}
	allEqual := true
	for i := 1; i < len(totals); i++ {
		if totals[i] != totals[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("stall counters identical across runs — no congestion signal")
	}
}

func TestCampaignStepTimesVaryAcrossRuns(t *testing.T) {
	camp := runTinyCampaign(t, 102)
	for _, ds := range camp.Datasets {
		best, worst := math.Inf(1), math.Inf(-1)
		for _, r := range ds.Runs {
			tt := r.TotalTime()
			if tt < best {
				best = tt
			}
			if tt > worst {
				worst = tt
			}
		}
		if worst <= best {
			t.Fatalf("%s: no run-to-run variability (best=%v worst=%v)", ds.Name, best, worst)
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a := runTinyCampaign(t, 103)
	b := runTinyCampaign(t, 103)
	da, db := a.Get("AMG-128"), b.Get("AMG-128")
	if len(da.Runs) != len(db.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(da.Runs), len(db.Runs))
	}
	for i := range da.Runs {
		if da.Runs[i].TotalTime() != db.Runs[i].TotalTime() {
			t.Fatal("campaign not deterministic")
		}
	}
}

func TestNeighborsRecorded(t *testing.T) {
	camp := runTinyCampaign(t, 104)
	sawNeighbor := false
	for _, ds := range camp.Datasets {
		for _, r := range ds.Runs {
			for _, n := range r.Neighbors {
				if n.User == "" || n.MaxNodes <= 0 {
					t.Fatalf("bad neighbor record %+v", n)
				}
				sawNeighbor = true
			}
		}
	}
	if !sawNeighbor {
		t.Fatal("no neighbors recorded in the whole campaign")
	}
}

func TestNeighborsIncludeUser8OnOverlap(t *testing.T) {
	c, err := New(tinyConfig(111))
	if err != nil {
		t.Fatal(err)
	}
	m := tinyModels()[0]
	// two fabricated overlapping plans
	p1 := &plan{model: m, start: 1000, estEnd: 1600, nodes: []topology.NodeID{0}}
	p2 := &plan{model: m, start: 1200, estEnd: 1800, nodes: make([]topology.NodeID, 128)}
	neigh := c.neighbors(p1, []*plan{p1, p2}, 0, 1600)
	found := false
	for _, n := range neigh {
		if n.User == "User-8" && n.MaxNodes == 128 {
			found = true
		}
	}
	if !found {
		t.Fatalf("User-8 missing from neighborhood: %+v", neigh)
	}
	// non-overlapping plan must not appear
	p3 := &plan{model: m, start: 5000, estEnd: 6000, nodes: make([]topology.NodeID, 128)}
	neigh = c.neighbors(p1, []*plan{p1, p3}, 0, 1600)
	for _, n := range neigh {
		if n.User == "User-8" {
			t.Fatal("non-overlapping run recorded as neighbor")
		}
	}
}

func TestMPIFractionSurvivesSimulation(t *testing.T) {
	camp := runTinyCampaign(t, 105)
	ds := camp.Get("MILC-128")
	r := ds.Runs[0]
	frac := r.Profile.Total() / r.TotalTime()
	// MILC is 89% MPI at baseline; congestion only raises it
	if frac < 0.80 || frac > 1.0 {
		t.Fatalf("MILC MPI fraction = %v", frac)
	}
}

func TestSummarizeProfiles(t *testing.T) {
	camp := runTinyCampaign(t, 106)
	ds := camp.Get("AMG-128")
	sum := SummarizeProfiles(ds)
	if sum.BestMPI <= 0 || sum.WorstMPI <= 0 || sum.AvgMPI <= 0 {
		t.Fatal("profile summary empty")
	}
	if sum.BestCompute+sum.BestMPI > sum.WorstCompute+sum.WorstMPI {
		t.Fatal("best run is slower than worst run")
	}
	// average lies between best and worst in MPI time
	if sum.AvgMPI < sum.BestMPI*0.5 || sum.AvgMPI > sum.WorstMPI*1.5 {
		t.Fatalf("average MPI time implausible: best %v avg %v worst %v",
			sum.BestMPI, sum.AvgMPI, sum.WorstMPI)
	}
	if SummarizeProfiles(&dataset.Dataset{}).AvgMPI != 0 {
		t.Fatal("empty dataset should summarize to zero")
	}
}

func TestSimulateLongRun(t *testing.T) {
	c, err := New(tinyConfig(107))
	if err != nil {
		t.Fatal(err)
	}
	milc := apps.Find(apps.MILC, 128)
	run, err := c.SimulateLongRun(milc, 40, 3600, 9)
	if err != nil {
		t.Fatal(err)
	}
	if run.Steps() != 40 {
		t.Fatalf("long run steps = %d", run.Steps())
	}
	for s := 0; s < run.Steps(); s++ {
		if run.StepTimes[s] <= 0 {
			t.Fatal("non-positive step time in long run")
		}
	}
}

func TestMeanStepBehaviorDiscernible(t *testing.T) {
	// Figure 3's core claim: the mean trend across runs is discernible —
	// MILC warmup steps must be clearly faster than main steps in the mean.
	camp := runTinyCampaign(t, 108)
	ds := camp.Get("MILC-128")
	mean := ds.MeanStepTimes()
	warm := (mean[0] + mean[1] + mean[2]) / 3
	// model has warmup < 20; our tiny MILC has 10 steps, all warmup...
	_ = warm
	// instead check AMG's decaying trend: step 0 slower than last step
	amg := camp.Get("AMG-128").MeanStepTimes()
	if amg[0] <= amg[len(amg)-1] {
		t.Fatalf("AMG mean trend lost: first %v, last %v", amg[0], amg[len(amg)-1])
	}
}

func TestUser8SelfInterferenceAffectsTraffic(t *testing.T) {
	// smoke: footprints exist for placed plans, so our runs do interfere
	c, err := New(tinyConfig(109))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := c.schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans scheduled")
	}
	for _, p := range plans {
		if p.footprint == nil || p.footprint.NumLinks() == 0 {
			t.Fatal("plan without footprint")
		}
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := tinyConfig(110)
	var calls, lastDone, lastTotal int
	cfg.Days = 1
	cfg.Progress = func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunCampaign(); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if lastDone != lastTotal {
		t.Fatalf("final progress %d/%d", lastDone, lastTotal)
	}
}

func TestRecordLDMS(t *testing.T) {
	c, err := New(tinyConfig(210))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	nr := c.Topo.Cfg.NumRouters()
	w, err := traceio.NewWriter(&buf, nr*counters.NumLDMS)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.RecordLDMSCtx(context.Background(), w, 3600, 3600+600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("samples = %d, want 10", n)
	}
	// the trace bytes, recorded before the replay's background set was
	// shared with the campaign's; never regenerate
	if got, want := hash8(buf.Bytes()), "ccef57377a736561"; got != want {
		t.Fatalf("trace hash = %s, want %s", got, want)
	}
	times, samples, err := traceio.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 10 {
		t.Fatalf("read %d samples", len(times))
	}
	// counters are cumulative: monotone non-decreasing per series
	for s := 1; s < len(samples); s++ {
		for j, v := range samples[s] {
			if v < samples[s-1][j] {
				t.Fatalf("series %d decreased at sample %d", j, s)
			}
		}
	}
	// some router saw traffic
	var total float64
	for _, v := range samples[len(samples)-1] {
		total += v
	}
	if total == 0 {
		t.Fatal("no traffic recorded")
	}
	// invalid windows rejected
	if _, err := c.RecordLDMSCtx(context.Background(), w, 100, 50, 60); err == nil {
		t.Fatal("reversed window should error")
	}
	if _, err := c.RecordLDMSCtx(context.Background(), w, 0, 100, 0); err == nil {
		t.Fatal("zero interval should error")
	}
}

func TestPlacementWhatIf(t *testing.T) {
	c, err := New(tinyConfig(220))
	if err != nil {
		t.Fatal(err)
	}
	milc := *apps.Find(apps.MILC, 128)
	milc.Nodes = 32 // small enough that a compact allocation can stay in few groups
	w, err := c.PlacementWhatIf(&milc, 12, 7200, 31)
	if err != nil {
		t.Fatal(err)
	}
	if w.Compact.Steps() != 12 || w.Fragmented.Steps() != 12 {
		t.Fatal("wrong step counts")
	}
	// the fragmented placement must span more groups
	if w.Fragmented.NumGroups <= w.Compact.NumGroups {
		t.Fatalf("fragmented run spans %d groups, compact %d — placement knob broken",
			w.Fragmented.NumGroups, w.Compact.NumGroups)
	}
	if w.CompactSpeedup() <= 0 {
		t.Fatalf("speedup = %v", w.CompactSpeedup())
	}
	// both runs' JSON content, recorded before SimulateAt's placement search
	// was shared with the campaign's; never regenerate
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hash8(blob), "8a8c81cf140f5d85"; got != want {
		t.Fatalf("what-if content hash = %s, want %s", got, want)
	}
}

// hash8 is the first eight bytes of b's SHA-256, in hex.
func hash8(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func TestSimulateAtStepOverride(t *testing.T) {
	c, err := New(tinyConfig(221))
	if err != nil {
		t.Fatal(err)
	}
	amg := apps.Find(apps.AMG, 128)
	// steps <= 0 keeps the model's own count
	run, err := c.SimulateAt(amg, 0, 3600, 0.3, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if run.Steps() != amg.Steps {
		t.Fatalf("steps = %d, want model default %d", run.Steps(), amg.Steps)
	}
}

// TestSimulateAtAvoidsDrainedNodes: like a campaign placement, a one-off
// simulation never lands on nodes drained at its start. With every router
// drained over [3000, 5000) a job asked for at t=3600 waits in the queue
// until the drain lifts instead of dying at its first step.
func TestSimulateAtAvoidsDrainedNodes(t *testing.T) {
	cfg := tinyConfig(221)
	clauses := make([]string, cfg.Machine.NumRouters())
	for r := range clauses {
		clauses[r] = fmt.Sprintf("drain:%d@3000-5000", r)
	}
	cfg.FaultSpec = strings.Join(clauses, ",")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.SimulateAt(apps.Find(apps.AMG, 128), 0, 3600, 0.3, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if run.Start < 5000 {
		t.Fatalf("run started at t=%v, inside the machine-wide drain [3000, 5000)", run.Start)
	}
}

// TestCoRunnersBusyNodes: a window's co-runners are the background jobs
// overlapping it and every other placed plan overlapping it; their busy
// set holds each of their nodes exactly once (no two of them share a node),
// and an evicted job drops out of both.
func TestCoRunnersBusyNodes(t *testing.T) {
	c, err := New(tinyConfig(53))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := c.schedule()
	if err != nil {
		t.Fatal(err)
	}
	// the first plan that overlaps another (plans are in start order)
	self := 0
	for self+1 < len(plans) && plans[self+1].start >= plans[self].estEnd {
		self++
	}
	if self+1 == len(plans) {
		t.Fatal("no two plans overlap")
	}
	t0, t1 := plans[self].start, plans[self].estEnd
	co := c.coRunners(t0, t1, plans, self, nil)
	if want := c.Timeline.Overlapping(t0, t1); len(co.bg) != len(want) || len(want) == 0 {
		t.Fatalf("%d background co-runners, want the %d overlapping jobs", len(co.bg), len(want))
	}
	var own []*plan
	for i, q := range plans {
		if i != self && q.start < t1 && q.estEnd > t0 {
			own = append(own, q)
		}
	}
	if len(co.own) != len(own) {
		t.Fatalf("%d own co-runners, want %d", len(co.own), len(own))
	}
	for i := range own {
		if co.own[i] != own[i] {
			t.Fatalf("own co-runner %d differs", i)
		}
	}

	busy := co.nodes(c.Topo)
	count := 0
	for _, j := range co.bg {
		count += len(j.Nodes)
		for _, n := range j.Nodes {
			if !busy.Has(n) {
				t.Fatalf("node %d of job %d missing from the busy set", n, j.ID)
			}
		}
	}
	for _, q := range co.own {
		count += len(q.nodes)
		for _, n := range q.nodes {
			if !busy.Has(n) {
				t.Fatalf("node %d of a placed run missing from the busy set", n)
			}
		}
	}
	if busy.Len() != count {
		t.Fatalf("busy nodes %d != sum of co-runner nodes %d", busy.Len(), count)
	}

	gone := co.bg[0]
	co = c.coRunners(t0, t1, plans, self, map[*slurm.Job]bool{gone: true})
	for _, j := range co.bg {
		if j == gone {
			t.Fatal("evicted job still a co-runner")
		}
	}
	if busy = co.nodes(c.Topo); busy.Has(gone.Nodes[0]) {
		t.Fatalf("node %d of the evicted job still busy", gone.Nodes[0])
	}
}

// TestSimulateLongRunReservation: on the small 30-day seed-42 machine the
// background queue keeps the KNL partition full, so Figure 12's 620-step
// MILC run finds no room in 64 queue tries. It then runs on a reservation
// at the requested start, and the background jobs the reservation evicted
// are no co-runners of it: the recorded neighbourhood is the one of the
// remaining jobs.
func TestSimulateLongRunReservation(t *testing.T) {
	c, err := New(Config{Machine: topology.Small(), Days: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	milc := apps.Find(apps.MILC, 128)
	const start = 15 * 86400
	run, err := c.SimulateLongRun(milc, 620, start, 42+620)
	if err != nil {
		t.Fatal(err)
	}
	if run.Steps() != 620 || run.Start != start {
		t.Fatalf("%d steps from t=%v, want 620 from the requested start %v", run.Steps(), run.Start, float64(start))
	}

	// the reservation SimulateAt fell back to
	job := *milc
	job.Steps = 620
	p := &plan{model: &job, start: start, estEnd: start + job.TotalBaseTime()*1.8}
	if !c.reserve(p) {
		t.Fatal("no reservation")
	}
	if len(p.evicted) == 0 {
		t.Fatal("the reservation evicted no background job")
	}
	t.Logf("reservation evicted %d background jobs", len(p.evicted))

	end := run.Start
	for _, st := range run.StepTimes {
		end += st
	}
	neighbours := func(evicted map[*slurm.Job]bool) map[string]int {
		out := map[string]int{}
		for _, j := range c.Timeline.Overlapping(run.Start, end) {
			if !evicted[j] && len(j.Nodes) > out[j.User.Name()] {
				out[j.User.Name()] = len(j.Nodes)
			}
		}
		return out
	}
	got := map[string]int{}
	for _, nb := range run.Neighbors {
		got[nb.User] = nb.MaxNodes
	}
	if want := neighbours(p.evicted); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("neighbours %v, want those of the non-evicted jobs %v", got, want)
	}
	if all := neighbours(nil); fmt.Sprint(got) == fmt.Sprint(all) {
		t.Fatal("evicting changed no neighbour; the check above cannot see an evicted job")
	}
}
