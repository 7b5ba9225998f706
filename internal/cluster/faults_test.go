package cluster

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/topology"
	"dragonvar/internal/traceio"
)

// faultyConfig is the tiny campaign with a mixed fault schedule: random
// link failures and degradations plus an explicit day-long dropout window
// and a machine-wide drain on day 3.
func faultyConfig(t *testing.T, seed int64) Config {
	t.Helper()
	cfg := tinyConfig(seed)
	topo, err := topology.New(cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	clauses := []string{"links=2", "degraded=3", "outage=21600", "dropout@86400-172800"}
	for r := 0; r < topo.Cfg.NumRouters(); r++ {
		clauses = append(clauses, "drain:"+strconv.Itoa(r)+"@216000-237600")
	}
	cfg.FaultSpec = strings.Join(clauses, ",")
	return cfg
}

func runFaultyCampaign(t *testing.T, seed int64) *dataset.Campaign {
	t.Helper()
	c, err := New(faultyConfig(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

func TestFaultedCampaignCompletes(t *testing.T) {
	camp := runFaultyCampaign(t, 300)
	if err := camp.Validate(); err != nil {
		t.Fatal(err)
	}
	var runs int
	for _, ds := range camp.Datasets {
		runs += len(ds.Runs)
		for _, r := range ds.Runs {
			for s := 0; s < r.Steps(); s++ {
				if r.StepTimes[s] <= 0 || math.IsNaN(r.StepTimes[s]) {
					t.Fatalf("%s: bad step time %v", ds.Name, r.StepTimes[s])
				}
				// a healthy step's counters are finite; a dropped step's are
				// explicitly missing, never zero-filled garbage
				if r.MissingAt(s) != counters.IsMissing(r.Counters[s][0]) {
					t.Fatalf("%s: Missing flag disagrees with counter marker at step %d", ds.Name, s)
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("faulted campaign produced no runs at all")
	}
}

func TestFaultedCampaignRecordsGaps(t *testing.T) {
	camp := runFaultyCampaign(t, 301)
	gf := camp.GapFraction()
	if gf <= 0 || gf >= 1 {
		t.Fatalf("gap fraction = %v; the day-long dropout should lose some but not all samples", gf)
	}
}

func TestFaultedCampaignRequeues(t *testing.T) {
	// first schedule an unfaulted campaign to learn where and when the
	// last controlled run executes, then drain exactly its routers for a
	// short window mid-run: every plan scheduled before it is unaffected,
	// so the kill — and the requeue — is deterministic
	seed := int64(303)
	clean, err := New(tinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := clean.schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("clean campaign scheduled no plans")
	}
	victim := plans[len(plans)-1]
	mid := victim.start + 5 // a few seconds into the run
	routers := map[topology.RouterID]bool{}
	for _, n := range victim.nodes {
		routers[clean.Topo.RouterOfNode(n)] = true
	}

	// the drain window (600 s) is shorter than the first requeue backoff
	// (900 s), so the resubmission lands on a healthy machine
	var clauses []string
	for r := range routers {
		clauses = append(clauses, "drain:"+strconv.Itoa(int(r))+"@"+
			strconv.FormatFloat(mid, 'f', 0, 64)+"-"+strconv.FormatFloat(mid+600, 'f', 0, 64))
	}
	cfg := tinyConfig(seed)
	cfg.FaultSpec = strings.Join(clauses, ",")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if camp.TotalRequeues() == 0 {
		t.Fatal("draining a running job's routers requeued nothing")
	}
	// the requeued run restarts after the fault hit, never before
	for _, ds := range camp.Datasets {
		for _, r := range ds.Runs {
			if r.Requeues > 0 && r.Start < mid {
				t.Fatalf("requeued run starts at %v, before the drain at %v", r.Start, mid)
			}
		}
	}
}

func TestFaultedCampaignDeterministic(t *testing.T) {
	a := runFaultyCampaign(t, 302)
	b := runFaultyCampaign(t, 302)
	if a.GapFraction() != b.GapFraction() || a.TotalRequeues() != b.TotalRequeues() {
		t.Fatalf("gap/requeue totals differ: %v/%d vs %v/%d",
			a.GapFraction(), a.TotalRequeues(), b.GapFraction(), b.TotalRequeues())
	}
	for di, da := range a.Datasets {
		db := b.Datasets[di]
		if len(da.Runs) != len(db.Runs) {
			t.Fatalf("%s: run counts differ: %d vs %d", da.Name, len(da.Runs), len(db.Runs))
		}
		for i := range da.Runs {
			ra, rb := da.Runs[i], db.Runs[i]
			if ra.TotalTime() != rb.TotalTime() || ra.Requeues != rb.Requeues ||
				ra.GapFraction() != rb.GapFraction() {
				t.Fatalf("%s run %d differs between identical seeds", da.Name, i)
			}
		}
	}
}

func TestRecordLDMSWithDropout(t *testing.T) {
	cfg := tinyConfig(310)
	// drop the middle 4 of 10 samples
	cfg.FaultSpec = "dropout@3780-4020"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	nr := c.Topo.Cfg.NumRouters()
	w, err := traceio.NewWriter(&buf, nr*LDMSSeriesPerRouter)
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
	times, samples, err := traceio.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 10 {
		t.Fatalf("read %d samples", len(times))
	}
	var missing int
	for i, row := range samples {
		isMissing := math.IsNaN(row[0])
		inWindow := times[i] >= 3780 && times[i] < 4020
		if isMissing != inWindow {
			t.Fatalf("sample at t=%v: missing=%v, dropout window=%v", times[i], isMissing, inWindow)
		}
		if isMissing {
			missing++
		}
	}
	if missing != 4 {
		t.Fatalf("missing samples = %d, want 4", missing)
	}
	// the healthy samples after the gap are still monotone: the hardware
	// kept counting through the dropout
	var lastHealthy []float64
	for i, row := range samples {
		if math.IsNaN(row[0]) {
			continue
		}
		if lastHealthy != nil {
			for j, v := range row {
				if v < lastHealthy[j] {
					t.Fatalf("series %d decreased at sample %d", j, i)
				}
			}
		}
		lastHealthy = row
	}
}

func TestBadFaultSpecRejected(t *testing.T) {
	cfg := tinyConfig(320)
	cfg.FaultSpec = "link:999999@0-100"
	if _, err := New(cfg); err == nil {
		t.Fatal("out-of-range link in fault spec should be rejected")
	}
	cfg.FaultSpec = "gibberish"
	if _, err := New(cfg); err == nil {
		t.Fatal("unparseable fault spec should be rejected")
	}
}
