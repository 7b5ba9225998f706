package cluster

import (
	"testing"

	"dragonvar/internal/stats"
	"dragonvar/internal/topology"
)

// TestEstimatedWindowOverrun measures how far a run's recorded
// neighbourhood departs from the background it was simulated against.
// simulate takes a run's co-runners once, over its estimated window
// [start, estEnd); a run that outlasts estEnd is simulated past it without
// any background job that starts after estEnd, yet neighbors, which reads
// the actual end, lists those jobs. Table III's mutual information and the
// advisor read those lists.
//
// The test measures and does not judge: mending it moves every campaign
// content anchor. Seed 42's counts are pinned so that a mend moves them on
// purpose, together with the anchors.
func TestEstimatedWindowOverrun(t *testing.T) {
	type count struct {
		runs, overrun int
		lateShare     float64 // share of simulated run time after estEnd
		unsimRuns     int     // runs listing a job that starts at or after estEnd
		unsimJobs     int     // such jobs, over all runs
	}
	var overruns, shares, unsims stats.Welford
	for seed := int64(40); seed <= 43; seed++ {
		cfg := Config{Machine: topology.Small(), Days: 30, Seed: seed, Workers: 2}
		cfg.Net.Routing = "adaptive"
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := c.RunCampaign()
		if err != nil {
			t.Fatal(err)
		}
		// the schedule is a pure function of the config, and a campaign
		// without faults requeues nothing, so these are the plans it ran
		plans, err := c.schedule()
		if err != nil {
			t.Fatal(err)
		}
		var n count
		var total, late float64
		for _, ds := range camp.Datasets {
			for _, r := range ds.Runs {
				p := plans[r.RunID]
				if p.model.Name() != r.Dataset || p.start != r.Start {
					t.Fatalf("seed %d: run %d (%s at %v) is not plan %s at %v", seed, r.RunID, r.Dataset, r.Start, p.model.Name(), p.start)
				}
				n.runs++
				end := r.Start + r.TotalTime()
				total += r.TotalTime()
				if end <= p.estEnd {
					continue
				}
				n.overrun++
				late += end - p.estEnd
				jobs := 0
				for _, j := range c.coRunners(p.start, end, plans, r.RunID, p.evicted).bg {
					if j.Start >= p.estEnd {
						jobs++
					}
				}
				if jobs > 0 {
					n.unsimRuns++
					n.unsimJobs += jobs
				}
			}
		}
		n.lateShare = late / total
		t.Logf("seed %d: %d of %d runs outlast estEnd; %.1f%% of simulated run time is after estEnd; %d runs list %d background jobs that start at or after estEnd",
			seed, n.overrun, n.runs, 100*n.lateShare, n.unsimRuns, n.unsimJobs)
		overruns.Add(float64(n.overrun))
		shares.Add(n.lateShare)
		unsims.Add(float64(n.unsimRuns))
		if seed == 42 && (n.overrun != 13 || n.unsimRuns != 7 || n.unsimJobs != 8) {
			t.Errorf("seed 42: %d runs overrun, %d list %d unsimulated jobs; pinned at 13, 7 and 8",
				n.overrun, n.unsimRuns, n.unsimJobs)
		}
	}
	for _, m := range []struct {
		name string
		w    *stats.Welford
	}{{"runs outlasting estEnd", &overruns}, {"share of run time after estEnd", &shares}, {"runs listing unsimulated jobs", &unsims}} {
		t.Logf("%s over seeds 40-43: mean %.4g, std %.4g, std_rel %.3f",
			m.name, m.w.Mean(), m.w.Std(), m.w.Std()/m.w.Mean())
	}
}
