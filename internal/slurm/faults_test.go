package slurm

import (
	"strconv"
	"strings"
	"testing"

	"dragonvar/internal/faults"
	"dragonvar/internal/rng"
)

// genFaulted drains every router for a mid-campaign window so that many
// running jobs get killed and requeued.
func genFaulted(t *testing.T, seed int64) *Timeline {
	t.Helper()
	net := testNet(t)
	topo := net.Topology()
	var clauses []string
	for r := 0; r < topo.Cfg.NumRouters(); r++ {
		clauses = append(clauses, "drain:"+strconv.Itoa(r)+"@43200-50400")
	}
	sched, err := faults.Parse(strings.Join(clauses, ","), topo, 2*86400, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Generate(net, GenerateConfig{Days: 2, Faults: sched}, rng.New(seed))
}

func TestDrainKillsAndRequeues(t *testing.T) {
	tl := genFaulted(t, 31)
	var killed, requeued int
	for _, j := range tl.Jobs {
		if j.State == StateNodeFail {
			killed++
			// killed exactly at (or a tick after) the drain start, never past it
			if j.End < 43200 || j.End > 43260+1 {
				t.Fatalf("NODE_FAIL job %d ends at %v, want the drain start", j.ID, j.End)
			}
		}
		if j.Attempt > 0 {
			requeued++
			// resubmission waits out at least the first backoff
			if prev := j.Start; prev < 43200+RequeueBackoff(0) {
				t.Fatalf("requeued job %d starts at %v, before backoff elapsed", j.ID, prev)
			}
		}
	}
	if killed == 0 {
		t.Fatal("machine-wide drain killed no jobs")
	}
	if requeued == 0 {
		t.Fatal("no killed job was requeued")
	}
	if tl.Requeues() != requeued {
		t.Fatalf("Requeues() = %d, counted %d", tl.Requeues(), requeued)
	}
	// every job ends in one of the two sacct states
	for _, j := range tl.Jobs {
		if j.State != StateNodeFail && j.State != StateCompleted {
			t.Fatalf("job %d has unexpected state %q", j.ID, j.State)
		}
	}
}

func TestFaultedGenerateDeterministic(t *testing.T) {
	tl1 := genFaulted(t, 37)
	tl2 := genFaulted(t, 37)
	if len(tl1.Jobs) != len(tl2.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(tl1.Jobs), len(tl2.Jobs))
	}
	for i := range tl1.Jobs {
		a, b := tl1.Jobs[i], tl2.Jobs[i]
		if a.Start != b.Start || a.End != b.End || a.State != b.State || a.Attempt != b.Attempt {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
}

func TestDrainedNodesNotAllocated(t *testing.T) {
	net := testNet(t)
	topo := net.Topology()
	// drain router 0 for the whole campaign: none of its nodes may appear
	sched, err := faults.Parse("drain:0@0-172800", topo, 2*86400, 5)
	if err != nil {
		t.Fatal(err)
	}
	tl := Generate(net, GenerateConfig{Days: 2, Faults: sched}, rng.New(5))
	bad := map[int64]bool{}
	for _, n := range topo.NodesOfRouter(0) {
		bad[int64(n)] = true
	}
	for _, j := range tl.Jobs {
		for _, n := range j.Nodes {
			if bad[int64(n)] {
				t.Fatalf("job %d allocated drained node %d", j.ID, n)
			}
		}
	}
}
