package slurm

import (
	"math"
	"testing"

	"dragonvar/internal/netsim"
	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

func testNet(t *testing.T) *netsim.Network {
	t.Helper()
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	return netsim.New(d, netsim.DefaultConfig(), rng.New(11))
}

func TestRosterRoles(t *testing.T) {
	users := Roster()
	byID := map[int]*User{}
	for _, u := range users {
		if byID[u.ID] != nil {
			t.Fatalf("duplicate user ID %d", u.ID)
		}
		byID[u.ID] = u
	}
	// User 8 is reserved for the campaign's own jobs
	if byID[SelfUserID] != nil {
		t.Fatal("roster must not contain User-8 (the campaign user)")
	}
	// the paper's named heavy hitters exist and are communication-heavy
	for _, id := range []int{2, 9, 11, 6, 10, 14} {
		u := byID[id]
		if u == nil {
			t.Fatalf("User-%d missing from roster", id)
		}
		if !u.Workload.CommHeavy() {
			t.Errorf("User-%d should be communication-heavy", id)
		}
	}
	if byID[2].AppName != "hipmer" || byID[11].AppName != "e3sm" || byID[9].AppName != "fastpm" {
		t.Error("heavy-hitter app roles wrong")
	}
	// hipmer is also I/O heavy
	if byID[2].Workload.IOBytesPerNodePerSec < 2*byID[1].Workload.IOBytesPerNodePerSec {
		t.Error("hipmer should be I/O-heavy")
	}
	// light tail is quiet
	if byID[20] == nil || byID[20].Workload.CommHeavy() {
		t.Error("tail users should be light")
	}
	if byID[2].Name() != "User-2" {
		t.Errorf("Name() = %q", byID[2].Name())
	}
}

func TestAllocatorBasics(t *testing.T) {
	net := testNet(t)
	a := NewAllocator(net.Topology())
	total := a.FreeCount()
	if total == 0 {
		t.Fatal("no free nodes")
	}
	s := rng.New(3)
	nodes := a.Alloc(32, 0.5, s)
	if len(nodes) != 32 {
		t.Fatalf("allocated %d nodes", len(nodes))
	}
	if a.FreeCount() != total-32 {
		t.Fatalf("free count = %d", a.FreeCount())
	}
	// no duplicates, none on I/O routers
	seen := map[topology.NodeID]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatal("duplicate node in allocation")
		}
		seen[n] = true
		if net.Topology().NodeClassOf(n) == topology.IONode {
			t.Fatal("allocated an I/O service node")
		}
		if a.IsFree(n) {
			t.Fatal("allocated node still marked free")
		}
	}
	a.Free(nodes)
	if a.FreeCount() != total {
		t.Fatal("free count after release wrong")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	net := testNet(t)
	a := NewAllocator(net.Topology())
	s := rng.New(3)
	if a.Alloc(a.FreeCount()+1, 0.5, s) != nil {
		t.Fatal("oversized allocation should fail")
	}
	all := a.Alloc(a.FreeCount(), 0.5, s)
	if all == nil {
		t.Fatal("full allocation should succeed")
	}
	if a.FreeCount() != 0 {
		t.Fatal("pool should be empty")
	}
	if a.Alloc(1, 0.5, s) != nil {
		t.Fatal("allocation from empty pool should fail")
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	net := testNet(t)
	a := NewAllocator(net.Topology())
	nodes := a.Alloc(4, 0.5, rng.New(3))
	a.Free(nodes)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	a.Free(nodes)
}

func TestAllocatorFreeUnknownNodePanics(t *testing.T) {
	net := testNet(t)
	topo := net.Topology()
	a := NewAllocator(topo)
	io := topo.NodesOfRouter(topo.IORouters()[0])[0]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on freeing an I/O service node")
		}
	}()
	a.Free([]topology.NodeID{io})
}

func TestCompactnessAffectsFragmentation(t *testing.T) {
	net := testNet(t)
	topo := net.Topology()
	groupsOf := func(compact float64) float64 {
		a := NewAllocator(topo)
		s := rng.New(17)
		var total float64
		for trial := 0; trial < 20; trial++ {
			nodes := a.Alloc(64, compact, s)
			_, g := PlacementFeatures(topo, nodes)
			total += float64(g)
			a.Free(nodes)
		}
		return total / 20
	}
	if compactG, spreadG := groupsOf(1.0), groupsOf(0.0); compactG >= spreadG {
		t.Fatalf("compact allocations should span fewer groups: compact %v, spread %v", compactG, spreadG)
	}
}

func TestAllocAvoiding(t *testing.T) {
	net := testNet(t)
	a := NewAllocator(net.Topology())
	s := rng.New(3)
	busyNodes := a.Alloc(16, 0.5, s)
	a.Free(busyNodes)
	busy := topology.NewNodeSet(net.Topology())
	for _, n := range busyNodes {
		busy.Add(n)
	}
	got := a.AllocAvoiding(32, 0.2, busy, s)
	if got == nil {
		t.Fatal("allocation failed")
	}
	for _, n := range got {
		if busy.Has(n) {
			t.Fatal("allocated a busy node")
		}
	}
	// the busy-but-free nodes must be back in the pool afterwards
	for _, n := range busyNodes {
		if !a.IsFree(n) {
			t.Fatal("busy nodes were not returned to the pool")
		}
	}
}

func TestPlacementFeatures(t *testing.T) {
	net := testNet(t)
	topo := net.Topology()
	// all four nodes of one router
	r := topo.RouterAt(3, 2, 2)
	nr, ng := PlacementFeatures(topo, topo.NodesOfRouter(r))
	if nr != 1 || ng != 1 {
		t.Fatalf("single-router placement features = (%d,%d)", nr, ng)
	}
	// two nodes on different groups
	n1 := topo.NodesOfRouter(topo.RouterAt(3, 2, 2))[0]
	n2 := topo.NodesOfRouter(topo.RouterAt(4, 2, 2))[0]
	nr, ng = PlacementFeatures(topo, []topology.NodeID{n1, n2})
	if nr != 2 || ng != 2 {
		t.Fatalf("two-group placement features = (%d,%d)", nr, ng)
	}
}

func genTimeline(t *testing.T, days float64, seed int64) (*netsim.Network, *Timeline) {
	t.Helper()
	net := testNet(t)
	tl := Generate(net, GenerateConfig{Days: days}, rng.New(seed))
	return net, tl
}

func TestGenerateTimeline(t *testing.T) {
	net, tl := genTimeline(t, 3, 21)
	if len(tl.Jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	horizon := tl.Horizon()
	prevStart := -1.0
	for _, j := range tl.Jobs {
		if j.Start < prevStart {
			t.Fatal("jobs not sorted by start")
		}
		prevStart = j.Start
		if j.End <= j.Start || j.End > horizon+1 {
			t.Fatalf("bad job window [%v, %v]", j.Start, j.End)
		}
		if len(j.Nodes) == 0 {
			t.Fatal("job without nodes")
		}
		if j.Footprint() == nil {
			t.Fatal("job without footprint")
		}
		if len(j.Nodes) > net.Topology().Cfg.NumNodes()/3 {
			t.Fatalf("job too large for machine: %d nodes", len(j.Nodes))
		}
	}
}

func TestNoOverlappingAllocations(t *testing.T) {
	_, tl := genTimeline(t, 2, 23)
	// at a set of probe times, no node may belong to two running jobs
	for probe := 0.0; probe < tl.Horizon(); probe += 3600 {
		owned := map[topology.NodeID]int{}
		for _, j := range tl.Overlapping(probe, probe+1) {
			for _, n := range j.Nodes {
				if prev, clash := owned[n]; clash {
					t.Fatalf("node %d owned by jobs %d and %d at t=%v", n, prev, j.ID, probe)
				}
				owned[n] = j.ID
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	_, tl1 := genTimeline(t, 2, 29)
	_, tl2 := genTimeline(t, 2, 29)
	if len(tl1.Jobs) != len(tl2.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(tl1.Jobs), len(tl2.Jobs))
	}
	for i := range tl1.Jobs {
		a, b := tl1.Jobs[i], tl2.Jobs[i]
		if a.Start != b.Start || a.End != b.End || len(a.Nodes) != len(b.Nodes) || a.User.ID != b.User.ID {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
}

func TestOverlappingWindow(t *testing.T) {
	_, tl := genTimeline(t, 2, 31)
	mid := tl.Horizon() / 2
	jobs := tl.Overlapping(mid, mid+600)
	for _, j := range jobs {
		if !j.Overlaps(mid, mid+600) {
			t.Fatal("non-overlapping job returned")
		}
	}
	// count manually
	count := 0
	for _, j := range tl.Jobs {
		if j.Overlaps(mid, mid+600) {
			count++
		}
	}
	if count != len(jobs) {
		t.Fatalf("Overlapping returned %d, manual count %d", len(jobs), count)
	}
}

func TestIntensityAutocorrelated(t *testing.T) {
	_, tl := genTimeline(t, 2, 37)
	var longest *Job
	for _, j := range tl.Jobs {
		if longest == nil || j.Duration() > longest.Duration() {
			longest = j
		}
	}
	if longest == nil || longest.Duration() < 3600 {
		t.Skip("no long job in small timeline")
	}
	// successive minutes should be strongly correlated
	var x, y []float64
	for m := 0; m < int(longest.Duration()/60)-1; m++ {
		t0 := longest.Start + float64(m)*60
		x = append(x, longest.IntensityAt(t0))
		y = append(y, longest.IntensityAt(t0+60))
	}
	var sxy, sxx, syy, sx, sy float64
	n := float64(len(x))
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
		syy += (y[i] - my) * (y[i] - my)
	}
	if sxx == 0 || syy == 0 {
		t.Skip("degenerate intensity series")
	}
	rho := sxy / math.Sqrt(sxx*syy)
	if rho < 0.5 {
		t.Fatalf("intensity autocorrelation = %v, want high", rho)
	}
}

func TestIntensityOutsideLifetime(t *testing.T) {
	_, tl := genTimeline(t, 1, 41)
	j := tl.Jobs[0]
	if j.IntensityAt(j.Start-1) != 0 || j.IntensityAt(j.End+1) != 0 {
		t.Fatal("intensity outside job lifetime should be 0")
	}
	if j.IntensityAt(j.Start+1) <= 0 {
		t.Fatal("intensity during job should be positive")
	}
}

func TestScaledLoadAt(t *testing.T) {
	_, tl := genTimeline(t, 1, 43)
	j := tl.Jobs[0]
	mid := (j.Start + j.End) / 2
	sl := j.ScaledLoadAt(mid, 10)
	if sl.Set != j.Footprint() {
		t.Fatal("ScaledLoadAt should reference the job's footprint")
	}
	if sl.Scale <= 0 {
		t.Fatal("scale should be positive during the job")
	}
	// doubling the window doubles the scale
	sl2 := j.ScaledLoadAt(mid, 20)
	if math.Abs(sl2.Scale-2*sl.Scale) > 1e-9 {
		t.Fatal("scale not linear in duration")
	}
}

func TestMachineReasonablyUtilized(t *testing.T) {
	net, tl := genTimeline(t, 4, 59)
	totalNodes := float64(net.Topology().Cfg.NumNodes())
	var sum float64
	probes := 0
	// skip the first day (ramp-up from an empty machine)
	for probe := 86400.0; probe < tl.Horizon(); probe += 3600 {
		busy := topology.NewNodeSet(net.Topology())
		for _, j := range tl.Overlapping(probe, probe+1) {
			for _, n := range j.Nodes {
				busy.Add(n)
			}
		}
		sum += float64(busy.Len()) / totalNodes
		probes++
	}
	mean := sum / float64(probes)
	if mean < 0.2 {
		t.Fatalf("machine only %.0f%% utilized — too idle to produce contention", mean*100)
	}
	if mean > 0.98 {
		t.Fatalf("machine %.0f%% utilized — no room for controlled jobs", mean*100)
	}
}

func TestPoisson(t *testing.T) {
	s := rng.New(61)
	// small mean
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += float64(poisson(s, 3))
	}
	if mean := sum / float64(n); math.Abs(mean-3) > 0.15 {
		t.Fatalf("poisson(3) mean = %v", mean)
	}
	// large mean uses normal approximation
	sum = 0
	for i := 0; i < n; i++ {
		sum += float64(poisson(s, 100))
	}
	if mean := sum / float64(n); math.Abs(mean-100) > 2 {
		t.Fatalf("poisson(100) mean = %v", mean)
	}
	if poisson(s, 0) != 0 || poisson(s, -1) != 0 {
		t.Fatal("non-positive mean should give 0")
	}
}

func TestJobHeapOrdering(t *testing.T) {
	var h jobHeap
	ends := []float64{5, 1, 4, 2, 3}
	for _, e := range ends {
		h.push(&Job{End: e})
	}
	prev := -1.0
	for len(h) > 0 {
		j := h.pop()
		if j.End < prev {
			t.Fatalf("heap popped out of order: %v after %v", j.End, prev)
		}
		prev = j.End
	}
}
