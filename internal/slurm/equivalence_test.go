package slurm

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dragonvar/internal/netsim"
	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// mapAllocator is the map-backed allocator the dense Allocator replaced,
// kept verbatim as the reference the equivalence test pins it to: the
// position index is a map, and AllocAvoiding collects the busy map into a
// list and sorts it before removing the busy nodes.
type mapAllocator struct {
	topo        *topology.Dragonfly
	freeByGroup [][]topology.NodeID
	position    map[topology.NodeID]int
	freeTotal   int
}

func newMapAllocator(topo *topology.Dragonfly) *mapAllocator {
	a := &mapAllocator{
		topo:        topo,
		freeByGroup: make([][]topology.NodeID, topo.Cfg.Groups),
		position:    make(map[topology.NodeID]int),
	}
	for _, class := range []topology.NodeClass{topology.KNL, topology.Haswell} {
		for _, n := range topo.ComputeNodes(class) {
			g := topo.Group(topo.RouterOfNode(n))
			a.position[n] = len(a.freeByGroup[g])
			a.freeByGroup[g] = append(a.freeByGroup[g], n)
			a.freeTotal++
		}
	}
	return a
}

func (a *mapAllocator) isFree(n topology.NodeID) bool {
	idx, ok := a.position[n]
	return ok && idx >= 0
}

func (a *mapAllocator) take(g topology.GroupID, idx int) topology.NodeID {
	list := a.freeByGroup[g]
	n := list[idx]
	last := len(list) - 1
	list[idx] = list[last]
	a.position[list[idx]] = idx
	a.freeByGroup[g] = list[:last]
	a.position[n] = -1
	a.freeTotal--
	return n
}

func (a *mapAllocator) alloc(n int, compact float64, s *rng.Stream) []topology.NodeID {
	if n <= 0 || n > a.freeTotal {
		return nil
	}
	if compact < 0 {
		compact = 0
	} else if compact > 1 {
		compact = 1
	}
	groups := s.Perm(len(a.freeByGroup))
	spread := 1 + int((1-compact)*7)
	perGroup := (n + spread - 1) / spread
	out := make([]topology.NodeID, 0, n)
	for len(out) < n {
		progress := false
		for _, g := range groups {
			if len(out) >= n {
				break
			}
			list := a.freeByGroup[g]
			if len(list) == 0 {
				continue
			}
			want := perGroup
			if want > n-len(out) {
				want = n - len(out)
			}
			if want > len(list) {
				want = len(list)
			}
			for i := 0; i < want; i++ {
				idx := s.Intn(len(a.freeByGroup[g]))
				out = append(out, a.take(topology.GroupID(g), idx))
			}
			if want > 0 {
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if len(out) < n {
		a.free(out)
		return nil
	}
	return out
}

func (a *mapAllocator) allocAvoiding(n int, compact float64, busy map[topology.NodeID]bool, s *rng.Stream) []topology.NodeID {
	if len(busy) == 0 {
		return a.alloc(n, compact, s)
	}
	busyList := make([]topology.NodeID, 0, len(busy))
	for node := range busy {
		busyList = append(busyList, node)
	}
	sort.Slice(busyList, func(i, j int) bool { return busyList[i] < busyList[j] })
	var removed []topology.NodeID
	for _, node := range busyList {
		if a.isFree(node) {
			g := a.topo.Group(a.topo.RouterOfNode(node))
			a.take(g, a.position[node])
			removed = append(removed, node)
		}
	}
	out := a.alloc(n, compact, s)
	a.free(removed)
	return out
}

func (a *mapAllocator) free(nodes []topology.NodeID) {
	for _, n := range nodes {
		g := a.topo.Group(a.topo.RouterOfNode(n))
		a.position[n] = len(a.freeByGroup[g])
		a.freeByGroup[g] = append(a.freeByGroup[g], n)
		a.freeTotal++
	}
}

// TestAllocAvoidingMatchesMapAndSort drives the dense allocator and the
// map-backed reference through the same seeded history of allocations,
// releases and busy-set placements: every placement must return the same
// nodes and leave the same per-group free lists, in the same order.
func TestAllocAvoidingMatchesMapAndSort(t *testing.T) {
	topo := testNet(t).Topology()
	for seed := int64(1); seed <= 8; seed++ {
		dense, ref := NewAllocator(topo), newMapAllocator(topo)
		pick := rng.New(seed)
		var held [][]topology.NodeID
		for step := 0; step < 60; step++ {
			// a busy set drawn over every node, I/O service nodes included
			busy := topology.NewNodeSet(topo)
			busyMap := map[topology.NodeID]bool{}
			for k := pick.Intn(3 * topo.Cfg.NumNodes() / 4); k > 0; k-- {
				n := topology.NodeID(pick.Intn(topo.Cfg.NumNodes()))
				busy.Add(n)
				busyMap[n] = true
			}
			size, compact := 1+pick.Intn(96), pick.Float64()
			got := dense.AllocAvoiding(size, compact, busy, rng.New(seed*1000+int64(step)))
			want := ref.allocAvoiding(size, compact, busyMap, rng.New(seed*1000+int64(step)))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: dense %v, map %v", seed, step, got, want)
			}
			if !reflect.DeepEqual(dense.freeByGroup, ref.freeByGroup) || dense.freeTotal != ref.freeTotal {
				t.Fatalf("seed %d step %d: free lists diverged", seed, step)
			}
			if got != nil {
				held = append(held, got)
			}
			// release an old allocation now and then, so the free lists
			// are reordered by frees as well as by takes
			if len(held) > 0 && pick.Float64() < 0.4 {
				k := pick.Intn(len(held))
				dense.Free(held[k])
				ref.free(held[k])
				held = append(held[:k], held[k+1:]...)
			}
		}
	}
}

// TestCloneIsIndependent: a clone starts from the template's exact state,
// and placing against it leaves the template untouched.
func TestCloneIsIndependent(t *testing.T) {
	topo := testNet(t).Topology()
	tmpl := NewAllocator(topo)
	c := tmpl.Clone()
	if !reflect.DeepEqual(c, tmpl) {
		t.Fatal("clone differs from its template")
	}
	before := NewAllocator(topo)
	if c.Alloc(40, 0.3, rng.New(2)) == nil {
		t.Fatal("allocation failed")
	}
	if !reflect.DeepEqual(tmpl, before) {
		t.Fatal("allocating from a clone changed the template")
	}
}

// TestFootprintIdenticalInAnyBuildOrder: a footprint depends only on its
// own job, so two timelines from the same seed — one with its footprints
// built serially in job order, the other from four goroutines that each
// walk the jobs in reverse and read every footprint twice — hold equal
// jobs and bit-identical footprints.
func TestFootprintIdenticalInAnyBuildOrder(t *testing.T) {
	gen := func() *Timeline { return Generate(testNet(t), GenerateConfig{Days: 2}, rng.New(31)) }
	serial, parallel := gen(), gen()
	if len(serial.Jobs) == 0 || len(serial.Jobs) != len(parallel.Jobs) {
		t.Fatalf("jobs: %d and %d from the same seed", len(serial.Jobs), len(parallel.Jobs))
	}
	for _, j := range serial.Jobs {
		j.Footprint()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := len(parallel.Jobs) - 1; i >= 0; i-- {
				j := parallel.Jobs[i]
				if first, second := j.Footprint(), j.Footprint(); first == nil || first != second {
					t.Errorf("job %d: footprint reads %p then %p", j.ID, first, second)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, a := range serial.Jobs {
		b := parallel.Jobs[i]
		if !sameLoadSetBits(a.Footprint(), b.Footprint()) {
			t.Fatalf("job %d: footprints differ between the serial and the parallel build", a.ID)
		}
		// field by field: a Job holds a sync.Once and must not be copied
		if a.ID != b.ID || !reflect.DeepEqual(a.User, b.User) || !reflect.DeepEqual(a.Nodes, b.Nodes) ||
			a.Start != b.Start || a.End != b.End || a.State != b.State || a.Attempt != b.Attempt ||
			!reflect.DeepEqual(a.intensity, b.intensity) {
			t.Fatalf("job %d differs between two timelines from the same seed", a.ID)
		}
	}
}

func sameLoadSetBits(a, b *netsim.LoadSet) bool {
	if !reflect.DeepEqual(a.LinkIDs, b.LinkIDs) || !reflect.DeepEqual(a.RouterIDs, b.RouterIDs) {
		return false
	}
	pairs := [][2][]float64{
		{a.LinkFlits, b.LinkFlits}, {a.InjFlits, b.InjFlits}, {a.EjFlits, b.EjFlits},
		{a.InjPkts, b.InjPkts}, {a.EjPkts, b.EjPkts}, {a.ArriveVC0, b.ArriveVC0}, {a.ArriveVC4, b.ArriveVC4},
	}
	for _, p := range pairs {
		if len(p[0]) != len(p[1]) {
			return false
		}
		for i := range p[0] {
			if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
				return false
			}
		}
	}
	return true
}
