package slurm

import (
	"slices"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// Allocator manages the free compute-node pool (KNL and Haswell nodes;
// I/O service nodes are never allocated to jobs). Allocation compactness is
// tunable: production Slurm on Cori hands out allocations of varying
// fragmentation, which is exactly what gives the NUM_ROUTERS / NUM_GROUPS
// placement features their variance.
type Allocator struct {
	topo *topology.Dragonfly

	// freeByGroup[g] holds the free nodes of group g; position[n] is the
	// index of node n within its group slice, allocated when it is -1 and
	// never allocatable (an I/O service node) when it is notCompute.
	freeByGroup [][]topology.NodeID
	position    []int32
	freeTotal   int
}

const notCompute = -2

// NewAllocator returns an allocator with every compute node free.
func NewAllocator(topo *topology.Dragonfly) *Allocator {
	a := &Allocator{
		topo:        topo,
		freeByGroup: make([][]topology.NodeID, topo.Cfg.Groups),
		position:    make([]int32, topo.Cfg.NumNodes()),
	}
	for i := range a.position {
		a.position[i] = notCompute
	}
	for _, class := range []topology.NodeClass{topology.KNL, topology.Haswell} {
		for _, n := range topo.ComputeNodes(class) {
			g := topo.Group(topo.RouterOfNode(n))
			a.position[n] = int32(len(a.freeByGroup[g]))
			a.freeByGroup[g] = append(a.freeByGroup[g], n)
			a.freeTotal++
		}
	}
	return a
}

// Clone returns an independent copy of the allocator's state: callers
// that place against the same starting pool many times copy a template
// instead of rebuilding it.
func (a *Allocator) Clone() *Allocator {
	b := &Allocator{topo: a.topo, freeByGroup: make([][]topology.NodeID, len(a.freeByGroup)),
		position: slices.Clone(a.position), freeTotal: a.freeTotal}
	for g, list := range a.freeByGroup {
		b.freeByGroup[g] = slices.Clone(list)
	}
	return b
}

// FreeCount returns the number of free nodes.
func (a *Allocator) FreeCount() int { return a.freeTotal }

// IsFree reports whether node n is currently free.
func (a *Allocator) IsFree(n topology.NodeID) bool {
	return n >= 0 && int(n) < len(a.position) && a.position[n] >= 0
}

// take removes node at index idx of group g's free list.
func (a *Allocator) take(g topology.GroupID, idx int) topology.NodeID {
	list := a.freeByGroup[g]
	n := list[idx]
	last := len(list) - 1
	list[idx] = list[last]
	a.position[list[idx]] = int32(idx)
	a.freeByGroup[g] = list[:last]
	a.position[n] = -1
	a.freeTotal--
	return n
}

// Alloc grabs n free nodes and returns them, or nil when fewer than n are
// free. compact in [0,1] steers fragmentation: near 1 the allocation
// drains whole groups in sequence (few groups, few routers); near 0 it
// scatters nodes over many groups, like a busy production machine
// backfilling holes.
func (a *Allocator) Alloc(n int, compact float64, s *rng.Stream) []topology.NodeID {
	if n <= 0 || n > a.freeTotal {
		return nil
	}
	if compact < 0 {
		compact = 0
	} else if compact > 1 {
		compact = 1
	}
	groups := s.Perm(len(a.freeByGroup))
	// spread: how many groups to stripe across (1 = fill group by group)
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
		// cannot happen given the freeTotal check, but stay safe
		a.Free(out)
		return nil
	}
	return out
}

// AllocAvoiding behaves like Alloc but never hands out nodes in the busy
// set. Used when placing instrumented jobs into a pre-generated timeline.
func (a *Allocator) AllocAvoiding(n int, compact float64, busy *topology.NodeSet, s *rng.Stream) []topology.NodeID {
	if busy.Len() == 0 {
		return a.Alloc(n, compact, s)
	}
	// temporarily remove the busy nodes that are currently free; the set
	// iterates in ascending order, so allocator state stays deterministic
	var removed []topology.NodeID
	busy.Each(func(node topology.NodeID) {
		if a.IsFree(node) {
			a.take(a.topo.Group(a.topo.RouterOfNode(node)), int(a.position[node]))
			removed = append(removed, node)
		}
	})
	out := a.Alloc(n, compact, s)
	a.Free(removed)
	return out
}

// Free returns nodes to the pool. Freeing an already-free node panics:
// that is always a double-release bug in the caller.
func (a *Allocator) Free(nodes []topology.NodeID) {
	for _, n := range nodes {
		if n < 0 || int(n) >= len(a.position) || a.position[n] == notCompute {
			panic("slurm: freeing unknown node")
		} else if a.position[n] >= 0 {
			panic("slurm: double free of node")
		}
		g := a.topo.Group(a.topo.RouterOfNode(n))
		a.position[n] = int32(len(a.freeByGroup[g]))
		a.freeByGroup[g] = append(a.freeByGroup[g], n)
		a.freeTotal++
	}
}
