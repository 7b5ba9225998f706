package mpi_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dragonvar/internal/apps"
	"dragonvar/internal/mpi"
	"dragonvar/internal/netsim"
	"dragonvar/internal/topology"
)

// mapBuilder is the map-indexed PatternBuilder the dense index replaced,
// with its Build and Downsample, kept as the equivalence reference.
type mapBuilder struct {
	index map[uint64]int32
	flows []netsim.Flow
}

func (b *mapBuilder) Add(src, dst topology.RouterID, vol, msg float64) {
	if src == dst || (vol <= 0 && msg <= 0) {
		return
	}
	k := uint64(uint32(src))<<32 | uint64(uint32(dst))
	i, ok := b.index[k]
	if !ok {
		i = int32(len(b.flows))
		b.flows = append(b.flows, netsim.Flow{Src: src, Dst: dst})
		b.index[k] = i
	}
	b.flows[i].Flits += vol
	b.flows[i].Packets += msg
}

func sortPairs(flows []netsim.Flow) {
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
}

func normalize(flows []netsim.Flow) {
	var vol, msg float64
	for _, f := range flows {
		vol += f.Flits
		msg += f.Packets
	}
	for i := range flows {
		if vol > 0 {
			flows[i].Flits /= vol
		}
		if msg > 0 {
			flows[i].Packets /= msg
		}
	}
}

// pattern is Build followed by Downsample(maxPairs).
func (b *mapBuilder) pattern(maxPairs int) []netsim.Flow {
	flows := append([]netsim.Flow(nil), b.flows...)
	sortPairs(flows)
	normalize(flows)
	if len(flows) <= maxPairs {
		return flows
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].Flits > flows[j].Flits })
	flows = flows[:maxPairs]
	normalize(flows)
	sortPairs(flows)
	return flows
}

type adder interface {
	Add(src, dst topology.RouterID, vol, msg float64)
}

// The generators below replay PatternBuilder's Add* methods call for call,
// so the dense and the map-indexed builder see the same Add stream.

func stencil(b adder, m *mpi.RankMapper, dims []int) {
	n := m.NumRanks()
	for r := 0; r < n; r++ {
		c := make([]int, len(dims))
		for d, rem := len(dims)-1, r; d >= 0; d-- {
			c[d], rem = rem%dims[d], rem/dims[d]
		}
		for d := range dims {
			for _, dir := range [2]int{+1, -1} {
				if len(dims) == 4 {
					dir = -dir // the 4D stencil visits -1 before +1
				}
				nc := append([]int(nil), c...)
				nc[d] = (nc[d] + dir + dims[d]) % dims[d]
				peer := 0
				for k := range dims {
					peer = peer*dims[k] + nc[k]
				}
				b.Add(m.RouterOf(r), m.RouterOf(peer), 1, 1)
			}
		}
	}
}

func allreduce(b adder, m *mpi.RankMapper, w float64) {
	p := m.NumRanks()
	for bit := 1; bit < p; bit <<= 1 {
		for r := 0; r < p; r++ {
			if partner := r ^ bit; partner < p && partner >= r {
				b.Add(m.RouterOf(r), m.RouterOf(partner), w, w)
				b.Add(m.RouterOf(partner), m.RouterOf(r), w, w)
			}
		}
	}
}

func irregular(b adder, m *mpi.RankMapper, fanout int, w float64) {
	p := m.NumRanks()
	for r := 0; r < p; r++ {
		h := uint64(r)*0x9e3779b97f4a7c15 + 0x853c49e6748fea9b
		for f := 0; f < fanout; f++ {
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			peer := int(h % uint64(p))
			if peer == r {
				peer = (peer + 1) % p
			}
			b.Add(m.RouterOf(r), m.RouterOf(peer), w, w)
		}
	}
}

func ioTraffic(b adder, m *mpi.RankMapper, w float64) {
	ios := m.Topo.IORouters()
	for _, r := range m.Routers() {
		for _, io := range ios {
			b.Add(r, io, w/float64(len(ios)), w/float64(len(ios)))
		}
	}
}

// modelStream replays apps.BuildPattern's Add stream for m.
func modelStream(t *testing.T, b adder, m *apps.Model, mapper *mpi.RankMapper) {
	t.Helper()
	switch m.Pattern {
	case apps.Stencil3D, apps.Stencil4D:
		k, w := 3, 0.15
		if m.Pattern == apps.Stencil4D {
			k, w = 4, 0.05
		}
		dims, err := apps.FactorDims(m.NumRanks(), k)
		if err != nil {
			t.Fatal(err)
		}
		stencil(b, mapper, dims)
		allreduce(b, mapper, w)
	case apps.Irregular:
		irregular(b, mapper, m.IrregularFanout, 1)
	case apps.SweepCollective:
		irregular(b, mapper, m.IrregularFanout, 0.4)
		allreduce(b, mapper, 0.6)
	default:
		t.Fatalf("unknown pattern kind %d", m.Pattern)
	}
	if m.IOBytesPerNode > 0 {
		ioTraffic(b, mapper, 0.02)
	}
}

func sameFlows(t *testing.T, what string, got, want []netsim.Flow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Src != w.Src || g.Dst != w.Dst ||
			math.Float64bits(g.Flits) != math.Float64bits(w.Flits) ||
			math.Float64bits(g.Packets) != math.Float64bits(w.Packets) {
			t.Fatalf("%s: pair %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// scattered returns n KNL nodes drawn without replacement, so patterns
// span many routers and groups.
func scattered(d *topology.Dragonfly, n int, seed int64) []topology.NodeID {
	knl := d.ComputeNodes(topology.KNL)
	rand.New(rand.NewSource(seed)).Shuffle(len(knl), func(i, j int) { knl[i], knl[j] = knl[j], knl[i] })
	return knl[:n]
}

func TestPatternBuilderMatchesMapBuilderForModels(t *testing.T) {
	d, err := topology.New(topology.Cori())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range apps.Registry() {
		nodes := scattered(d, m.Nodes, int64(i))
		mapper := &mpi.RankMapper{Topo: d, Nodes: nodes, RanksPerNode: m.RanksPerNode}
		ref := &mapBuilder{index: map[uint64]int32{}}
		modelStream(t, ref, m, mapper)
		want := ref.pattern(1500)

		// pooled: after the first model, usually a builder the previous
		// model released, so its packed-key Build runs on reused storage
		dense := mpi.NewPatternBuilder()
		modelStream(t, dense, m, mapper)
		sameFlows(t, m.Name()+" replayed", dense.Build().Downsample(1500).Instantiate(1, 1, 0, nil), want)
		dense.Release()

		bp, err := m.BuildPattern(d, nodes)
		if err != nil {
			t.Fatal(err)
		}
		sameFlows(t, m.Name()+" BuildPattern", bp.Pattern.Instantiate(1, 1, 0, nil), want)
	}
}

// TestPatternBuilderMatchesMapBuilderForBackgroundJobs covers the
// background-job shape the timeline builds per job: an irregular exchange
// plus I/O traffic, downsampled to 256 pairs.
func TestPatternBuilderMatchesMapBuilderForBackgroundJobs(t *testing.T) {
	for _, cfg := range []topology.Config{topology.Small(), topology.Cori()} {
		d, err := topology.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// the last input holds the machine's lowest- and highest-numbered
		// KNL nodes, so Build's packed (Src, Dst) keys span every router ID
		knl := d.ComputeNodes(topology.KNL)
		ends := append(append([]topology.NodeID(nil), knl[:30]...), knl[len(knl)-30:]...)
		for i, nodes := range [][]topology.NodeID{
			scattered(d, 4, 100), scattered(d, 37, 101), scattered(d, 128, 102), scattered(d, 200, 103), ends,
		} {
			size := len(nodes)
			mapper := &mpi.RankMapper{Topo: d, Nodes: nodes, RanksPerNode: 1}
			fanout, io := 4+i, 0.3*float64(size)
			ref := &mapBuilder{index: map[uint64]int32{}}
			irregular(ref, mapper, fanout, 1)
			ioTraffic(ref, mapper, io)

			b := mpi.NewPatternBuilder()
			b.AddIrregular(mapper, fanout, 1)
			b.AddIOTraffic(mapper, io)
			sameFlows(t, "background job", b.Build().Downsample(256).Instantiate(1, 1, 0, nil), ref.pattern(256))
			b.Release()
		}
	}
}
