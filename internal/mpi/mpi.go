// Package mpi models the message-passing layer of the applications: the
// MPI routine taxonomy used by the paper's mpiP profiles (Figures 4 and 5),
// per-routine time accounting, and the translation of rank-level
// communication patterns (stencils, irregular graph exchanges, collectives)
// into router-level traffic flows for the network simulator.
//
// The key structure is Pattern: a normalized router-to-router traffic
// shape built once per job from its placement (rank → node → router) and
// then instantiated every time step with that step's traffic volume. This
// mirrors reality — an application's communication graph is fixed by its
// decomposition while per-step volumes vary — and keeps the simulation cost
// per step proportional to the number of distinct router pairs, not ranks.
package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dragonvar/internal/netsim"
	"dragonvar/internal/topology"
)

// Routine enumerates the MPI routines the paper's profiles distinguish.
type Routine int

const (
	Isend Routine = iota
	Irecv
	Wait
	Waitall
	Test
	Testall
	Iprobe
	Allreduce
	Barrier
	Other

	// NumRoutines is the number of tracked routines.
	NumRoutines int = iota
)

var routineNames = [NumRoutines]string{
	"Isend", "Irecv", "Wait", "Waitall", "Test", "Testall", "Iprobe",
	"Allreduce", "Barrier", "Other",
}

// String returns the routine name as it appears in the paper's figures.
func (r Routine) String() string {
	if r < 0 || int(r) >= NumRoutines {
		return fmt.Sprintf("Routine(%d)", int(r))
	}
	return routineNames[r]
}

// Profile is per-routine time in seconds, the unit of the mpiP-style
// decomposition in Figures 4 and 5.
type Profile [NumRoutines]float64

// Total returns the total MPI time of the profile.
func (p *Profile) Total() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// Add accumulates other into p.
func (p *Profile) Add(other *Profile) {
	for i, v := range other {
		p[i] += v
	}
}

// Scaled returns a copy of p with every routine multiplied by f.
func (p *Profile) Scaled(f float64) Profile {
	var out Profile
	for i, v := range p {
		out[i] = v * f
	}
	return out
}

// Dominant returns the routines sorted by descending time share, with
// their fractions of the total. Used to report the "dominant MPI routines"
// of §III-B.
func (p *Profile) Dominant() []RoutineShare {
	total := p.Total()
	out := make([]RoutineShare, 0, NumRoutines)
	for i, v := range p {
		if v <= 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = v / total
		}
		out = append(out, RoutineShare{Routine: Routine(i), Seconds: v, Share: share})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seconds > out[b].Seconds })
	return out
}

// RoutineShare is one row of a profile breakdown.
type RoutineShare struct {
	Routine Routine
	Seconds float64
	Share   float64
}

// Aries-flavored wire constants: message bytes are carried in 16-byte
// flits, packets hold up to 64 bytes of payload.
const (
	FlitBytes   = 16
	PacketBytes = 64
)

// FlitsFor returns the number of flits needed to carry the given bytes.
func FlitsFor(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return math.Ceil(bytes / FlitBytes)
}

// PacketsFor returns the number of packets for a transfer of the given
// total bytes sent as messages of msgBytes each (the per-message header
// cost makes many small messages far more packet-hungry than one large
// one).
func PacketsFor(bytes, msgBytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	if msgBytes <= 0 {
		msgBytes = bytes
	}
	msgs := math.Ceil(bytes / msgBytes)
	pktsPerMsg := math.Ceil(msgBytes / PacketBytes)
	return msgs * pktsPerMsg
}

// RankMapper maps MPI ranks to the routers of a job's placement. Ranks are
// laid out block-wise: ranks [i*RanksPerNode, (i+1)*RanksPerNode) live on
// Nodes[i], matching Slurm's default distribution.
type RankMapper struct {
	Topo         *topology.Dragonfly
	Nodes        []topology.NodeID
	RanksPerNode int
}

// NumRanks returns the job's total rank count.
func (m *RankMapper) NumRanks() int { return len(m.Nodes) * m.RanksPerNode }

// RouterOf returns the router hosting the given rank.
func (m *RankMapper) RouterOf(rank int) topology.RouterID {
	node := m.Nodes[rank/m.RanksPerNode]
	return m.Topo.RouterOfNode(node)
}

// Routers returns the distinct routers of the placement, ascending.
func (m *RankMapper) Routers() []topology.RouterID {
	out := make([]topology.RouterID, len(m.Nodes))
	for i, n := range m.Nodes {
		out[i] = m.Topo.RouterOfNode(n)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Pattern is a normalized router-to-router traffic shape: the volume and
// message weights sum to 1 across all directed router pairs. Instantiate
// scales it to a concrete per-step volume.
type Pattern struct {
	flows []netsim.Flow // Flits and Packets hold normalized weights
}

// NumPairs returns the number of distinct directed router pairs.
func (p *Pattern) NumPairs() int { return len(p.flows) }

// Empty reports whether the pattern carries no traffic (single-router
// jobs communicate through the local router only).
func (p *Pattern) Empty() bool { return len(p.flows) == 0 }

// Instantiate scales the pattern to totalFlits and totalPackets for one
// step, appending into dst (pass nil to allocate) and returning it. All
// flows share the given request fraction.
func (p *Pattern) Instantiate(totalFlits, totalPackets, reqFrac float64, dst []netsim.Flow) []netsim.Flow {
	for _, f := range p.flows {
		dst = append(dst, netsim.Flow{
			Src:             f.Src,
			Dst:             f.Dst,
			Flits:           f.Flits * totalFlits,
			Packets:         f.Packets * totalPackets,
			RequestFraction: reqFrac,
		})
	}
	return dst
}

// Downsample returns a pattern with at most maxPairs router pairs, keeping
// the heaviest pairs and renormalizing so total volume is preserved. Used
// to cap the memory footprint of very large background jobs, whose exact
// pair set does not matter — only where their load lands in aggregate.
func (p *Pattern) Downsample(maxPairs int) *Pattern {
	if maxPairs <= 0 || len(p.flows) <= maxPairs {
		return p
	}
	flows := make([]netsim.Flow, len(p.flows))
	copy(flows, p.flows)
	// equal volumes tie here, and which tied pairs survive the cut is
	// sort.Slice's tie order: the campaign's bytes depend on it
	sort.Slice(flows, func(i, j int) bool { return flows[i].Flits > flows[j].Flits })
	flows = flows[:maxPairs]
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
	slices.SortFunc(flows, byPair)
	return &Pattern{flows: flows}
}

// PatternBuilder accumulates weighted router-pair traffic and normalizes
// it into a Pattern. Accumulation lives in a dense flow slice (insertion
// order) with a dense pair index beside it: routers get local IDs in the
// order they are first seen, and index[src][dst] over local IDs holds the
// pair's flow position plus one. The index is bounded by the routers the
// pattern touches, not by the machine, and the per-Add hot path does no
// hashing. Builders come from a pool (NewPatternBuilder, Release) and keep
// their storage between patterns.
type PatternBuilder struct {
	local []int32   // global router ID → local ID plus one (0 = unseen)
	index [][]int32 // [local src][local dst] → flow position plus one
	flows []netsim.Flow
	keys  []uint64 // Build's scratch: packed (Src, Dst) pairs
}

var builderPool = sync.Pool{New: func() any { return new(PatternBuilder) }}

// NewPatternBuilder returns an empty builder, reusing the storage of a
// released one when the pool has one.
func NewPatternBuilder() *PatternBuilder { return builderPool.Get().(*PatternBuilder) }

// Release empties b and returns it to the pool. b must not be used
// afterwards; Patterns it built stay valid.
func (b *PatternBuilder) Release() {
	b.reset()
	builderPool.Put(b)
}

// reset empties b and keeps its storage.
func (b *PatternBuilder) reset() {
	// every router with a local ID is an endpoint of some flow
	for _, f := range b.flows {
		b.local[f.Src], b.local[f.Dst] = 0, 0
	}
	b.index = b.index[:0]
	b.flows = b.flows[:0]
}

// localID returns r's local ID, assigning the next one on first sight.
func (b *PatternBuilder) localID(r topology.RouterID) int {
	if int(r) >= len(b.local) {
		b.local = append(b.local, make([]int32, int(r)+1-len(b.local))...)
	}
	if b.local[r] == 0 {
		// reuse a released row's storage, emptied
		n := len(b.index)
		if n < cap(b.index) {
			b.index = b.index[:n+1]
			b.index[n] = b.index[n][:0]
		} else {
			b.index = append(b.index, nil)
		}
		b.local[r] = int32(n + 1)
	}
	return int(b.local[r]) - 1
}

// Add accumulates volume and message weight between two routers. Traffic
// between a router and itself stays on-chip and is dropped.
func (b *PatternBuilder) Add(src, dst topology.RouterID, volWeight, msgWeight float64) {
	if src == dst || (volWeight <= 0 && msgWeight <= 0) {
		return
	}
	s, d := b.localID(src), b.localID(dst)
	row := b.index[s]
	if d >= len(row) {
		row = append(row, make([]int32, d+1-len(row))...)
		b.index[s] = row
	}
	if row[d] == 0 {
		b.flows = append(b.flows, netsim.Flow{Src: src, Dst: dst})
		row[d] = int32(len(b.flows))
	}
	f := &b.flows[row[d]-1]
	f.Flits += volWeight
	f.Packets += msgWeight
}

// byPair orders flows by (Src, Dst); a pattern holds each pair once, so
// the order is total and any sort yields the same slice.
func byPair(a, b netsim.Flow) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// Build normalizes the accumulated weights into a Pattern. The builder can
// be reused afterwards (it keeps its state).
func (b *PatternBuilder) Build() *Pattern {
	// sort BEFORE totaling: float summation is order-sensitive, and
	// accumulation order must never leak into results. Router IDs are
	// non-negative, so the packed keys order like byPair, and each pair is
	// held once, so any sort yields the same order.
	keys := b.keys[:0]
	for _, f := range b.flows {
		keys = append(keys, uint64(f.Src)<<32|uint64(f.Dst))
	}
	slices.Sort(keys)
	b.keys = keys
	p := &Pattern{flows: make([]netsim.Flow, len(keys))}
	var volTotal, msgTotal float64
	for i, k := range keys {
		s, d := b.local[k>>32]-1, b.local[uint32(k)]-1
		f := b.flows[b.index[s][d]-1]
		p.flows[i] = f
		volTotal += f.Flits
		msgTotal += f.Packets
	}
	for i := range p.flows {
		if volTotal > 0 {
			p.flows[i].Flits /= volTotal
		}
		if msgTotal > 0 {
			p.flows[i].Packets /= msgTotal
		}
	}
	return p
}

// AddStencil4D adds the halo-exchange pattern of a 4D stencil (MILC's
// su3_rmd does a 4D nearest-neighbor exchange): ranks are arranged in a
// dims[0]×dims[1]×dims[2]×dims[3] torus and every rank exchanges equal
// volume with its 8 neighbors. dims must multiply to m.NumRanks().
func (b *PatternBuilder) AddStencil4D(m *RankMapper, dims [4]int) error {
	p := dims[0] * dims[1] * dims[2] * dims[3]
	if p != m.NumRanks() {
		return fmt.Errorf("mpi: stencil dims %v = %d ranks, placement has %d", dims, p, m.NumRanks())
	}
	idx := func(c [4]int) int {
		return ((c[0]*dims[1]+c[1])*dims[2]+c[2])*dims[3] + c[3]
	}
	var c [4]int
	for c[0] = 0; c[0] < dims[0]; c[0]++ {
		for c[1] = 0; c[1] < dims[1]; c[1]++ {
			for c[2] = 0; c[2] < dims[2]; c[2]++ {
				for c[3] = 0; c[3] < dims[3]; c[3]++ {
					rank := idx(c)
					src := m.RouterOf(rank)
					for d := 0; d < 4; d++ {
						for _, dir := range [2]int{-1, 1} {
							nc := c
							nc[d] = (nc[d] + dir + dims[d]) % dims[d]
							dst := m.RouterOf(idx(nc))
							b.Add(src, dst, 1, 1)
						}
					}
				}
			}
		}
	}
	return nil
}

// AddStencil3D adds a 3D halo-exchange (AMG's structured multigrid
// communication is dominated by 3D neighbor exchanges at each level).
func (b *PatternBuilder) AddStencil3D(m *RankMapper, dims [3]int) error {
	p := dims[0] * dims[1] * dims[2]
	if p != m.NumRanks() {
		return fmt.Errorf("mpi: stencil dims %v = %d ranks, placement has %d", dims, p, m.NumRanks())
	}
	idx := func(x, y, z int) int { return (x*dims[1]+y)*dims[2] + z }
	for x := 0; x < dims[0]; x++ {
		for y := 0; y < dims[1]; y++ {
			for z := 0; z < dims[2]; z++ {
				src := m.RouterOf(idx(x, y, z))
				neigh := [][3]int{
					{(x + 1) % dims[0], y, z}, {(x - 1 + dims[0]) % dims[0], y, z},
					{x, (y + 1) % dims[1], z}, {x, (y - 1 + dims[1]) % dims[1], z},
					{x, y, (z + 1) % dims[2]}, {x, y, (z - 1 + dims[2]) % dims[2]},
				}
				for _, nc := range neigh {
					b.Add(src, m.RouterOf(idx(nc[0], nc[1], nc[2])), 1, 1)
				}
			}
		}
	}
	return nil
}

// AddAllreduce adds the traffic of a recursive-doubling allreduce over all
// ranks: log2(P) rounds in which rank r exchanges with rank r XOR 2^k.
// weight scales the collective's volume relative to other pattern
// components; message weight is the same per exchange (allreduce messages
// are small but numerous).
func (b *PatternBuilder) AddAllreduce(m *RankMapper, weight float64) {
	p := m.NumRanks()
	if p < 2 {
		return
	}
	rounds := 0
	for 1<<rounds < p {
		rounds++
	}
	for k := 0; k < rounds; k++ {
		bit := 1 << k
		for r := 0; r < p; r++ {
			partner := r ^ bit
			if partner >= p || partner < r {
				continue // count each exchange once per direction below
			}
			a := m.RouterOf(r)
			c := m.RouterOf(partner)
			b.Add(a, c, weight, weight)
			b.Add(c, a, weight, weight)
		}
	}
}

// AddIrregular adds an irregular all-to-some exchange: every rank sends to
// `fanout` pseudo-random peers with the given weight. The peer choice is a
// deterministic function of the rank (a multiplicative hash), modeling the
// static-but-unstructured communication graphs of graph analytics codes
// like miniVite.
func (b *PatternBuilder) AddIrregular(m *RankMapper, fanout int, weight float64) {
	p := m.NumRanks()
	if p < 2 {
		return
	}
	for r := 0; r < p; r++ {
		src := m.RouterOf(r)
		h := uint64(r)*0x9e3779b97f4a7c15 + 0x853c49e6748fea9b
		for f := 0; f < fanout; f++ {
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			peer := int(h % uint64(p))
			if peer == r {
				peer = (peer + 1) % p
			}
			b.Add(src, m.RouterOf(peer), weight, weight)
		}
	}
}

// AddIOTraffic adds flows from every job router to the machine's I/O
// routers (checkpoint/filesystem traffic). Weight is split evenly over the
// I/O routers.
func (b *PatternBuilder) AddIOTraffic(m *RankMapper, weight float64) {
	ios := m.Topo.IORouters()
	if len(ios) == 0 {
		return
	}
	w := weight / float64(len(ios))
	for _, r := range m.Routers() {
		for _, io := range ios {
			b.Add(r, io, w, w)
		}
	}
}
