package mpi

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dragonvar/internal/topology"
)

func testMapper(t *testing.T, numNodes, ranksPerNode int) *RankMapper {
	t.Helper()
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	knl := d.ComputeNodes(topology.KNL)
	if len(knl) < numNodes {
		t.Fatalf("test machine too small: %d KNL nodes, need %d", len(knl), numNodes)
	}
	return &RankMapper{Topo: d, Nodes: knl[:numNodes], RanksPerNode: ranksPerNode}
}

func TestRoutineString(t *testing.T) {
	if Waitall.String() != "Waitall" || Allreduce.String() != "Allreduce" {
		t.Fatal("routine names wrong")
	}
	if Routine(99).String() != "Routine(99)" {
		t.Fatal("out-of-range routine name should be diagnostic")
	}
	if NumRoutines != 10 {
		t.Fatalf("NumRoutines = %d", NumRoutines)
	}
}

func TestProfileTotalAddScaled(t *testing.T) {
	var p Profile
	p[Waitall] = 3
	p[Allreduce] = 2
	if p.Total() != 5 {
		t.Fatalf("Total = %v", p.Total())
	}
	q := p.Scaled(2)
	if q[Waitall] != 6 || q.Total() != 10 {
		t.Fatal("Scaled wrong")
	}
	p.Add(&q)
	if p[Allreduce] != 6 {
		t.Fatal("Add wrong")
	}
}

func TestProfileDominant(t *testing.T) {
	var p Profile
	p[Waitall] = 6
	p[Iprobe] = 3
	p[Test] = 1
	dom := p.Dominant()
	if len(dom) != 3 {
		t.Fatalf("Dominant len = %d", len(dom))
	}
	if dom[0].Routine != Waitall || math.Abs(dom[0].Share-0.6) > 1e-12 {
		t.Fatalf("top routine = %+v", dom[0])
	}
	if dom[1].Routine != Iprobe || dom[2].Routine != Test {
		t.Fatal("Dominant not sorted")
	}
}

func TestFlitsFor(t *testing.T) {
	if FlitsFor(0) != 0 || FlitsFor(-5) != 0 {
		t.Fatal("non-positive bytes should need 0 flits")
	}
	if FlitsFor(16) != 1 || FlitsFor(17) != 2 {
		t.Fatalf("FlitsFor(16)=%v FlitsFor(17)=%v", FlitsFor(16), FlitsFor(17))
	}
}

func TestPacketsForSmallVsLargeMessages(t *testing.T) {
	total := 1e6
	large := PacketsFor(total, 65536)
	small := PacketsFor(total, 8)
	if small <= large {
		t.Fatalf("small messages should need more packets: small=%v large=%v", small, large)
	}
	// 8-byte messages each need a full packet
	if small != math.Ceil(total/8) {
		t.Fatalf("small = %v", small)
	}
	if PacketsFor(0, 8) != 0 {
		t.Fatal("zero bytes should need zero packets")
	}
	// msgBytes <= 0 treats the whole transfer as one message
	if PacketsFor(128, 0) != 2 {
		t.Fatalf("PacketsFor(128, 0) = %v", PacketsFor(128, 0))
	}
}

func TestRankMapper(t *testing.T) {
	m := testMapper(t, 4, 64)
	if m.NumRanks() != 256 {
		t.Fatalf("NumRanks = %d", m.NumRanks())
	}
	// ranks on the same node map to the same router
	r0 := m.RouterOf(0)
	r63 := m.RouterOf(63)
	if r0 != r63 {
		t.Fatal("ranks 0 and 63 should share a node and router")
	}
	// routers list is distinct, ascending, and covers all ranks' routers
	routers := m.Routers()
	for i := 1; i < len(routers); i++ {
		if routers[i] <= routers[i-1] {
			t.Fatal("Routers not strictly ascending")
		}
	}
	found := false
	for _, r := range routers {
		if r == m.RouterOf(100) {
			found = true
		}
	}
	if !found {
		t.Fatal("rank 100's router missing from Routers()")
	}
}

func TestPatternBuilderNormalizes(t *testing.T) {
	b := NewPatternBuilder()
	b.Add(1, 2, 3, 30)
	b.Add(2, 3, 1, 10)
	p := b.Build()
	if p.NumPairs() != 2 {
		t.Fatalf("NumPairs = %d", p.NumPairs())
	}
	flows := p.Instantiate(100, 1000, 0.9, nil)
	var vol, msg float64
	for _, f := range flows {
		vol += f.Flits
		msg += f.Packets
		if f.RequestFraction != 0.9 {
			t.Fatal("request fraction not propagated")
		}
	}
	if math.Abs(vol-100) > 1e-9 || math.Abs(msg-1000) > 1e-9 {
		t.Fatalf("instantiated totals = %v flits, %v packets", vol, msg)
	}
	// proportions preserved: pair (1,2) has 3/4 of volume
	for _, f := range flows {
		if f.Src == 1 && math.Abs(f.Flits-75) > 1e-9 {
			t.Fatalf("pair (1,2) flits = %v, want 75", f.Flits)
		}
	}
}

func TestPatternBuilderDropsSelfAndZero(t *testing.T) {
	b := NewPatternBuilder()
	b.Add(5, 5, 10, 10) // self traffic stays on-chip
	b.Add(1, 2, 0, 0)   // no weight
	p := b.Build()
	if !p.Empty() {
		t.Fatalf("pattern should be empty, has %d pairs", p.NumPairs())
	}
	if got := p.Instantiate(10, 10, 1, nil); len(got) != 0 {
		t.Fatal("empty pattern should instantiate no flows")
	}
}

func TestPatternDeterministicOrder(t *testing.T) {
	mk := func() *Pattern {
		b := NewPatternBuilder()
		b.Add(9, 1, 1, 1)
		b.Add(2, 7, 1, 1)
		b.Add(2, 3, 1, 1)
		return b.Build()
	}
	a, bb := mk(), mk()
	fa := a.Instantiate(1, 1, 1, nil)
	fb := bb.Instantiate(1, 1, 1, nil)
	for i := range fa {
		if fa[i].Src != fb[i].Src || fa[i].Dst != fb[i].Dst {
			t.Fatal("pattern order not deterministic")
		}
	}
	// ascending (src, dst)
	for i := 1; i < len(fa); i++ {
		if fa[i].Src < fa[i-1].Src {
			t.Fatal("flows not sorted")
		}
	}
}

func TestStencil4D(t *testing.T) {
	m := testMapper(t, 16, 16) // 256 ranks = 4x4x4x4, 16 nodes span 4 routers
	b := NewPatternBuilder()
	if err := b.AddStencil4D(m, [4]int{4, 4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	p := b.Build()
	if p.Empty() {
		t.Fatal("stencil pattern empty")
	}
	// wrong dims error
	if err := NewPatternBuilder().AddStencil4D(m, [4]int{4, 4, 4, 2}); err == nil {
		t.Fatal("expected dims mismatch error")
	}
}

func TestStencil3D(t *testing.T) {
	m := testMapper(t, 16, 4) // 64 ranks = 4x4x4, 16 nodes span 4 routers
	b := NewPatternBuilder()
	if err := b.AddStencil3D(m, [3]int{4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	if b.Build().Empty() {
		t.Fatal("3D stencil pattern empty")
	}
	if err := NewPatternBuilder().AddStencil3D(m, [3]int{4, 4, 5}); err == nil {
		t.Fatal("expected dims mismatch error")
	}
}

func TestStencilLocalityBeatsIrregular(t *testing.T) {
	// A block-placed stencil should put much of its traffic on few router
	// pairs; an irregular pattern spreads over many more pairs.
	m := testMapper(t, 32, 8) // 256 ranks over 8 routers
	sb := NewPatternBuilder()
	if err := sb.AddStencil4D(m, [4]int{4, 4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	ib := NewPatternBuilder()
	ib.AddIrregular(m, 16, 1)
	if sb.Build().NumPairs() >= ib.Build().NumPairs() {
		t.Fatalf("stencil pairs %d should be < irregular pairs %d",
			sb.Build().NumPairs(), ib.Build().NumPairs())
	}
}

func TestAllreduceTouchesAllRouters(t *testing.T) {
	m := testMapper(t, 8, 8) // 64 ranks
	b := NewPatternBuilder()
	b.AddAllreduce(m, 1)
	p := b.Build()
	if p.Empty() {
		t.Fatal("allreduce pattern empty")
	}
	// every router appears as a source
	srcs := map[topology.RouterID]bool{}
	for _, f := range p.Instantiate(1, 1, 1, nil) {
		srcs[f.Src] = true
	}
	for _, r := range m.Routers() {
		if !srcs[r] {
			t.Fatalf("router %d never sends in allreduce", r)
		}
	}
}

func TestAllreduceTinyJob(t *testing.T) {
	m := testMapper(t, 1, 1)
	b := NewPatternBuilder()
	b.AddAllreduce(m, 1) // single rank: no-op, must not panic
	if !b.Build().Empty() {
		t.Fatal("single-rank allreduce should be empty")
	}
}

func TestIrregularDeterministic(t *testing.T) {
	m := testMapper(t, 4, 16)
	b1 := NewPatternBuilder()
	b1.AddIrregular(m, 8, 1)
	b2 := NewPatternBuilder()
	b2.AddIrregular(m, 8, 1)
	f1 := b1.Build().Instantiate(1, 1, 1, nil)
	f2 := b2.Build().Instantiate(1, 1, 1, nil)
	if len(f1) != len(f2) {
		t.Fatal("irregular pattern not deterministic")
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("irregular pattern not deterministic")
		}
	}
}

func TestIOTrafficTargetsIORouters(t *testing.T) {
	m := testMapper(t, 4, 4)
	b := NewPatternBuilder()
	b.AddIOTraffic(m, 1)
	p := b.Build()
	if p.Empty() {
		t.Fatal("io pattern empty")
	}
	ios := map[topology.RouterID]bool{}
	for _, r := range m.Topo.IORouters() {
		ios[r] = true
	}
	for _, f := range p.Instantiate(1, 1, 1, nil) {
		if !ios[f.Dst] {
			t.Fatalf("io flow destined to non-io router %d", f.Dst)
		}
	}
}

func TestInstantiateAppends(t *testing.T) {
	b := NewPatternBuilder()
	b.Add(1, 2, 1, 1)
	p := b.Build()
	buf := p.Instantiate(10, 10, 1, nil)
	buf = p.Instantiate(20, 20, 1, buf[:0])
	if len(buf) != 1 || buf[0].Flits != 20 {
		t.Fatalf("reused buffer wrong: %+v", buf)
	}
}

func TestDownsample(t *testing.T) {
	b := NewPatternBuilder()
	// 10 pairs with increasing weight
	for i := 0; i < 10; i++ {
		b.Add(topology.RouterID(i), topology.RouterID(i+20), float64(i+1), float64(i+1))
	}
	p := b.Build()
	down := p.Downsample(4)
	if down.NumPairs() != 4 {
		t.Fatalf("pairs = %d, want 4", down.NumPairs())
	}
	// totals re-normalized to 1
	flows := down.Instantiate(1, 1, 1, nil)
	var vol, msg float64
	heaviest := false
	for _, f := range flows {
		vol += f.Flits
		msg += f.Packets
		if f.Src == 9 {
			heaviest = true
		}
	}
	if math.Abs(vol-1) > 1e-9 || math.Abs(msg-1) > 1e-9 {
		t.Fatalf("downsampled totals: vol=%v msg=%v", vol, msg)
	}
	if !heaviest {
		t.Fatal("downsample dropped the heaviest pair")
	}
	// no-ops
	if p.Downsample(100) != p || p.Downsample(0) != p {
		t.Fatal("oversized/zero cap should return the same pattern")
	}
}

// flowBits renders a pattern's flows with their float bits, for exact
// comparison.
func flowBits(p *Pattern) []string {
	out := make([]string, len(p.flows))
	for i, f := range p.flows {
		out[i] = fmt.Sprintf("%d>%d %x %x", f.Src, f.Dst, math.Float64bits(f.Flits), math.Float64bits(f.Packets))
	}
	return out
}

// TestPatternBuilderReuse: a builder emptied and reused for a different
// pattern, on different routers, and then for the first pattern again
// builds each exactly as a fresh builder does.
func TestPatternBuilderReuse(t *testing.T) {
	small := testMapper(t, 16, 4)
	d := small.Topo
	knl := d.ComputeNodes(topology.KNL)
	far := &RankMapper{Topo: d, Nodes: knl[len(knl)-40:], RanksPerNode: 1}
	stencil := func(b *PatternBuilder) {
		if err := b.AddStencil3D(small, [3]int{4, 4, 4}); err != nil {
			t.Fatal(err)
		}
		b.AddAllreduce(small, 0.15)
	}
	background := func(b *PatternBuilder) {
		b.AddIrregular(far, 5, 1)
		b.AddIOTraffic(far, 3)
	}
	fresh := func(add func(*PatternBuilder)) []string {
		b := new(PatternBuilder)
		add(b)
		return flowBits(b.Build())
	}
	reused := new(PatternBuilder)
	for k, add := range []func(*PatternBuilder){stencil, background, stencil} {
		add(reused)
		got, want := flowBits(reused.Build()), fresh(add)
		if !slices.Equal(got, want) {
			t.Fatalf("pattern %d from a reused builder differs from a fresh build:\n%v\nwant\n%v", k, got, want)
		}
		reused.reset()
	}
}

// TestPatternBuilderAllocs pins a warm Build to the Pattern it returns (the
// struct and its flows), and a pooled builder's whole cycle — get, add,
// build, release — to the same two: Add and Build reuse the storage a
// released builder kept.
func TestPatternBuilderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled builders on purpose")
	}
	m := testMapper(t, 64, 1)
	b := NewPatternBuilder()
	b.AddIrregular(m, 4, 1)
	b.Build()
	if allocs := testing.AllocsPerRun(50, func() { b.Build() }); allocs != 2 {
		t.Fatalf("warm Build allocated %v times per call, want 2", allocs)
	}
	b.Release()
	cycle := func() {
		b := NewPatternBuilder()
		b.AddIrregular(m, 4, 1)
		b.Build()
		b.Release()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 2 {
		t.Fatalf("pooled build cycle allocated %v times per call, want 2", allocs)
	}
}
