package netsim

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"dragonvar/internal/counters"
	"dragonvar/internal/rng"
	"dragonvar/internal/routing"
	"dragonvar/internal/topology"
)

func TestBuildLoadSetConservesVolume(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	flows := []Flow{
		{Src: d.RouterAt(0, 1, 1), Dst: d.RouterAt(2, 2, 2), Flits: 1000, Packets: 10, RequestFraction: 0.8},
		{Src: d.RouterAt(1, 0, 0), Dst: d.RouterAt(1, 3, 5), Flits: 500, Packets: 5, RequestFraction: 1},
	}
	ls := n.BuildLoadSet(flows)
	if ls.NumLinks() == 0 {
		t.Fatal("empty load set")
	}
	// endpoint totals conserved
	var inj, ej float64
	for i := range ls.RouterIDs {
		inj += ls.InjFlits[i]
		ej += ls.EjFlits[i]
	}
	if math.Abs(inj-1500) > 1e-9 || math.Abs(ej-1500) > 1e-9 {
		t.Fatalf("endpoint totals: inj=%v ej=%v, want 1500", inj, ej)
	}
	// every link's load is positive and the total link flits is at least
	// the flow volume (each flow crosses ≥1 link)
	var total float64
	for _, v := range ls.LinkFlits {
		if v <= 0 {
			t.Fatal("non-positive link load in set")
		}
		total += v
	}
	if total < 1500 {
		t.Fatalf("link flits = %v, want >= 1500", total)
	}
}

func TestBuildLoadSetSkipsDegenerate(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	r := d.RouterAt(0, 0, 0)
	ls := n.BuildLoadSet([]Flow{
		{Src: r, Dst: r, Flits: 100, Packets: 1},
		{Src: r, Dst: d.RouterAt(1, 1, 1), Flits: 0, Packets: 1},
	})
	if ls.NumLinks() != 0 || len(ls.RouterIDs) != 0 {
		t.Fatal("degenerate flows should produce an empty load set")
	}
}

func TestBackgroundLoadSlowsForeground(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, DefaultConfig(), rng.New(5))
	src := d.RouterAt(2, 1, 0)
	dst := d.RouterAt(2, 1, 3)
	fg := []Flow{{Src: src, Dst: dst, Flits: 1e8, Packets: 1e4, RequestFraction: 1}}

	idle := n.RunRound(fg, nil, 1.0)

	// heavy background over the same row
	var bgFlows []Flow
	for c := 0; c < 6; c++ {
		bgFlows = append(bgFlows, Flow{Src: src, Dst: dst, Flits: 3e9, Packets: 1e5, RequestFraction: 1})
	}
	ls := n.BuildLoadSet(bgFlows)
	busy := n.RunRound(fg, []ScaledLoad{{Set: ls, Scale: 1}}, 1.0)

	if busy.Slowdown[0] <= idle.Slowdown[0] {
		t.Fatalf("background load should slow foreground: idle %v busy %v",
			idle.Slowdown[0], busy.Slowdown[0])
	}
	// scale doubles the pain
	busier := n.RunRound(fg, []ScaledLoad{{Set: ls, Scale: 2}}, 1.0)
	if busier.Slowdown[0] <= busy.Slowdown[0] {
		t.Fatalf("doubled background should slow more: %v vs %v", busy.Slowdown[0], busier.Slowdown[0])
	}
}

func TestBackgroundContributesCounters(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, DefaultConfig(), rng.New(5))
	src := d.RouterAt(3, 1, 0)
	dst := d.RouterAt(3, 1, 4)
	ls := n.BuildLoadSet([]Flow{{Src: src, Dst: dst, Flits: 1e9, Packets: 1e5, RequestFraction: 0.9}})

	before := n.Board.Snapshot()
	n.RunRound(nil, []ScaledLoad{{Set: ls, Scale: 1}}, 1.0)
	delta := n.Board.DeltaSum(before, []topology.RouterID{src, dst})
	if delta[counters.RTFlitTot] <= 0 {
		t.Fatal("background traffic left no RT flit counters")
	}
	if delta[counters.PTFlitTot] <= 0 {
		t.Fatal("background traffic left no PT flit counters")
	}
	// VC0 arrivals at dst reflect the request fraction
	dd := n.Board.DeltaSum(before, []topology.RouterID{dst})
	if math.Abs(dd[counters.PTFlitVC0]-0.9e9) > 1e6 {
		t.Fatalf("background VC0 arrivals = %v, want 9e8", dd[counters.PTFlitVC0])
	}
}

func TestScaledLoadZeroOrNilIgnored(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	n := New(d, DefaultConfig(), rng.New(5))
	fg := []Flow{{Src: d.RouterAt(0, 1, 0), Dst: d.RouterAt(0, 1, 3), Flits: 1e6, Packets: 100, RequestFraction: 1}}
	a := n.RunRound(fg, nil, 1.0)
	b := n.RunRound(fg, []ScaledLoad{{Set: nil, Scale: 1}, {Set: &LoadSet{}, Scale: 0}}, 1.0)
	if a.Slowdown[0] != b.Slowdown[0] {
		t.Fatal("nil/zero background should be a no-op")
	}
}

// mapBuildLoadSet is BuildLoadSet as it was before the dense scratch: a
// fresh engine, MinimalPaths per flow, and map accumulators sorted on the
// way out. It is the reference the dense version is pinned to.
func mapBuildLoadSet(d *topology.Dragonfly, flows []Flow) *LoadSet {
	linkLoad := make(map[topology.LinkID]float64)
	type endpoint struct {
		injF, ejF, injP, ejP, vc0, vc4 float64
	}
	routers := make(map[topology.RouterID]*endpoint)
	ep := func(r topology.RouterID) *endpoint {
		e, ok := routers[r]
		if !ok {
			e = &endpoint{}
			routers[r] = e
		}
		return e
	}
	eng := routing.NewEngine(d)
	for _, f := range flows {
		if f.Src == f.Dst || f.Flits <= 0 {
			continue
		}
		minimal := eng.MinimalPaths(f.Src, f.Dst, 2, nil)
		share := f.Flits / float64(len(minimal))
		for _, p := range minimal {
			for _, l := range p.Links {
				linkLoad[l] += share
			}
		}
		src, dst := ep(f.Src), ep(f.Dst)
		src.injF += f.Flits
		dst.ejF += f.Flits
		src.injP += f.Packets
		dst.ejP += f.Packets
		req := clamp01(f.RequestFraction)
		dst.vc0 += f.Flits * req
		dst.vc4 += f.Flits * (1 - req)
		src.vc4 += f.Packets
	}
	ls := &LoadSet{}
	for id := range linkLoad {
		ls.LinkIDs = append(ls.LinkIDs, id)
	}
	sort.Slice(ls.LinkIDs, func(i, j int) bool { return ls.LinkIDs[i] < ls.LinkIDs[j] })
	ls.LinkFlits = make([]float64, len(ls.LinkIDs))
	for i, id := range ls.LinkIDs {
		ls.LinkFlits[i] = linkLoad[id]
	}
	for r := range routers {
		ls.RouterIDs = append(ls.RouterIDs, r)
	}
	sort.Slice(ls.RouterIDs, func(i, j int) bool { return ls.RouterIDs[i] < ls.RouterIDs[j] })
	for _, r := range ls.RouterIDs {
		e := routers[r]
		ls.InjFlits = append(ls.InjFlits, e.injF)
		ls.EjFlits = append(ls.EjFlits, e.ejF)
		ls.InjPkts = append(ls.InjPkts, e.injP)
		ls.EjPkts = append(ls.EjPkts, e.ejP)
		ls.ArriveVC0 = append(ls.ArriveVC0, e.vc0)
		ls.ArriveVC4 = append(ls.ArriveVC4, e.vc4)
	}
	return ls
}

// sameLoadSet compares two footprints ID for ID and bit for bit.
func sameLoadSet(t *testing.T, got, want *LoadSet) {
	t.Helper()
	if len(got.LinkIDs) != len(want.LinkIDs) || len(got.RouterIDs) != len(want.RouterIDs) {
		t.Fatalf("%d links / %d routers, want %d / %d",
			len(got.LinkIDs), len(got.RouterIDs), len(want.LinkIDs), len(want.RouterIDs))
	}
	for i := range want.LinkIDs {
		if got.LinkIDs[i] != want.LinkIDs[i] || math.Float64bits(got.LinkFlits[i]) != math.Float64bits(want.LinkFlits[i]) {
			t.Fatalf("link %d: (%d, %v), want (%d, %v)", i, got.LinkIDs[i], got.LinkFlits[i], want.LinkIDs[i], want.LinkFlits[i])
		}
	}
	cols := func(ls *LoadSet) [][]float64 {
		return [][]float64{ls.InjFlits, ls.EjFlits, ls.InjPkts, ls.EjPkts, ls.ArriveVC0, ls.ArriveVC4}
	}
	gc, wc := cols(got), cols(want)
	for i := range want.RouterIDs {
		if got.RouterIDs[i] != want.RouterIDs[i] {
			t.Fatalf("router %d: %d, want %d", i, got.RouterIDs[i], want.RouterIDs[i])
		}
		for c := range wc {
			if math.Float64bits(gc[c][i]) != math.Float64bits(wc[c][i]) {
				t.Fatalf("router %d column %d: %v, want %v", got.RouterIDs[i], c, gc[c][i], wc[c][i])
			}
		}
	}
}

// TestBuildLoadSetMatchesMapBuild pins the dense scratch to the map-based
// build, including on a network whose links are degraded: footprints
// always route on the fault-free machine. Reusing one network across
// calls also checks that the pooled scratch is fully reset.
func TestBuildLoadSetMatchesMapBuild(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	s := rng.New(17)
	for trial := 0; trial < 40; trial++ {
		if trial == 20 {
			n.SetLinkHealth(func(l topology.LinkID) float64 {
				if l%7 == 0 {
					return 0
				}
				return 1
			})
		}
		flows := randFlows(s, d, 1+s.Intn(300))
		for i := range flows {
			flows[i].RequestFraction = 1.4*s.Float64() - 0.2
		}
		sameLoadSet(t, n.BuildLoadSet(flows), mapBuildLoadSet(d, flows))
	}
}

// TestBuildLoadSetAllocs pins a warm build to the allocations of the
// LoadSet it returns: the struct, its link IDs, its router IDs, and one
// backing array shared by its seven float columns.
func TestBuildLoadSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch on purpose")
	}
	n := newNet(t, DefaultConfig())
	flows := randFlows(rng.New(4), n.Topology(), 256)
	n.BuildLoadSet(flows) // warm the pooled scratch
	if allocs := testing.AllocsPerRun(50, func() { n.BuildLoadSet(flows) }); allocs != 4 {
		t.Fatalf("warm BuildLoadSet allocated %v times per call, want 4", allocs)
	}
}

// TestEndpointLoadsMatchBuildLoadSet: EndpointLoads holds no links and
// exactly BuildLoadSet's routers and endpoint floats.
func TestEndpointLoadsMatchBuildLoadSet(t *testing.T) {
	n := newNet(t, DefaultConfig())
	s := rng.New(23)
	for trial := 0; trial < 20; trial++ {
		flows := randFlows(s, n.Topology(), 1+s.Intn(300))
		full, ends := n.BuildLoadSet(flows), n.EndpointLoads(flows)
		if len(ends.LinkIDs) != 0 || len(ends.LinkFlits) != 0 {
			t.Fatalf("trial %d: EndpointLoads holds %d links", trial, len(ends.LinkIDs))
		}
		full.LinkIDs, full.LinkFlits = nil, nil
		ends.LinkIDs, ends.LinkFlits = nil, nil
		if !reflect.DeepEqual(full, ends) {
			t.Fatalf("trial %d: endpoint loads differ from BuildLoadSet's", trial)
		}
	}
}
