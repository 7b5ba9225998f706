package netsim

import (
	"math"
	"testing"

	"dragonvar/internal/counters"
	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

func newNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	return New(d, cfg, rng.New(42))
}

func TestIdleFlowNoSlowdown(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	flows := []Flow{{
		Src: d.RouterAt(2, 0, 0), Dst: d.RouterAt(3, 1, 1),
		Flits: 1e6, Packets: 100, RequestFraction: 0.9,
	}}
	res := n.RunRound(flows, nil, 1.0)
	if res.Slowdown[0] < 1 {
		t.Fatalf("slowdown below 1: %v", res.Slowdown[0])
	}
	if res.Slowdown[0] > 1.01 {
		t.Fatalf("tiny flow on idle machine slowed by %v", res.Slowdown[0])
	}
}

func TestSelfFlowIsFree(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	r := d.RouterAt(1, 1, 1)
	res := n.RunRound([]Flow{{Src: r, Dst: r, Flits: 1e12, Packets: 1e9}}, nil, 1.0)
	if res.Slowdown[0] != 1 {
		t.Fatalf("self flow slowdown = %v", res.Slowdown[0])
	}
	if res.MaxLinkUtilization != 0 {
		t.Fatal("self flow should not touch links")
	}
}

func TestCountersAccumulateFlits(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	src := d.RouterAt(2, 1, 0)
	dst := d.RouterAt(2, 1, 3) // same row: single green link
	before := n.Board.Snapshot()
	n.RunRound([]Flow{{Src: src, Dst: dst, Flits: 1e6, Packets: 50, RequestFraction: 1}}, nil, 1.0)
	delta := n.Board.DeltaSum(before, []topology.RouterID{src, dst})
	if delta[counters.RTFlitTot] < 1e6*0.99 {
		t.Fatalf("RT_FLIT_TOT delta = %v, want ~1e6", delta[counters.RTFlitTot])
	}
	// all data flits arrive at the destination's processor tiles on VC0
	dd := n.Board.DeltaSum(before, []topology.RouterID{dst})
	if math.Abs(dd[counters.PTFlitVC0]-1e6) > 1 {
		t.Fatalf("PT_FLIT_VC0 at dst = %v, want 1e6", dd[counters.PTFlitVC0])
	}
	// acks arrive back at the source on VC4
	sd := n.Board.DeltaSum(before, []topology.RouterID{src})
	if sd[counters.PTFlitVC4] != 50 {
		t.Fatalf("PT_FLIT_VC4 at src = %v, want 50 acks", sd[counters.PTFlitVC4])
	}
}

func TestContentionSlowsFlows(t *testing.T) {
	cfg := DefaultConfig()
	n := newNet(t, cfg)
	d := n.Topology()
	src := d.RouterAt(2, 1, 0)
	dst := d.RouterAt(2, 1, 3)

	solo := []Flow{{Src: src, Dst: dst, Flits: 2e9, Packets: 1e5, RequestFraction: 1}}
	resSolo := n.RunRound(solo, nil, 1.0)

	// many heavy competitors over the same row
	crowd := append([]Flow{}, solo...)
	for c := 0; c < 6; c++ {
		crowd = append(crowd, Flow{
			Src: d.RouterAt(2, 1, 0), Dst: d.RouterAt(2, 1, 3),
			Flits: 3e9, Packets: 1e5, RequestFraction: 1,
		})
	}
	resCrowd := n.RunRound(crowd, nil, 1.0)
	if resCrowd.Slowdown[0] <= resSolo.Slowdown[0] {
		t.Fatalf("contention did not slow the flow: solo %v, crowded %v",
			resSolo.Slowdown[0], resCrowd.Slowdown[0])
	}
}

func TestStallCountersGrowWithCongestion(t *testing.T) {
	cfg := DefaultConfig()
	n := newNet(t, cfg)
	d := n.Topology()
	src := d.RouterAt(3, 0, 1)
	dst := d.RouterAt(3, 0, 4)

	before := n.Board.Snapshot()
	n.RunRound([]Flow{{Src: src, Dst: dst, Flits: 1e5, Packets: 10, RequestFraction: 1}}, nil, 1.0)
	lightStalls := n.Board.DeltaSum(before, []topology.RouterID{src, dst})[counters.RTRBStl]

	before = n.Board.Snapshot()
	var heavy []Flow
	for c := 0; c < 8; c++ {
		heavy = append(heavy, Flow{Src: src, Dst: dst, Flits: 2.5e9, Packets: 1e5, RequestFraction: 1})
	}
	n.RunRound(heavy, nil, 1.0)
	heavyStalls := n.Board.DeltaSum(before, []topology.RouterID{src, dst})[counters.RTRBStl]

	if heavyStalls <= lightStalls*100 {
		t.Fatalf("stalls did not grow superlinearly with load: light %v, heavy %v", lightStalls, heavyStalls)
	}
}

func TestSmallMessageTrafficHitsEndpointCounters(t *testing.T) {
	cfg := DefaultConfig()
	n := newNet(t, cfg)
	d := n.Topology()
	src := d.RouterAt(4, 1, 1)
	dst := d.RouterAt(5, 2, 2)

	// bandwidth-heavy: lots of flits, few packets
	before := n.Board.Snapshot()
	n.RunRound([]Flow{{Src: src, Dst: dst, Flits: 4e9, Packets: 1e4, RequestFraction: 1}}, nil, 1.0)
	bw := n.Board.DeltaSum(before, []topology.RouterID{src, dst})

	// message-rate-heavy: few flits, a flood of tiny packets
	before = n.Board.Snapshot()
	n.RunRound([]Flow{{Src: src, Dst: dst, Flits: 2e8, Packets: 2e8, RequestFraction: 1}}, nil, 1.0)
	msg := n.Board.DeltaSum(before, []topology.RouterID{src, dst})

	if msg[counters.PTRBStlRq] <= bw[counters.PTRBStlRq] {
		t.Fatalf("small-message traffic should stall request VCs more: bw=%v msg=%v",
			bw[counters.PTRBStlRq], msg[counters.PTRBStlRq])
	}
	if bw[counters.RTRBStl] <= msg[counters.RTRBStl] {
		t.Fatalf("bandwidth traffic should stall router tiles more: bw=%v msg=%v",
			bw[counters.RTRBStl], msg[counters.RTRBStl])
	}
}

func TestAdaptiveSpreadsLoad(t *testing.T) {
	mk := func(adaptive bool) float64 {
		cfg := DefaultConfig()
		cfg.Routing = "minimal"
		if adaptive {
			cfg.Routing = "adaptive"
		}
		d, err := topology.New(topology.Small())
		if err != nil {
			t.Fatal(err)
		}
		n := New(d, cfg, rng.New(7))
		src := d.RouterAt(0, 2, 1)
		dst := d.RouterAt(6, 3, 4)
		var flows []Flow
		for c := 0; c < 10; c++ {
			flows = append(flows, Flow{Src: src, Dst: dst, Flits: 2e9, Packets: 1e5, RequestFraction: 1})
		}
		return n.RunRound(flows, nil, 1.0).MaxLinkUtilization
	}
	minimalOnly := mk(false)
	adaptive := mk(true)
	if adaptive >= minimalOnly {
		t.Fatalf("adaptive routing should lower peak utilization: adaptive %v, minimal %v",
			adaptive, minimalOnly)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		d, err := topology.New(topology.Small())
		if err != nil {
			t.Fatal(err)
		}
		n := New(d, DefaultConfig(), rng.New(1234))
		flows := []Flow{
			{Src: d.RouterAt(0, 0, 1), Dst: d.RouterAt(3, 2, 2), Flits: 1e9, Packets: 1e5, RequestFraction: 0.8},
			{Src: d.RouterAt(1, 1, 1), Dst: d.RouterAt(3, 2, 2), Flits: 2e9, Packets: 2e5, RequestFraction: 0.5},
		}
		return n.RunRound(flows, nil, 1.0)
	}
	a, b := run(), run()
	for i := range a.Slowdown {
		if a.Slowdown[i] != b.Slowdown[i] {
			t.Fatalf("nondeterministic slowdown: %v vs %v", a.Slowdown[i], b.Slowdown[i])
		}
	}
	if a.MaxLinkUtilization != b.MaxLinkUtilization {
		t.Fatal("nondeterministic utilization")
	}
}

func TestCountersMonotonic(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	flows := []Flow{{Src: d.RouterAt(0, 1, 1), Dst: d.RouterAt(2, 2, 2), Flits: 1e9, Packets: 1e5, RequestFraction: 1}}
	var prev counters.RouterCounters
	zero := counters.NewBoard(d.Cfg.NumRouters())
	all := make([]topology.RouterID, d.Cfg.NumRouters())
	for i := range all {
		all[i] = topology.RouterID(i)
	}
	for round := 0; round < 5; round++ {
		n.RunRound(flows, nil, 1.0)
		cur := n.Board.DeltaSum(zero, all)
		for c := 0; c < counters.NumJob; c++ {
			if cur[c] < prev[c] {
				t.Fatalf("counter %v decreased: %v -> %v", counters.Index(c), prev[c], cur[c])
			}
		}
		prev = cur
	}
}

func TestQueueDelayProperties(t *testing.T) {
	if queueDelay(0) != 0 {
		t.Fatal("idle link should have zero delay")
	}
	if queueDelay(-1) != 0 {
		t.Fatal("negative utilization should clamp to zero delay")
	}
	// monotone increasing
	prev := 0.0
	for u := 0.05; u < 3.0; u += 0.05 {
		d := queueDelay(u)
		if d < prev {
			t.Fatalf("queueDelay not monotone at u=%v", u)
		}
		if math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("queueDelay unbounded at u=%v", u)
		}
		prev = d
	}
	// convex enough: delay at 0.9 should far exceed 2x delay at 0.45
	if queueDelay(0.9) < 2*queueDelay(0.45)*2 {
		t.Fatal("queueDelay not convex enough to punish overload")
	}
}

func TestZeroDurationDefaults(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	// must not panic or divide by zero
	res := n.RunRound([]Flow{{Src: d.RouterAt(0, 0, 1), Dst: d.RouterAt(1, 0, 1), Flits: 1e6, Packets: 10, RequestFraction: 1}}, nil, 0)
	if math.IsNaN(res.Slowdown[0]) || res.Slowdown[0] < 1 {
		t.Fatalf("bad slowdown with zero duration: %v", res.Slowdown[0])
	}
}

func TestResetCache(t *testing.T) {
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	n.RunRound([]Flow{{Src: d.RouterAt(0, 0, 1), Dst: d.RouterAt(1, 0, 1), Flits: 1e6, Packets: 10, RequestFraction: 1}}, nil, 1)
	if len(n.pathCache) == 0 {
		t.Fatal("cache should be populated after a round")
	}
	n.ResetCache()
	if len(n.pathCache) != 0 {
		t.Fatal("ResetCache should empty the cache")
	}
}

func TestFarTrafficDoesNotStallLocalCounters(t *testing.T) {
	// A job in groups 7..8 should see (almost) no counter activity from
	// traffic contained in groups 0..1: that is what makes per-job counter
	// collection informative.
	n := newNet(t, DefaultConfig())
	d := n.Topology()
	mine := []topology.RouterID{d.RouterAt(7, 2, 2), d.RouterAt(8, 1, 1)}
	before := n.Board.Snapshot()
	var flows []Flow
	for c := 0; c < 6; c++ {
		flows = append(flows, Flow{Src: d.RouterAt(0, 1, 1), Dst: d.RouterAt(1, 2, 2), Flits: 3e9, Packets: 1e5, RequestFraction: 1})
	}
	n.RunRound(flows, nil, 1.0)
	delta := n.Board.DeltaSum(before, mine)
	// Valiant detours may leak a little traffic through other groups, but
	// the bulk must stay off our routers.
	if delta[counters.RTFlitTot] > 6*3e9*0.05 {
		t.Fatalf("distant traffic leaked %v flits onto local routers", delta[counters.RTFlitTot])
	}
}
