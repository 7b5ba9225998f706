package desim

import (
	"testing"

	"dragonvar/internal/netsim"
	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

func tiny(t *testing.T) *topology.Dragonfly {
	t.Helper()
	d, err := topology.New(topology.Config{
		Groups: 4, Rows: 2, Cols: 3, NodesPerRouter: 2,
		GlobalLinksPerRouter: 2, HaswellGroups: 0, IORoutersPerGroup: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func run(t *testing.T, d *topology.Dragonfly, cfg Config, streams []TrafficSpec, cycles int, seed int64) Stats {
	t.Helper()
	sim := New(d, cfg, rng.New(seed))
	st, err := sim.Run(streams, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPacketsDelivered(t *testing.T) {
	d := tiny(t)
	streams := []TrafficSpec{{Src: d.RouterAt(0, 0, 0), Dst: d.RouterAt(1, 1, 2), Rate: 0.05}}
	st := run(t, d, DefaultConfig(), streams, 20000, 1)
	if st.Injected == 0 {
		t.Fatal("nothing injected")
	}
	// at low load nearly everything should arrive
	if float64(st.Delivered) < 0.95*float64(st.Injected) {
		t.Fatalf("delivered %d of %d injected", st.Delivered, st.Injected)
	}
	if st.MeanLatency <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	d := tiny(t)
	sim := New(d, DefaultConfig(), rng.New(1))
	r := d.RouterAt(0, 0, 0)
	if _, err := sim.Run([]TrafficSpec{{Src: r, Dst: r, Rate: 0.1}}, 100); err == nil {
		t.Fatal("expected error for self-loop stream")
	}
}

func TestLatencyGrowsConvexlyWithLoad(t *testing.T) {
	d := tiny(t)
	src, dst := d.RouterAt(0, 0, 0), d.RouterAt(2, 1, 1)
	lat := func(rate float64) float64 {
		st := run(t, d, Config{QueueDepth: 8, PacketFlits: 4, Adaptive: false, MaxCandidates: 1},
			[]TrafficSpec{{Src: src, Dst: dst, Rate: rate}}, 40000, 7)
		return st.MeanLatency
	}
	low := lat(0.02)
	mid := lat(0.12)
	high := lat(0.23) // one packet of 4 flits per 4.3 cycles ≈ near saturation
	if !(low < mid && mid < high) {
		t.Fatalf("latency not increasing: %.1f %.1f %.1f", low, mid, high)
	}
	// convexity: the second step (same rate delta) hurts much more
	if (high - mid) < 2*(mid-low) {
		t.Fatalf("latency not convex: %.1f %.1f %.1f", low, mid, high)
	}
}

func TestStallsConcentrateOnSharedPath(t *testing.T) {
	d := tiny(t)
	// two streams sharing a source router vs. a disjoint stream
	shared := d.RouterAt(0, 0, 0)
	st := run(t, d, Config{QueueDepth: 4, PacketFlits: 4, Adaptive: false, MaxCandidates: 1},
		[]TrafficSpec{
			{Src: shared, Dst: d.RouterAt(1, 1, 1), Rate: 0.15},
			{Src: shared, Dst: d.RouterAt(1, 0, 2), Rate: 0.15},
			{Src: d.RouterAt(3, 1, 0), Dst: d.RouterAt(2, 0, 1), Rate: 0.02},
		}, 30000, 11)
	if st.TotalStallCycles == 0 {
		t.Fatal("no stalls under contention")
	}
	// the shared source must stall far more than the quiet one
	if st.StallCycles[shared] <= st.StallCycles[d.RouterAt(3, 1, 0)] {
		t.Fatalf("stalls did not concentrate: shared %d, quiet %d",
			st.StallCycles[shared], st.StallCycles[d.RouterAt(3, 1, 0)])
	}
}

func TestAdaptiveReducesLatencyUnderContention(t *testing.T) {
	d := tiny(t)
	src, dst := d.RouterAt(0, 0, 0), d.RouterAt(2, 1, 2)
	streams := []TrafficSpec{
		{Src: src, Dst: dst, Rate: 0.18},
		{Src: src, Dst: dst, Rate: 0.18},
	}
	fixed := run(t, d, Config{QueueDepth: 8, PacketFlits: 4, Adaptive: false, MaxCandidates: 4}, streams, 40000, 13)
	adaptive := run(t, d, Config{QueueDepth: 8, PacketFlits: 4, Adaptive: true, MaxCandidates: 4}, streams, 40000, 13)
	if adaptive.MeanLatency >= fixed.MeanLatency {
		t.Fatalf("adaptive %.1f cycles should beat fixed %.1f cycles",
			adaptive.MeanLatency, fixed.MeanLatency)
	}
}

func TestBackpressureBoundsQueues(t *testing.T) {
	d := tiny(t)
	src, dst := d.RouterAt(0, 0, 0), d.RouterAt(3, 1, 2)
	// overload hard: injection rate far beyond a single path's capacity
	st := run(t, d, Config{QueueDepth: 3, PacketFlits: 4, Adaptive: false, MaxCandidates: 1},
		[]TrafficSpec{{Src: src, Dst: dst, Rate: 0.9}}, 20000, 17)
	// deliveries bounded by channel capacity: ≤ cycles/PacketFlits
	if st.Delivered > 20000/4+10 {
		t.Fatalf("delivered %d packets exceeds channel capacity", st.Delivered)
	}
	if st.TotalStallCycles == 0 {
		t.Fatal("overload must stall")
	}
	// utilization of the bottleneck approaches 1 but never exceeds it
	if st.MaxChannelUtil > 1.0001 {
		t.Fatalf("channel utilization %v exceeds 1", st.MaxChannelUtil)
	}
	if st.MaxChannelUtil < 0.9 {
		t.Fatalf("bottleneck only %.2f utilized under overload", st.MaxChannelUtil)
	}
}

func TestLatencyLowerBoundIsHopDistance(t *testing.T) {
	d := tiny(t)
	src, dst := d.RouterAt(0, 0, 0), d.RouterAt(0, 0, 1) // same row: 1 hop
	st := run(t, d, Config{QueueDepth: 8, PacketFlits: 4, Adaptive: false, MaxCandidates: 1},
		[]TrafficSpec{{Src: src, Dst: dst, Rate: 0.01}}, 20000, 19)
	// 1 hop × 4 flits = 4 cycles minimum
	if st.MeanLatency < 4 {
		t.Fatalf("mean latency %.1f below physical minimum", st.MeanLatency)
	}
	if st.MeanLatency > 8 {
		t.Fatalf("idle 1-hop latency %.1f too high", st.MeanLatency)
	}
}

func TestDeterministic(t *testing.T) {
	d := tiny(t)
	streams := []TrafficSpec{{Src: d.RouterAt(0, 0, 0), Dst: d.RouterAt(1, 1, 1), Rate: 0.1}}
	a := run(t, d, DefaultConfig(), streams, 10000, 23)
	b := run(t, d, DefaultConfig(), streams, 10000, 23)
	if a.Delivered != b.Delivered || a.MeanLatency != b.MeanLatency {
		t.Fatal("simulation not deterministic")
	}
}

// TestFlowModelAgreesWithPacketModel is the cross-check DESIGN.md promises.
// One flow at 0.2, 0.5 and 0.8 of link bandwidth goes through netsim's
// flow model, and the matching injection rate (packets of 4 flits) through
// this package's packet model. Both must be increasing and convex in load:
// the property netsim's queueDelay encodes.
func TestFlowModelAgreesWithPacketModel(t *testing.T) {
	d := tiny(t)
	src, dst := d.RouterAt(0, 0, 0), d.RouterAt(2, 1, 1)
	ncfg := netsim.DefaultConfig()
	var flowSlow, packetLat [3]float64
	for i, load := range []float64{0.2, 0.5, 0.8} {
		n := netsim.New(d, ncfg, rng.New(1))
		flow := []netsim.Flow{{Src: src, Dst: dst, Flits: load * ncfg.LinkBandwidth, Packets: 1e4, RequestFraction: 1}}
		flowSlow[i] = n.RunRound(flow, nil, 1.0).Slowdown[0]
		packetLat[i] = run(t, d, Config{QueueDepth: 8, PacketFlits: 4, Adaptive: false, MaxCandidates: 1},
			[]TrafficSpec{{Src: src, Dst: dst, Rate: load / 4}}, 30000, 1).MeanLatency
	}
	for _, m := range []struct {
		name string
		v    [3]float64
	}{{"flow slowdown", flowSlow}, {"packet latency", packetLat}} {
		v := m.v
		if !(v[0] < v[1] && v[1] < v[2]) {
			t.Errorf("%s not increasing in load: %v", m.name, v)
		}
		if v[2]-v[1] <= v[1]-v[0] {
			t.Errorf("%s not convex in load: %v", m.name, v)
		}
	}
	t.Logf("flow slowdown ratio %.3f, packet latency ratio %.3f", flowSlow[2]/flowSlow[0], packetLat[2]/packetLat[0])
}

func TestVirtualChannelsRelieveHOLBlocking(t *testing.T) {
	d := tiny(t)
	src, dst := d.RouterAt(0, 0, 0), d.RouterAt(2, 1, 1)
	// a near-saturating "response" stream plus a light "request" stream on
	// the same route: with one VC the requests queue behind the response
	// backlog; with two VCs they keep their own (nearly empty) buffers.
	// Total load stays below channel capacity so the effect is pure
	// head-of-line blocking, not bandwidth sharing.
	streams := []TrafficSpec{
		{Src: src, Dst: dst, Rate: 0.015, VC: 0}, // light requests
		{Src: src, Dst: dst, Rate: 0.23, VC: 1},  // heavy responses (~95% load)
	}
	requestLatency := func(vcs int) float64 {
		cfg := Config{QueueDepth: 6, PacketFlits: 4, Adaptive: false, MaxCandidates: 1, VirtualChannels: vcs}
		sim := New(d, cfg, rng.New(41))
		st, err := sim.Run(streams, 60000)
		if err != nil {
			t.Fatal(err)
		}
		// with one VC both classes share index 0
		return st.LatencyByVC[0]
	}
	one := requestLatency(1)
	two := requestLatency(2)
	if two >= one*0.9 {
		t.Fatalf("separate request VC should cut request latency: 1vc=%.1f 2vc=%.1f", one, two)
	}
}

func TestVCStallAccounting(t *testing.T) {
	d := tiny(t)
	src, dst := d.RouterAt(0, 0, 0), d.RouterAt(1, 1, 2)
	sim := New(d, DefaultConfig(), rng.New(43))
	st, err := sim.Run([]TrafficSpec{
		{Src: src, Dst: dst, Rate: 0.3, VC: 0},
		{Src: src, Dst: dst, Rate: 0.3, VC: 1},
	}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.StallsByVC) != 2 {
		t.Fatalf("StallsByVC = %v", st.StallsByVC)
	}
	sum := st.StallsByVC[0] + st.StallsByVC[1]
	if sum != st.TotalStallCycles {
		t.Fatalf("per-VC stalls %d don't sum to total %d", sum, st.TotalStallCycles)
	}
	// out-of-range VC clamps rather than panics
	sim2 := New(d, DefaultConfig(), rng.New(44))
	if _, err := sim2.Run([]TrafficSpec{{Src: src, Dst: dst, Rate: 0.1, VC: 99}}, 1000); err != nil {
		t.Fatal(err)
	}
}
