// Package desim is a packet-level, cycle-driven network simulator over the
// same dragonfly topology as the flow model in package netsim. It models
// what the flow model abstracts away — per-packet queueing, head-of-line
// blocking, credit-style backpressure — and exists to validate the flow
// model's qualitative behaviour on small configurations: that latency
// grows convexly with utilization, that stalls concentrate on shared
// links, and that adaptive path choice relieves hotspots.
//
// It is deliberately small-scale: cycle-driven simulation of a full Cori
// would be prohibitive, which is exactly why the campaign uses the flow
// model. The cross-check lives in this package's tests:
// TestFlowModelAgreesWithPacketModel runs both models over the same load
// sweep.
package desim

import (
	"fmt"
	"sort"

	"dragonvar/internal/rng"
	"dragonvar/internal/routing"
	"dragonvar/internal/topology"
)

// Config parameterizes the packet simulator.
type Config struct {
	// QueueDepth is the per-channel, per-VC input buffer capacity, in
	// packets.
	QueueDepth int
	// VirtualChannels is the number of VCs per channel (default 1).
	// Traffic classes mapped to different VCs do not head-of-line block
	// each other — the mechanism behind the Aries request/response VC
	// split that Table II's PT_*_RQ / PT_*_RS counters observe.
	VirtualChannels int
	// PacketFlits is the packet length; a channel is busy that many cycles
	// per packet.
	PacketFlits int
	// Adaptive picks the least-occupied candidate route at injection;
	// false always takes the first minimal path.
	Adaptive bool
	// MaxCandidates bounds the adaptive candidate set.
	MaxCandidates int
}

// DefaultConfig returns sane defaults.
func DefaultConfig() Config {
	return Config{QueueDepth: 8, PacketFlits: 4, Adaptive: true, MaxCandidates: 4, VirtualChannels: 2}
}

// TrafficSpec is one packet stream: Poisson injections between two routers.
type TrafficSpec struct {
	Src, Dst topology.RouterID
	// Rate is the injection probability per cycle (expected packets/cycle).
	Rate float64
	// VC is the virtual channel the stream's packets travel on (clamped to
	// the configured channel count). Use 0 for requests, 1 for responses.
	VC int
}

// Stats is the outcome of a simulation.
type Stats struct {
	Cycles           int
	Injected         int
	Delivered        int
	MeanLatency      float64 // cycles, delivered packets
	P99Latency       float64
	StallCycles      map[topology.RouterID]int // head-of-line blocked cycles per router
	StallsByVC       []int                     // stall cycles per virtual channel
	LatencyByVC      []float64                 // mean delivered latency per virtual channel
	MaxChannelUtil   float64
	TotalStallCycles int
}

// packet is an in-flight packet.
type packet struct {
	route    []channelID
	hop      int
	vc       int // virtual channel the packet travels on
	injected int // cycle of injection
	readyAt  int // cycle the packet finishes arriving at its current queue
	moved    int // last cycle the packet advanced (one hop per cycle max)
	stream   int
}

// channelID indexes the directed channels: link l has channels 2l (A→B)
// and 2l+1 (B→A).
type channelID int32

// Simulator is a cycle-driven packet simulator. Not safe for concurrent
// use.
type Simulator struct {
	topo *topology.Dragonfly
	eng  *routing.Engine
	cfg  Config

	// per-channel state; queues are indexed channel*numVC + vc
	busyUntil []int // cycle the channel finishes its current packet
	numVC     int
	queues    [][]*packet // per-(channel, vc) input queue at the receiving router

	// per-router, per-VC injection queues (indexed router*numVC + vc):
	// NIC injection FIFOs are per virtual channel, so a backlog of one
	// class does not head-of-line block the other at the source
	inject [][]*packet

	stats Stats
	s     *rng.Stream

	latencies []float64
	latSumVC  []float64
	latCntVC  []int
}

// New builds a simulator over machine d.
func New(d *topology.Dragonfly, cfg Config, s *rng.Stream) *Simulator {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.PacketFlits <= 0 {
		cfg.PacketFlits = 4
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = 4
	}
	if cfg.VirtualChannels <= 0 {
		cfg.VirtualChannels = 1
	}
	return &Simulator{
		topo:      d,
		eng:       routing.NewEngine(d),
		cfg:       cfg,
		busyUntil: make([]int, 2*len(d.Links)),
		numVC:     cfg.VirtualChannels,
		queues:    make([][]*packet, 2*len(d.Links)*cfg.VirtualChannels),
		inject:    make([][]*packet, d.Cfg.NumRouters()*cfg.VirtualChannels),
		s:         s,
		stats: Stats{
			StallCycles: make(map[topology.RouterID]int),
			StallsByVC:  make([]int, cfg.VirtualChannels),
			LatencyByVC: make([]float64, cfg.VirtualChannels),
		},
		latSumVC: make([]float64, cfg.VirtualChannels),
		latCntVC: make([]int, cfg.VirtualChannels),
	}
}

// queueOf returns the (channel, vc) input queue index.
func (sim *Simulator) queueOf(c channelID, vc int) int {
	return int(c)*sim.numVC + vc
}

// directedRoute converts a path (undirected link list) from src into the
// directed channel sequence.
func (sim *Simulator) directedRoute(src topology.RouterID, p routing.Path) []channelID {
	out := make([]channelID, len(p.Links))
	cur := src
	for i, l := range p.Links {
		link := sim.topo.Links[l]
		if link.A == cur {
			out[i] = channelID(2 * l)
		} else {
			out[i] = channelID(2*l + 1)
		}
		cur = link.Other(cur)
	}
	return out
}

// receiverOf returns the router a channel delivers into.
func (sim *Simulator) receiverOf(c channelID) topology.RouterID {
	link := sim.topo.Links[c/2]
	if c%2 == 0 {
		return link.B
	}
	return link.A
}

// Run simulates the streams for the given number of cycles and returns
// the statistics. The simulator is single-use.
func (sim *Simulator) Run(streams []TrafficSpec, cycles int) (Stats, error) {
	type streamState struct {
		spec   TrafficSpec
		vc     int
		routes [][]channelID
	}
	states := make([]streamState, len(streams))
	for i, ts := range streams {
		if ts.Src == ts.Dst {
			return Stats{}, fmt.Errorf("desim: stream %d is a self-loop", i)
		}
		vc := ts.VC
		if vc < 0 {
			vc = 0
		}
		if vc >= sim.numVC {
			vc = sim.numVC - 1
		}
		paths := sim.eng.MinimalPaths(ts.Src, ts.Dst, sim.cfg.MaxCandidates, nil)
		routes := make([][]channelID, len(paths))
		for j, p := range paths {
			routes[j] = sim.directedRoute(ts.Src, p)
		}
		states[i] = streamState{spec: ts, vc: vc, routes: routes}
	}

	channelBusyCycles := make([]int, len(sim.busyUntil))

	for cycle := 0; cycle < cycles; cycle++ {
		// 1. inject new packets
		for si := range states {
			st := &states[si]
			if sim.s.Float64() >= st.spec.Rate {
				continue
			}
			ri := 0
			if sim.cfg.Adaptive && len(st.routes) > 1 {
				// UGAL-style choice with global information: take the
				// candidate with the least queued traffic along its route
				best, bestOcc := 0, 1<<30
				for j, r := range st.routes {
					occ := 0
					for _, c := range r {
						occ += len(sim.queues[sim.queueOf(c, st.vc)])
						if sim.busyUntil[c] > cycle {
							occ++
						}
					}
					if occ < bestOcc {
						best, bestOcc = j, occ
					}
				}
				ri = best
			}
			sim.stats.Injected++
			iq := int(st.spec.Src)*sim.numVC + st.vc
			sim.inject[iq] = append(sim.inject[iq], &packet{
				route: st.routes[ri], vc: st.vc, injected: cycle, readyAt: cycle,
				moved: -1, stream: si,
			})
		}

		// 2. move packets: head of each queue tries to enter its next
		// channel. Iterate channels in a fixed order (round-robin fairness
		// is approximated by the per-cycle sweep).
		advance := func(q []*packet, fromRouter topology.RouterID) []*packet {
			if len(q) == 0 {
				return q
			}
			p := q[0]
			if p.readyAt > cycle || p.moved == cycle {
				return q // still arriving, or already advanced this cycle
			}
			if p.hop >= len(p.route) {
				// delivered at the destination router
				sim.stats.Delivered++
				lat := float64(cycle - p.injected)
				sim.latencies = append(sim.latencies, lat)
				sim.latSumVC[p.vc] += lat
				sim.latCntVC[p.vc]++
				return q[1:]
			}
			next := p.route[p.hop]
			if sim.busyUntil[next] > cycle {
				sim.stats.StallCycles[fromRouter]++
				sim.stats.StallsByVC[p.vc]++
				sim.stats.TotalStallCycles++
				return q
			}
			// backpressure: the downstream per-VC buffer must have space
			nextQ := sim.queueOf(next, p.vc)
			if len(sim.queues[nextQ]) >= sim.cfg.QueueDepth {
				sim.stats.StallCycles[fromRouter]++
				sim.stats.StallsByVC[p.vc]++
				sim.stats.TotalStallCycles++
				return q
			}
			sim.busyUntil[next] = cycle + sim.cfg.PacketFlits
			channelBusyCycles[next] += sim.cfg.PacketFlits
			p.hop++
			p.readyAt = cycle + sim.cfg.PacketFlits
			p.moved = cycle
			sim.queues[nextQ] = append(sim.queues[nextQ], p)
			return q[1:]
		}

		for qi := range sim.inject {
			r := topology.RouterID(qi / sim.numVC)
			vc := qi % sim.numVC
			// rotate which VC injects first each cycle, like the channel
			// arbitration below
			slot := int(r)*sim.numVC + (vc+cycle)%sim.numVC
			sim.inject[slot] = advance(sim.inject[slot], r)
		}
		for qi := range sim.queues {
			// per-cycle VC arbitration: rotate which VC of a channel is
			// served first so neither class starves
			c := channelID(qi / sim.numVC)
			vc := qi % sim.numVC
			slot := sim.queueOf(c, (vc+cycle)%sim.numVC)
			recv := sim.receiverOf(c)
			sim.queues[slot] = advance(sim.queues[slot], recv)
		}
	}

	sim.stats.Cycles = cycles
	for vc := 0; vc < sim.numVC; vc++ {
		if sim.latCntVC[vc] > 0 {
			sim.stats.LatencyByVC[vc] = sim.latSumVC[vc] / float64(sim.latCntVC[vc])
		}
	}
	if len(sim.latencies) > 0 {
		var sum float64
		for _, v := range sim.latencies {
			sum += v
		}
		sim.stats.MeanLatency = sum / float64(len(sim.latencies))
		sorted := append([]float64(nil), sim.latencies...)
		sort.Float64s(sorted)
		sim.stats.P99Latency = sorted[len(sorted)*99/100]
	}
	for c, busy := range channelBusyCycles {
		u := float64(busy) / float64(cycles)
		if u > sim.stats.MaxChannelUtil {
			sim.stats.MaxChannelUtil = u
		}
		_ = c
	}
	return sim.stats, nil
}
