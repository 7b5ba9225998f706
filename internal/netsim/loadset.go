package netsim

import (
	"slices"

	"dragonvar/internal/routing"
	"dragonvar/internal/topology"
)

// LoadSet is the network footprint of a traffic pattern at unit
// intensity: per-link flit loads and per-router endpoint loads. A
// background job's pattern and routing do not change over its lifetime, so
// its LoadSet is computed once, on the first round that reads it (with an
// even split over minimal path candidates), and each round adds
// Scale×LoadSet. This
// makes a round's cost linear in the number of active background jobs'
// footprints instead of re-routing every flow of every job.
type LoadSet struct {
	// sparse link loads (flits at unit intensity), parallel slices
	LinkIDs   []topology.LinkID
	LinkFlits []float64

	// sparse per-router endpoint loads, parallel slices
	RouterIDs []topology.RouterID
	InjFlits  []float64
	EjFlits   []float64
	InjPkts   []float64
	EjPkts    []float64
	ArriveVC0 []float64 // request flits arriving at the router's NICs
	ArriveVC4 []float64 // response flits (incl. acks) arriving
}

// ScaledLoad pairs a LoadSet with the intensity to apply this round.
type ScaledLoad struct {
	Set   *LoadSet
	Scale float64
}

// BuildLoadSet routes the flows with an even split across their minimal
// path candidates and returns the aggregated unit-intensity footprint. It
// is safe for concurrent use: each call accumulates into dense scratch
// taken from the network's pool, so a warm call allocates only the
// returned LoadSet.
func (n *Network) BuildLoadSet(flows []Flow) *LoadSet { return n.buildLoadSet(flows, true) }

// EndpointLoads is BuildLoadSet without routing: a LoadSet with no links
// whose per-router endpoint loads are BuildLoadSet's, bit for bit and in
// the same router order, because both come from one accumulation.
func (n *Network) EndpointLoads(flows []Flow) *LoadSet { return n.buildLoadSet(flows, false) }

// buildLoadSet accumulates the flows' endpoint loads and, when route is
// set, their minimal-path link loads.
func (n *Network) buildLoadSet(flows []Flow, route bool) *LoadSet {
	sc, _ := n.loadScratch.Get().(*loadScratch)
	if sc == nil {
		sc = &loadScratch{
			// footprints route on the fault-free machine, whatever the
			// network's current link health
			eng:       routing.NewEngine(n.topo),
			linkFlits: make([]float64, len(n.topo.Links)),
			linkOn:    make([]bool, len(n.topo.Links)),
			ends:      make([]endpoint, n.topo.Cfg.NumRouters()),
			routerOn:  make([]bool, n.topo.Cfg.NumRouters()),
		}
	}
	defer n.loadScratch.Put(sc)

	for _, f := range flows {
		if f.Src == f.Dst || f.Flits <= 0 {
			continue
		}
		// even split over minimal candidates only: background traffic is
		// routed statically, Valiant detours are reserved for the
		// adaptively routed foreground flows. Paths are walked directly
		// rather than through the adaptive path cache: footprints are built
		// once per job, and caching their pairs would bloat the cache.
		if route {
			var paths int
			sc.walk, paths = sc.eng.AppendMinimalLinks(sc.walk[:0], f.Src, f.Dst, 2)
			share := f.Flits / float64(paths)
			for _, l := range sc.walk {
				if !sc.linkOn[l] {
					sc.linkOn[l] = true
					sc.links = append(sc.links, l)
				}
				sc.linkFlits[l] += share
			}
		}
		src, dst := sc.endpoint(f.Src), sc.endpoint(f.Dst)
		src.injF += f.Flits
		dst.ejF += f.Flits
		src.injP += f.Packets
		dst.ejP += f.Packets
		req := clamp01(f.RequestFraction)
		dst.vc0 += f.Flits * req
		dst.vc4 += f.Flits * (1 - req)
		src.vc4 += f.Packets // acks
	}

	// write out in ascending ID order, resetting the scratch behind us
	slices.Sort(sc.links)
	slices.Sort(sc.routers)
	nl, nr := len(sc.links), len(sc.routers)
	vals := make([]float64, nl+6*nr)
	col := func(i int) []float64 { return vals[nl+i*nr : nl+(i+1)*nr : nl+(i+1)*nr] }
	ls := &LoadSet{
		LinkIDs: append([]topology.LinkID(nil), sc.links...), LinkFlits: vals[:nl:nl],
		RouterIDs: append([]topology.RouterID(nil), sc.routers...),
		InjFlits:  col(0), EjFlits: col(1), InjPkts: col(2), EjPkts: col(3), ArriveVC0: col(4), ArriveVC4: col(5),
	}
	for i, l := range sc.links {
		ls.LinkFlits[i] = sc.linkFlits[l]
		sc.linkFlits[l], sc.linkOn[l] = 0, false
	}
	for i, r := range sc.routers {
		e := sc.ends[r]
		ls.InjFlits[i], ls.EjFlits[i], ls.InjPkts[i], ls.EjPkts[i] = e.injF, e.ejF, e.injP, e.ejP
		ls.ArriveVC0[i], ls.ArriveVC4[i] = e.vc0, e.vc4
		sc.ends[r], sc.routerOn[r] = endpoint{}, false
	}
	sc.links, sc.routers = sc.links[:0], sc.routers[:0]
	return ls
}

// loadScratch is BuildLoadSet's dense accumulator: per-link flits and
// per-router endpoint loads indexed by ID, with on-list marks so only the
// entries a call touched are collected and reset.
type loadScratch struct {
	eng       *routing.Engine
	walk      []topology.LinkID // one flow's minimal-path links
	linkFlits []float64
	linkOn    []bool
	links     []topology.LinkID // touched links
	ends      []endpoint
	routerOn  []bool
	routers   []topology.RouterID // touched routers
}

type endpoint struct {
	injF, ejF, injP, ejP, vc0, vc4 float64
}

func (sc *loadScratch) endpoint(r topology.RouterID) *endpoint {
	if !sc.routerOn[r] {
		sc.routerOn[r] = true
		sc.routers = append(sc.routers, r)
	}
	return &sc.ends[r]
}

// NumLinks returns the number of links the footprint touches.
func (ls *LoadSet) NumLinks() int { return len(ls.LinkIDs) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
