package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// goldenRounds pins the round loop's output bits: each configuration runs a
// fixed-seed sequence of randomized rounds covering three cases — no
// background, scaled background, and a fabric with derated and dead links
// (first on routes resolved before the fault, then on re-resolved ones) —
// and the FNV-1a hash of the float bits of every Result field and of the
// counter board after every round must match. The values were recorded
// before the routing split was reduced to one method per policy; never
// regenerate them to make a change pass.
var goldenRounds = []struct {
	name    string
	routing string
	bias    float64
	relax   int
	want    uint64
}{
	{"adaptive", "adaptive", 0, 0, 0x2031b101d16d7f65},
	{"minimal", "minimal", 0, 0, 0x4919abfc30356fe1},
	{"valiant", "valiant", 0, 0, 0x4f0c59ef677a3242},
	{"feedback", "feedback", 0, 0, 0xf5cbe168546f42c2},
	{"adaptive-bias", "adaptive", 1.7, 0, 0xcca6c63c8120af2e},
	{"feedback-bias", "feedback", 1.3, 0, 0x8b7fbfe30da83228},
	{"adaptive-relax1", "adaptive", 0, 1, 0xdba0b6583e9ac174},
	{"feedback-relax3", "feedback", 0, 3, 0xafac6ee38cfdc4de},
}

func TestRoundLoopGolden(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenRounds {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Routing = tc.routing
			cfg.NonMinimalBias = tc.bias
			if tc.relax > 0 {
				cfg.RelaxationRounds = tc.relax
			}
			if got := goldenRoundHash(d, cfg); got != tc.want {
				t.Fatalf("round-loop hash = %#x, want %#x", got, tc.want)
			}
		})
	}
}

// goldenRoundHash runs the golden round sequence on a fresh network.
func goldenRoundHash(d *topology.Dragonfly, cfg Config) uint64 {
	n := New(d, cfg, rng.New(7))
	s := rng.New(2024)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	round := func(flows []Flow, routed *RoutedFlows, bg []ScaledLoad, dur float64) {
		res := n.RunRoundRouted(flows, routed, bg, dur)
		for _, v := range res.Slowdown {
			put(v)
		}
		put(res.MaxLinkUtilization)
		put(res.MeanLinkUtilization)
		for _, v := range n.Board.Data {
			put(v)
		}
	}
	for iter := 0; iter < 24; iter++ {
		flows := randFlows(s, d, 24+s.Intn(48))
		dur := 0.5 + s.Float64()
		switch iter % 3 {
		case 0: // no background, healthy fabric
			n.SetLinkHealth(nil)
			round(flows, n.Resolve(flows), nil, dur)
		case 1: // scaled background, healthy fabric
			n.SetLinkHealth(nil)
			bg := []ScaledLoad{
				{Set: n.BuildLoadSet(randFlows(s, d, 16)), Scale: 0.5 + s.Float64()},
				{Set: n.BuildLoadSet(randFlows(s, d, 8)), Scale: 2 * s.Float64()},
			}
			round(flows, n.Resolve(flows), bg, dur)
		case 2: // derated and dead links
			stale := n.Resolve(flows)
			dead := map[topology.LinkID]bool{}
			derated := map[topology.LinkID]float64{}
			for k := 0; k < 3; k++ {
				dead[topology.LinkID(s.Intn(len(d.Links)))] = true
				derated[topology.LinkID(s.Intn(len(d.Links)))] = 0.2 + 0.6*s.Float64()
			}
			n.SetLinkHealth(func(l topology.LinkID) float64 {
				if dead[l] {
					return 0
				}
				if f, ok := derated[l]; ok {
					return f
				}
				return 1
			})
			var bg []ScaledLoad
			if s.Intn(2) == 0 {
				bg = append(bg, ScaledLoad{Set: n.BuildLoadSet(randFlows(s, d, 16)), Scale: 0.5 + s.Float64()})
			}
			round(flows, stale, bg, dur)
			round(flows, n.Resolve(flows), bg, dur)
		}
	}
	return h.Sum64()
}
