package netsim

import (
	"testing"
	"testing/quick"

	"dragonvar/internal/rng"
	"dragonvar/internal/routing"
	"dragonvar/internal/topology"
)

// TestPropertyNoPolicyRoutesDeadLinks: under arbitrary link-failure sets,
// no routing policy's candidate paths traverse a dead link — the
// failed-link avoidance contract holds for minimal, valiant, adaptive, and
// feedback alike (feedback with live stall state, since its candidate
// enumeration must not depend on the stall view).
func TestPropertyNoPolicyRoutesDeadLinks(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	numLinks := len(d.Links)
	nr := d.Cfg.NumRouters()
	nets := map[string]*Network{}
	for _, name := range routing.PolicyNames() {
		cfg := DefaultConfig()
		cfg.Routing = name
		nets[name] = New(d, cfg, rng.New(77))
	}

	f := func(kill [5]uint16, pairs [4][2]uint16) bool {
		dead := map[topology.LinkID]bool{}
		for _, k := range kill {
			dead[topology.LinkID(int(k)%numLinks)] = true
		}
		for name, n := range nets {
			n.SetLinkHealth(func(l topology.LinkID) float64 {
				if dead[l] {
					return 0
				}
				return 1
			})
			if n.fb != nil {
				// non-trivial stall state must not leak dead links back in
				n.fb.Accumulate(0, 50, 100)
				n.fb.Commit()
			}
			for _, pr := range pairs {
				a := topology.RouterID(int(pr[0]) % nr)
				b := topology.RouterID(int(pr[1]) % nr)
				for _, p := range n.candidates(a, b) {
					for _, l := range p.Links {
						if dead[l] {
							t.Logf("policy %s routed pair %d->%d over dead link %d", name, a, b, l)
							return false
						}
					}
				}
			}
			n.SetLinkHealth(nil)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFeedbackPolicyDeterministicAcrossNetworks: two identically-seeded
// networks under the feedback policy, fed identical rounds, produce
// identical split weights — the per-network stall tracker keeps the
// feedback loop inside the determinism contract.
func TestFeedbackPolicyDeterministicAcrossNetworks(t *testing.T) {
	d, err := topology.New(topology.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Routing = "feedback"
	mk := func() Result {
		n := New(d, cfg, rng.New(31))
		flows := []Flow{
			{Src: 0, Dst: 25, Flits: 5e8, Packets: 5e5, RequestFraction: 0.8},
			{Src: 3, Dst: 17, Flits: 2e8, Packets: 2e5, RequestFraction: 0.8},
		}
		var last Result
		for round := 0; round < 5; round++ {
			last = n.RunRound(flows, nil, 1.0)
		}
		return last
	}
	r1, r2 := mk(), mk()
	if len(r1.Slowdown) != len(r2.Slowdown) {
		t.Fatal("round shapes differ")
	}
	for i := range r1.Slowdown {
		if r1.Slowdown[i] != r2.Slowdown[i] {
			t.Fatalf("slowdown[%d]: %v != %v across identically-seeded networks", i, r1.Slowdown[i], r2.Slowdown[i])
		}
	}
	// and the feedback state actually accumulated (the loop is live)
	n := New(d, cfg, rng.New(31))
	if n.fb == nil {
		t.Fatal("feedback policy without a stall tracker")
	}
	n.RunRound([]Flow{{Src: 0, Dst: 25, Flits: 5e9, Packets: 5e6, RequestFraction: 0.8}}, nil, 1.0)
	sum := 0.0
	for g := 0; g < d.Cfg.Groups; g++ {
		sum += n.fb.Ratio(g)
	}
	if sum == 0 {
		t.Fatal("no stall signal accumulated after a heavily loaded round")
	}
	n.ResetFeedback()
	for g := 0; g < d.Cfg.Groups; g++ {
		if n.fb.Ratio(g) != 0 {
			t.Fatal("ResetFeedback left stall state behind")
		}
	}
}
