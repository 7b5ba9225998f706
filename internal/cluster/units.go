package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"

	"dragonvar/internal/topology"
)

// This file is the work-unit face of the campaign: the pieces a
// distributed executor (internal/dist) needs to ship single plan indices
// to other processes and still produce a campaign byte-identical to the
// in-process run. The contract rests on two facts established elsewhere in
// the package: the schedule is a pure function of the campaign config
// (rng.Split depends only on seed material and label), and a run's result
// depends only on its plan, the full plan list, and its index — never on
// which worker simulates it or in what order.

// Resolved returns the config with every default filled in, exactly as New
// applies them. A coordinator hands it to joining workers, so both sides
// schedule identical plan lists.
func (c Config) Resolved() Config { return c.withDefaults() }

// PlanInfo schedules the campaign's work units (a deterministic, repeatable
// computation) and returns the unit count plus a digest of the plan list.
// Coordinator and workers exchange the digest at join time: a mismatch
// means the processes would simulate different campaigns — differing
// binaries, seeds, or machine configs — and must not exchange units.
func (c *Cluster) PlanInfo() (numUnits int, digest string, err error) {
	plans, err := c.schedule()
	if err != nil {
		return 0, "", err
	}
	return len(plans), planDigest(c.cfg, plans), nil
}

// planDigest hashes everything a unit's result depends on: the campaign
// identity (Config.Identity) and every plan's schedule and placement, with
// float64 fields hashed by their exact bit patterns.
func planDigest(cfg Config, plans []*plan) string {
	h := sha256.New()
	io.WriteString(h, cfg.Identity())
	for i, p := range plans {
		fmt.Fprintf(h, "%d %s %d %x %x %v\n", i, p.model.Name(), p.day,
			math.Float64bits(p.start), math.Float64bits(p.estEnd), p.nodes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// UnitSim is the worker-process side of a distributed campaign: it holds a
// deterministically re-derived plan list and simulates one unit at a time
// on a private simulation worker. It is not safe for concurrent use — a
// dist worker owns one UnitSim and simulates its leased units serially,
// which is exactly the per-worker contract the determinism proof needs.
type UnitSim struct {
	c       *Cluster
	plans   []*plan
	sw      *simWorker
	applied []int // highest override Requeues applied, per unit
	digest  string
}

// NewUnitSim builds the cluster from cfg and schedules the plan list. The
// cfg should come from the coordinator's join response (Config.Resolved on
// the coordinator side) so both processes resolve identical defaults.
func NewUnitSim(cfg Config) (*UnitSim, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	plans, err := c.schedule()
	if err != nil {
		return nil, err
	}
	return &UnitSim{
		c:       c,
		plans:   plans,
		sw:      c.newSimWorker(),
		applied: make([]int, len(plans)),
		digest:  planDigest(c.cfg, plans),
	}, nil
}

// NumUnits returns the number of work units (plans) in the campaign.
func (u *UnitSim) NumUnits() int { return len(u.plans) }

// PlanDigest returns the digest of the derived plan list, for comparison
// against the coordinator's.
func (u *UnitSim) PlanDigest() string { return u.digest }

// Apply replays requeue overrides onto the local plan list, bringing it in
// sync with the coordinator's. Applying is idempotent and order-tolerant
// for repeats: an override is skipped unless its Requeues exceeds what this
// UnitSim has already applied for that unit, so a worker can simply apply
// every lease's full accumulated override list.
func (u *UnitSim) Apply(ovs []PlanOverride) error {
	for _, ov := range ovs {
		if ov.Unit < 0 || ov.Unit >= len(u.plans) {
			return fmt.Errorf("cluster: override for unit %d, campaign has %d", ov.Unit, len(u.plans))
		}
		if ov.Requeues <= u.applied[ov.Unit] {
			continue
		}
		p := u.plans[ov.Unit]
		p.start = ov.Start
		p.estEnd = ov.EstEnd
		p.nodes = append([]topology.NodeID(nil), ov.Nodes...)
		p.pat = nil // the cached pattern follows the placement
		p.requeues = ov.Requeues
		p.footprint = u.c.planFootprint(p)
		u.applied[ov.Unit] = ov.Requeues
	}
	return nil
}

// Simulate executes one work unit against the current plan list. A run
// killed by a fault comes back as a drained outcome (the coordinator makes
// the requeue decision); any other error is a genuine failure.
func (u *UnitSim) Simulate(unit int) (UnitOutcome, error) {
	if unit < 0 || unit >= len(u.plans) {
		return UnitOutcome{}, fmt.Errorf("cluster: simulate unit %d, campaign has %d", unit, len(u.plans))
	}
	return unitOutcome(u.sw.simulate(u.plans[unit], u.plans, unit))
}
