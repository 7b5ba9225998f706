package monitor

import "dragonvar/internal/stats"

// StallFeedback is the per-group stall-ratio EWMA: each round's Δstall /
// Δflit per group, smoothed with ewmaAlpha. The Monitor's congestion
// rollup is one, fed by every observed round. The feedback routing policy
// reads another, owned by one netsim.Network and fed by that simulator
// from its own counter deltas. That ownership is what lets the policy read
// it mid-simulation without breaking the serial ≡ parallel byte-identity
// contract: one tracker shared by a campaign's runs would see their
// rounds in a worker-dependent order, while a StallFeedback owned by one
// network (and reset per run, next to its counter board) evolves
// identically no matter which worker simulates the run or what that
// worker simulated before.
//
// Usage per simulation round: Accumulate per-group stall and flit deltas
// while the round's counters are written, then Commit once at the end of
// the round to fold the round's ratios into the EWMAs. Ratio reads the
// smoothed value; Reset clears everything for the next run.
type StallFeedback struct {
	ewma []float64
	// round accumulators, cleared by Commit
	accStall []float64
	accFlit  []float64
	rounds   int
}

// NewStallFeedback returns a tracker over numGroups groups.
func NewStallFeedback(numGroups int) *StallFeedback {
	return &StallFeedback{
		ewma:     make([]float64, numGroups),
		accStall: make([]float64, numGroups),
		accFlit:  make([]float64, numGroups),
	}
}

// Accumulate adds one round's stall and flit deltas for group g.
func (f *StallFeedback) Accumulate(g int, stall, flit float64) {
	f.accStall[g] += stall
	f.accFlit[g] += flit
}

// Commit folds the accumulated round into the per-group EWMAs and clears
// the accumulators.
func (f *StallFeedback) Commit() {
	for g := range f.ewma {
		ratio := 0.0
		if f.accFlit[g] > 0 {
			ratio = f.accStall[g] / f.accFlit[g]
		}
		if f.rounds == 0 {
			f.ewma[g] = ratio
		} else {
			f.ewma[g] += ewmaAlpha * (ratio - f.ewma[g])
		}
		f.accStall[g] = 0
		f.accFlit[g] = 0
	}
	f.rounds++
}

// Ratio returns the smoothed stall ratio of group g.
func (f *StallFeedback) Ratio(g int) float64 { return f.ewma[g] }

// Reset clears all state, returning the tracker to its initial condition.
// Simulators call this per run so a run's feedback trajectory depends only
// on the run itself.
func (f *StallFeedback) Reset() {
	for g := range f.ewma {
		f.ewma[g] = 0
		f.accStall[g] = 0
		f.accFlit[g] = 0
	}
	f.rounds = 0
}

// CrossSectionHot flags the indices whose value is a cross-sectional
// outlier: z = (v − mean) / std ≥ minZ over the population, the same
// detector the monitor applies to per-router flit-rate EWMAs when it
// flags hot routers. It is exported so the interference-aware placement
// policy (internal/cluster) can apply the monitor's hot-spot criterion to
// its deterministic expected-load view of the groups; like every
// cross-sectional z-score it returns nothing when the population has no
// spread.
func CrossSectionHot(values []float64, minZ float64) []int {
	var w stats.Welford
	for _, v := range values {
		w.Add(v)
	}
	std := w.Std()
	if std <= 0 || len(values) < 3 {
		return nil
	}
	mean := w.Mean()
	var hot []int
	for i, v := range values {
		if (v-mean)/std >= minZ {
			hot = append(hot, i)
		}
	}
	return hot
}
