// Package dataset holds the output of the controlled-experiment campaign
// (§III of the paper): per-run, per-time-step execution times and network
// counters, placement features, LDMS io/sys samples, and the run's
// neighborhood. It also implements the ML-facing transforms the analyses
// need — mean-trend removal (§IV-B), sliding forecast windows (§IV-C),
// cross-validation folds, and the user co-occurrence matrix (§IV-A).
package dataset

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dragonvar/internal/counters"
	"dragonvar/internal/framelog"
	"dragonvar/internal/linalg"
	"dragonvar/internal/mpi"
	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
)

// NeighborJob summarizes one other user's presence during a run.
type NeighborJob struct {
	User     string // anonymized user name
	MaxNodes int    // largest concurrent job size of that user
}

// Run is one controlled experiment: a single job submission of one
// application configuration.
type Run struct {
	Dataset string  // dataset label, e.g. "MILC-512"
	RunID   int     // unique within the campaign
	Start   float64 // campaign-clock start time, seconds
	Day     int     // campaign day of submission (for Figure 1's x axis)

	// placement features (§III-C)
	NumRouters int
	NumGroups  int

	// the run's neighborhood (other users with overlapping jobs)
	Neighbors []NeighborJob

	// per-step observations; all slices have length Steps()
	StepTimes []float64                  // wall seconds per step
	Compute   []float64                  // compute seconds per step
	Counters  [][counters.NumJob]float64 // AriesNCL per-step deltas
	IO        [][counters.NumLDMS]float64
	Sys       [][counters.NumLDMS]float64
	// Missing[s] marks steps whose counter/io/sys observations were lost
	// to a sampler dropout (the values are counters.Missing() markers).
	// Step times are still known from the job log. Nil when the campaign
	// ran without faults.
	Missing []bool

	// Requeues counts how often this submission lost its nodes to a fault
	// and was resubmitted before this (successful) execution.
	Requeues int

	// whole-run mpiP-style profile
	Profile mpi.Profile
}

// Steps returns the number of recorded time steps.
func (r *Run) Steps() int { return len(r.StepTimes) }

// MissingAt reports whether step s's observations were lost to a sampler
// dropout.
func (r *Run) MissingAt(s int) bool { return s < len(r.Missing) && r.Missing[s] }

// GapFraction is the fraction of the run's steps with missing
// observations.
func (r *Run) GapFraction() float64 {
	if r.Steps() == 0 {
		return 0
	}
	n := 0
	for s := range r.Missing {
		if r.Missing[s] {
			n++
		}
	}
	return float64(n) / float64(r.Steps())
}

// TotalTime returns the run's total execution time.
func (r *Run) TotalTime() float64 {
	var s float64
	for _, v := range r.StepTimes {
		s += v
	}
	return s
}

// TotalCompute returns the run's total compute (non-MPI) time.
func (r *Run) TotalCompute() float64 {
	var s float64
	for _, v := range r.Compute {
		s += v
	}
	return s
}

// FeatureVector assembles the model features of one step, in the column
// order of counters.FeatureSet.Names().
func (r *Run) FeatureVector(step int, fs counters.FeatureSet, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, 0, fs.Count())
	}
	dst = append(dst, r.Counters[step][:]...)
	if fs.Placement {
		dst = append(dst, float64(r.NumRouters), float64(r.NumGroups))
	}
	if fs.IO {
		dst = append(dst, r.IO[step][:]...)
	}
	if fs.Sys {
		dst = append(dst, r.Sys[step][:]...)
	}
	return dst
}

// Dataset is all runs of one application configuration — one of the six
// independent datasets of Table I.
type Dataset struct {
	Name  string // "AMG-128", ...
	App   string
	Nodes int
	Runs  []*Run
}

// Steps returns the per-run step count (all runs share it); 0 if empty.
func (d *Dataset) Steps() int {
	if len(d.Runs) == 0 {
		return 0
	}
	return d.Runs[0].Steps()
}

// BestTotalTime returns the fastest run's total time (the normalizer of
// Figure 1).
func (d *Dataset) BestTotalTime() float64 {
	best := 0.0
	for i, r := range d.Runs {
		t := r.TotalTime()
		if i == 0 || t < best {
			best = t
		}
	}
	return best
}

// MeanTotalTime returns the mean total execution time over runs (the t_m
// of §IV-A).
func (d *Dataset) MeanTotalTime() float64 {
	if len(d.Runs) == 0 {
		return 0
	}
	var s float64
	for _, r := range d.Runs {
		s += r.TotalTime()
	}
	return s / float64(len(d.Runs))
}

// MeanStepTimes returns the mean time of each step across runs — the mean
// trend of Figure 3.
func (d *Dataset) MeanStepTimes() []float64 {
	t := d.Steps()
	out := make([]float64, t)
	if len(d.Runs) == 0 {
		return out
	}
	for _, r := range d.Runs {
		for s, v := range r.StepTimes {
			out[s] += v
		}
	}
	for s := range out {
		out[s] /= float64(len(d.Runs))
	}
	return out
}

// MeanCounterTrend returns the mean per-step value of one counter across
// runs (Figure 7's middle and right plots). Steps a run lost to a sampler
// dropout are averaged over the runs that did observe them.
func (d *Dataset) MeanCounterTrend(c counters.Index) []float64 {
	t := d.Steps()
	out := make([]float64, t)
	if len(d.Runs) == 0 {
		return out
	}
	seen := make([]int, t)
	for _, r := range d.Runs {
		for s := 0; s < t; s++ {
			if r.MissingAt(s) {
				continue
			}
			out[s] += r.Counters[s][c]
			seen[s]++
		}
	}
	for s := range out {
		if seen[s] > 0 {
			out[s] /= float64(seen[s])
		}
	}
	return out
}

// GapFraction is the fraction of (run, step) observations missing across
// the dataset.
func (d *Dataset) GapFraction() float64 {
	var missing, total int
	for _, r := range d.Runs {
		total += r.Steps()
		for s := range r.Missing {
			if r.Missing[s] {
				missing++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(missing) / float64(total)
}

// Optimality returns the per-run optimality vector of §IV-A: run r is
// optimal when its total time t_r < τ · t_m (τ = 1 marks below-mean runs
// as optimal).
func (d *Dataset) Optimality(tau float64) []bool {
	tm := d.MeanTotalTime()
	out := make([]bool, len(d.Runs))
	for i, r := range d.Runs {
		out[i] = r.TotalTime() < tau*tm
	}
	return out
}

// Cooccurrence builds the user co-occurrence matrix of §IV-A: the sorted
// vocabulary of users that had at least one overlapping job of minNodes or
// more, and per run a binary presence vector over that vocabulary.
func (d *Dataset) Cooccurrence(minNodes int) (users []string, m [][]bool) {
	vocab := map[string]bool{}
	for _, r := range d.Runs {
		for _, n := range r.Neighbors {
			if n.MaxNodes >= minNodes {
				vocab[n.User] = true
			}
		}
	}
	for u := range vocab {
		users = append(users, u)
	}
	sort.Strings(users)
	idx := map[string]int{}
	for i, u := range users {
		idx[u] = i
	}
	m = make([][]bool, len(d.Runs))
	for i, r := range d.Runs {
		row := make([]bool, len(users))
		for _, n := range r.Neighbors {
			if n.MaxNodes >= minNodes {
				row[idx[n.User]] = true
			}
		}
		m[i] = row
	}
	return users, m
}

// DeviationSamples builds the mean-centered per-step samples of §IV-B:
// every observed (run, step) pair is one sample; the features are the
// counter deltas with the per-step mean trend removed, the target is the
// step time with its mean trend removed. Steps lost to sampler dropouts
// contribute no sample and are excluded from the per-step means, so the
// transform is gap-tolerant: on a dense dataset X has N·T rows in
// run-major order, on a gappy one fewer. stepMean carries the removed
// trend and stepOf maps each returned row back to its step index, so
// callers can reconstruct absolute times even when rows were skipped.
func (d *Dataset) DeviationSamples() (x *linalg.Matrix, y []float64, stepMean []float64, stepOf []int) {
	t := d.Steps()
	h := counters.NumJob
	stepMean = d.MeanStepTimes()

	// per-step counter means over the runs that observed each step
	counterMean := make([][]float64, t)
	seen := make([]int, t)
	for s := 0; s < t; s++ {
		counterMean[s] = make([]float64, h)
	}
	samples := 0
	for _, r := range d.Runs {
		for s := 0; s < t; s++ {
			if r.MissingAt(s) {
				continue
			}
			samples++
			seen[s]++
			for c := 0; c < h; c++ {
				counterMean[s][c] += r.Counters[s][c]
			}
		}
	}
	for s := 0; s < t; s++ {
		if seen[s] == 0 {
			continue
		}
		for c := 0; c < h; c++ {
			counterMean[s][c] /= float64(seen[s])
		}
	}

	x = linalg.NewMatrix(samples, h)
	y = make([]float64, samples)
	stepOf = make([]int, samples)
	i := 0
	for _, r := range d.Runs {
		for s := 0; s < t; s++ {
			if r.MissingAt(s) {
				continue
			}
			row := x.Row(i)
			for c := 0; c < h; c++ {
				row[c] = r.Counters[s][c] - counterMean[s][c]
			}
			y[i] = r.StepTimes[s] - stepMean[s]
			stepOf[i] = s
			i++
		}
	}
	return x, y, stepMean, stepOf
}

// Window is one forecasting sample (§IV-C, Figure 6): the features of the
// last m steps and the total execution time of the next k steps.
type Window struct {
	RunIdx int
	TC     int         // the "current step" t_c
	Steps  [][]float64 // m rows of per-step features
	Target float64     // Σ of the next k step times
}

// GapPolicy selects how BuildWindowsGap treats history steps whose
// observations were lost to a sampler dropout.
type GapPolicy int

const (
	// GapImpute linearly interpolates missing feature steps from the
	// nearest observed steps of the same run (edge gaps copy the nearest
	// observation). Keeps the window count of a dense dataset.
	GapImpute GapPolicy = iota
	// GapSkip drops every window whose m-step history touches a missing
	// step. Conservative: fewer but fully observed samples.
	GapSkip
)

// BuildWindows slides t_c from m to T−k over every run and returns the
// samples, imputing any dropout gaps (equivalent to
// BuildWindowsGap(fs, m, k, GapImpute)). fs selects the feature columns.
func (d *Dataset) BuildWindows(fs counters.FeatureSet, m, k int) []Window {
	return d.BuildWindowsGap(fs, m, k, GapImpute)
}

// BuildWindowsGap is BuildWindows with an explicit policy for missing
// steps. Forecast targets are unaffected by gaps (step times come from the
// job log, not the samplers); only the feature history can be missing.
func (d *Dataset) BuildWindowsGap(fs counters.FeatureSet, m, k int, policy GapPolicy) []Window {
	var out []Window
	t := d.Steps()
	for ri, r := range d.Runs {
		if t < m+k {
			break
		}
		hasGap := false
		for s := 0; s < t; s++ {
			if r.MissingAt(s) {
				hasGap = true
				break
			}
		}
		// per-step feature rows, shared by every window of the run
		feats := make([][]float64, t)
		for s := 0; s < t; s++ {
			feats[s] = r.FeatureVector(s, fs, nil)
		}
		if hasGap && policy == GapImpute {
			imputeRows(feats, r)
		}
		for tc := m; tc <= t-k; tc++ {
			if hasGap && policy == GapSkip {
				blocked := false
				for s := tc - m; s < tc; s++ {
					if r.MissingAt(s) {
						blocked = true
						break
					}
				}
				if blocked {
					continue
				}
			}
			w := Window{RunIdx: ri, TC: tc, Steps: make([][]float64, m)}
			for i := 0; i < m; i++ {
				w.Steps[i] = feats[tc-m+i]
			}
			for i := tc; i < tc+k; i++ {
				w.Target += r.StepTimes[i]
			}
			out = append(out, w)
		}
	}
	return out
}

// imputeRows replaces the feature rows of missing steps with linear
// interpolations between the nearest observed steps (copying the nearest
// row at the edges; all-missing runs fall back to zeros).
func imputeRows(feats [][]float64, r *Run) {
	t := len(feats)
	prev := make([]int, t) // nearest observed step ≤ s, else -1
	next := make([]int, t) // nearest observed step ≥ s, else -1
	last := -1
	for s := 0; s < t; s++ {
		if !r.MissingAt(s) {
			last = s
		}
		prev[s] = last
	}
	last = -1
	for s := t - 1; s >= 0; s-- {
		if !r.MissingAt(s) {
			last = s
		}
		next[s] = last
	}
	for s := 0; s < t; s++ {
		if !r.MissingAt(s) {
			continue
		}
		p, nx := prev[s], next[s]
		row := feats[s]
		switch {
		case p >= 0 && nx >= 0:
			w := float64(s-p) / float64(nx-p)
			for j := range row {
				row[j] = feats[p][j]*(1-w) + feats[nx][j]*w
			}
		case p >= 0:
			copy(row, feats[p])
		case nx >= 0:
			copy(row, feats[nx])
		default:
			for j := range row {
				row[j] = 0
			}
		}
	}
}

// FoldSplit is one cross-validation fold's (train, test) index pair.
type FoldSplit struct {
	Train, Test []int
}

// KFoldSplits partitions [0, n) into k shuffled folds and returns every
// fold's (train, test) split up front, so callers can fan the folds out to
// parallel workers. The splits depend only on (n, k) and the stream, never
// on the order folds are later processed in.
func KFoldSplits(n, k int, s *rng.Stream) []FoldSplit {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	perm := s.Perm(n)
	out := make([]FoldSplit, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		test := make([]int, 0, hi-lo)
		train := make([]int, 0, n-(hi-lo))
		for i, p := range perm {
			if i >= lo && i < hi {
				test = append(test, p)
			} else {
				train = append(train, p)
			}
		}
		out[f] = FoldSplit{Train: train, Test: test}
	}
	return out
}

// KFold partitions [0, n) into k shuffled folds; fold i is returned as
// (test, train) index pairs via the callback.
func KFold(n, k int, s *rng.Stream, fn func(fold int, train, test []int)) {
	for f, sp := range KFoldSplits(n, k, s) {
		fn(f, sp.Train, sp.Test)
	}
}

// Campaign is the full experiment output: the six datasets plus campaign
// metadata, as written to disk by the generator and consumed by every
// analysis and benchmark.
type Campaign struct {
	Seed int64
	Days float64
	// Faults is the fault-spec string the campaign ran under (empty for a
	// perfect machine). Part of the cache identity: a cache generated with
	// different faults must not satisfy a request.
	Faults string
	// Routing and Placement name the policies the campaign ran under
	// (netsim routing policy, slurm placement policy). Part of the cache
	// identity for the same reason as Faults: the same seed produces
	// different bytes under a different policy pair. Empty in pre-policy
	// caches, which therefore regenerate once.
	Routing   string
	Placement string
	Datasets  []*Dataset
	// Partial marks a campaign cut short by cancellation: it carries only
	// the runs that completed before the interrupt. Partial campaigns are
	// saved (the work is not lost) but never satisfy a cache lookup.
	Partial bool
}

// GapFraction is the fraction of observations missing across the whole
// campaign.
func (c *Campaign) GapFraction() float64 {
	var missing, total int
	for _, d := range c.Datasets {
		for _, r := range d.Runs {
			total += r.Steps()
			for s := range r.Missing {
				if r.Missing[s] {
					missing++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(missing) / float64(total)
}

// TotalRequeues counts fault requeues across all recorded runs.
func (c *Campaign) TotalRequeues() int {
	n := 0
	for _, d := range c.Datasets {
		for _, r := range d.Runs {
			n += r.Requeues
		}
	}
	return n
}

// Validate checks the structural invariants every consumer indexes by:
// non-nil datasets and runs, per-run observation slices of equal length,
// and a consistent step count within each dataset. A stale or hand-edited
// campaign cache fails here with a clear message instead of panicking
// deep inside an analysis.
func (c *Campaign) Validate() error {
	for di, d := range c.Datasets {
		if d == nil {
			return fmt.Errorf("dataset %d is nil", di)
		}
		steps := -1
		for ri, r := range d.Runs {
			if r == nil {
				return fmt.Errorf("dataset %s: run %d is nil", d.Name, ri)
			}
			t := len(r.StepTimes)
			if len(r.Compute) != t || len(r.Counters) != t || len(r.IO) != t || len(r.Sys) != t {
				return fmt.Errorf("dataset %s: run %d: observation lengths disagree (times=%d compute=%d counters=%d io=%d sys=%d)",
					d.Name, ri, t, len(r.Compute), len(r.Counters), len(r.IO), len(r.Sys))
			}
			if r.Missing != nil && len(r.Missing) != t {
				return fmt.Errorf("dataset %s: run %d: missing-marker length %d != %d steps",
					d.Name, ri, len(r.Missing), t)
			}
			if steps == -1 {
				steps = t
			} else if t != steps {
				return fmt.Errorf("dataset %s: run %d has %d steps, run 0 has %d",
					d.Name, ri, t, steps)
			}
		}
	}
	return nil
}

// Get returns the dataset with the given name, or nil.
func (c *Campaign) Get(name string) *Dataset {
	for _, d := range c.Datasets {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// TotalRuns counts all runs across datasets.
func (c *Campaign) TotalRuns() int {
	n := 0
	for _, d := range c.Datasets {
		n += len(d.Runs)
	}
	return n
}

// Save writes the campaign to a gob file atomically (framelog.AtomicWrite),
// so an interrupt (or a full disk) can never leave a truncated
// campaign.gob behind for the next Load to choke on.
func (c *Campaign) Save(path string) error {
	start := time.Now()
	defer telemetry.H(telemetry.MCacheSaveSecs, telemetry.SecondsBuckets).ObserveSince(start)
	cw := &countingWriter{}
	err := framelog.AtomicWrite(path, func(w io.Writer) error {
		cw.w = w
		return gob.NewEncoder(cw).Encode(c)
	})
	if err != nil {
		return fmt.Errorf("dataset: save: %w", err)
	}
	telemetry.C(telemetry.MCacheWriteBytes).Add(cw.n)
	return nil
}

// Load reads a campaign from a gob file.
func Load(path string) (*Campaign, error) {
	start := time.Now()
	defer telemetry.H(telemetry.MCacheLoadSecs, telemetry.SecondsBuckets).ObserveSince(start)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	defer f.Close()
	var c Campaign
	cr := &countingReader{r: f}
	if err := gob.NewDecoder(cr).Decode(&c); err != nil {
		return nil, fmt.Errorf("dataset: decode %s: %w (stale or corrupt campaign cache; delete it and regenerate)", path, err)
	}
	telemetry.C(telemetry.MCacheReadBytes).Add(cr.n)
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: validate %s: %w (stale or corrupt campaign cache; delete it and regenerate)", path, err)
	}
	return &c, nil
}

// countingWriter / countingReader tally gob traffic for the cache byte
// counters without buffering anything.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
