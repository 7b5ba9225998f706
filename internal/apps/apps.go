// Package apps models the four applications of the paper's controlled
// experiments (§III-A/B, Table I): AMG, MILC, miniVite, and UMT. Each model
// captures what the analyses depend on:
//
//   - the mean time-per-step curve (Figure 3) — every run shares a
//     discernible mean behaviour that individual runs deviate from;
//   - the compute/MPI split and the dominant MPI routines (Figures 4, 5);
//   - the communication pattern and volume, which determine how the job
//     loads the network and which congestion mechanism (endpoint packet
//     processing vs. link bandwidth) throttles it — AMG sends a large
//     number of small messages, MILC large 4D-stencil point-to-point
//     messages, miniVite bulk irregular exchanges, UMT latency-critical
//     collectives;
//   - the sensitivity of MPI time to network contention, which produces
//     the run-to-run variability the paper studies.
package apps

import (
	"fmt"
	"math"

	"dragonvar/internal/mpi"
	"dragonvar/internal/netsim"
	"dragonvar/internal/rng"
	"dragonvar/internal/topology"
)

// App identifies one of the studied applications.
type App int

const (
	AMG App = iota
	MILC
	MiniVite
	UMT

	// NumApps is the number of modeled applications.
	NumApps int = iota
)

var appNames = [NumApps]string{"AMG", "MILC", "miniVite", "UMT"}

// String returns the application name as used in the paper.
func (a App) String() string {
	if a < 0 || int(a) >= NumApps {
		return fmt.Sprintf("App(%d)", int(a))
	}
	return appNames[a]
}

// PatternKind selects how a model's rank-level communication is expanded
// into router-level traffic.
type PatternKind int

const (
	// Stencil3D is AMG's structured neighbor exchange.
	Stencil3D PatternKind = iota
	// Stencil4D is MILC's 4D lattice halo exchange.
	Stencil4D
	// Irregular is miniVite's unstructured graph exchange.
	Irregular
	// SweepCollective is UMT's transport sweep plus heavy collectives.
	SweepCollective
)

// Model is one application/node-count configuration — one row of Table I,
// and therefore one of the paper's six datasets.
type Model struct {
	App          App
	Version      string
	Nodes        int
	RanksPerNode int
	InputParams  string // the exact input column of Table I
	Steps        int    // recorded time steps per run

	// BaseStep returns the contention-free time of a step in seconds; the
	// mean trend of Figure 3 is this curve (plus the mean congestion of the
	// machine).
	BaseStep func(step int) float64

	// VolumeFactor scales the step's traffic relative to a nominal step;
	// warmup steps inject less (MILC's first 20 trajectories).
	VolumeFactor func(step int) float64

	// MPIFraction is the share of an uncongested step spent in MPI
	// (§III-B: 0.76–0.82 for AMG, 0.89 MILC, 0.98 miniVite, 0.30 UMT).
	MPIFraction float64

	// RoutineMix is the relative distribution of MPI time over routines;
	// entries sum to 1.
	RoutineMix mpi.Profile

	// BytesPerNode is the per-node traffic volume of a nominal step.
	BytesPerNode float64
	// MsgBytes is the typical message size; together with BytesPerNode it
	// fixes the message rate, and thereby whether the app is endpoint- or
	// bandwidth-limited.
	MsgBytes float64
	// ReqFraction is the share of flits on request VCs.
	ReqFraction float64
	// IOBytesPerNode is per-step filesystem traffic (to I/O routers).
	IOBytesPerNode float64

	// Sensitivity multiplies the network slowdown's effect on MPI time.
	// Latency-critical collectives (UMT) amplify small contention delays:
	// every rank waits for the slowest message.
	Sensitivity float64

	// ComputeNoise is the relative std of compute time (OS noise is small
	// on Cori: 4 of 68 cores are set aside for daemons).
	ComputeNoise float64
	// StepNoise is the relative std of per-step bursty MPI-time variation
	// (independent across steps). Forecasting over larger k amortizes it —
	// the mechanism behind §V-C's "larger values of k allow bursty
	// performance changes per time step to be amortized".
	StepNoise float64
	// RunNoise is the std of the per-run lognormal factor modeling
	// input/placement-specific effects common to all steps of one run.
	RunNoise float64

	Pattern         PatternKind
	IrregularFanout int // for Irregular / SweepCollective patterns
}

// Name returns the dataset label, e.g. "AMG-512".
func (m *Model) Name() string { return fmt.Sprintf("%s-%d", m.App, m.Nodes) }

// NumRanks returns the total MPI ranks of the configuration.
func (m *Model) NumRanks() int { return m.Nodes * m.RanksPerNode }

// TotalBaseTime returns the contention-free run time (sum over steps).
func (m *Model) TotalBaseTime() float64 {
	var s float64
	for i := 0; i < m.Steps; i++ {
		s += m.BaseStep(i)
	}
	return s
}

// Registry returns the six dataset configurations of Table I, in the
// paper's row order.
func Registry() []*Model {
	amgMix := mpi.Profile{}
	amgMix[mpi.Iprobe] = 0.22
	amgMix[mpi.Test] = 0.16
	amgMix[mpi.Testall] = 0.12
	amgMix[mpi.Waitall] = 0.27
	amgMix[mpi.Allreduce] = 0.18
	amgMix[mpi.Other] = 0.05

	milcMix := mpi.Profile{}
	milcMix[mpi.Allreduce] = 0.24
	milcMix[mpi.Wait] = 0.31
	milcMix[mpi.Isend] = 0.20
	milcMix[mpi.Irecv] = 0.20
	milcMix[mpi.Other] = 0.05

	vitMix := mpi.Profile{}
	vitMix[mpi.Waitall] = 0.90
	vitMix[mpi.Irecv] = 0.04
	vitMix[mpi.Isend] = 0.03
	vitMix[mpi.Other] = 0.03

	umtMix := mpi.Profile{}
	umtMix[mpi.Allreduce] = 0.33
	umtMix[mpi.Barrier] = 0.24
	umtMix[mpi.Wait] = 0.31
	umtMix[mpi.Waitall] = 0.07
	umtMix[mpi.Other] = 0.05

	// AMG's step times decay slightly as the GMRES loop warms up.
	amgStep := func(scale float64) func(int) float64 {
		return func(step int) float64 {
			return scale * (1 + 0.25*math.Exp(-float64(step)/3))
		}
	}
	// MILC: 20 fast warmup trajectories, then 60 slower ones.
	milcStep := func(warm, main float64) func(int) float64 {
		return func(step int) float64 {
			if step < 20 {
				return warm
			}
			return main
		}
	}
	milcVol := func(step int) float64 {
		if step < 20 {
			return 0.3
		}
		return 1
	}
	flat := func(step int) float64 { return 1 }
	// miniVite: the first Louvain phase is the most expensive; later outer
	// iterations shrink as communities stabilize.
	vitSteps := []float64{100, 74, 65, 60, 58, 57}
	vitStep := func(step int) float64 {
		if step >= len(vitSteps) {
			step = len(vitSteps) - 1
		}
		return vitSteps[step]
	}
	vitVol := func(step int) float64 { return vitStep(step) / vitSteps[0] }
	// UMT: sweep iterations grow as angles/groups converge.
	umtStep := func(step int) float64 { return 60 + 9*float64(step) }

	return []*Model{
		{
			App: AMG, Version: "1.1", Nodes: 128, RanksPerNode: 64,
			InputParams: "-P 32 16 16 -n 32 32 32 -problem 2",
			Steps:       20,
			BaseStep:    amgStep(21), VolumeFactor: flat,
			MPIFraction: 0.76, RoutineMix: amgMix,
			BytesPerNode: 3.4e10, MsgBytes: 512, ReqFraction: 0.85,
			IOBytesPerNode: 2e8,
			Sensitivity:    0.8, ComputeNoise: 0.01, RunNoise: 0.02, StepNoise: 0.05,
			Pattern: Stencil3D,
		},
		{
			App: AMG, Version: "1.1", Nodes: 512, RanksPerNode: 64,
			InputParams: "-P 32 32 32 -n 32 32 32 -problem 2",
			Steps:       20,
			BaseStep:    amgStep(35), VolumeFactor: flat,
			MPIFraction: 0.82, RoutineMix: amgMix,
			BytesPerNode: 3.8e10, MsgBytes: 512, ReqFraction: 0.85,
			IOBytesPerNode: 2e8,
			Sensitivity:    0.9, ComputeNoise: 0.01, RunNoise: 0.02, StepNoise: 0.05,
			Pattern: Stencil3D,
		},
		{
			App: MILC, Version: "7.8.0", Nodes: 128, RanksPerNode: 64,
			InputParams: "n128_large.in",
			Steps:       80,
			BaseStep:    milcStep(1.6, 6.3), VolumeFactor: milcVol,
			MPIFraction: 0.89, RoutineMix: milcMix,
			BytesPerNode: 5.5e10, MsgBytes: 65536, ReqFraction: 0.7,
			IOBytesPerNode: 1.5e9,
			Sensitivity:    1.4, ComputeNoise: 0.01, RunNoise: 0.02, StepNoise: 0.06,
			Pattern: Stencil4D,
		},
		{
			App: MILC, Version: "7.8.0", Nodes: 512, RanksPerNode: 64,
			InputParams: "n512_large.in",
			Steps:       80,
			BaseStep:    milcStep(1.8, 7.1), VolumeFactor: milcVol,
			MPIFraction: 0.89, RoutineMix: milcMix,
			BytesPerNode: 6.0e10, MsgBytes: 65536, ReqFraction: 0.7,
			IOBytesPerNode: 1.5e9,
			Sensitivity:    1.5, ComputeNoise: 0.01, RunNoise: 0.025, StepNoise: 0.06,
			Pattern: Stencil4D,
		},
		{
			App: MiniVite, Version: "1.0", Nodes: 128, RanksPerNode: 64,
			InputParams: "-f nlpkkt240.bin -t 1E-02 -i 6",
			Steps:       6,
			BaseStep:    vitStep, VolumeFactor: vitVol,
			MPIFraction: 0.98, RoutineMix: vitMix,
			BytesPerNode: 6.5e11, MsgBytes: 4096, ReqFraction: 0.8,
			IOBytesPerNode: 5e8,
			Sensitivity:    3.0, ComputeNoise: 0.02, RunNoise: 0.03, StepNoise: 0.05,
			Pattern: Irregular, IrregularFanout: 14,
		},
		{
			App: UMT, Version: "2.0", Nodes: 128, RanksPerNode: 64,
			InputParams: "custom_8k.cmg 4 2 4 4 4 0.04",
			Steps:       7,
			BaseStep:    umtStep, VolumeFactor: flat,
			MPIFraction: 0.30, RoutineMix: umtMix,
			BytesPerNode: 2.2e10, MsgBytes: 2048, ReqFraction: 0.9,
			IOBytesPerNode: 3e9,
			Sensitivity:    6.0, ComputeNoise: 0.015, RunNoise: 0.02, StepNoise: 0.06,
			Pattern: SweepCollective, IrregularFanout: 6,
		},
	}
}

// Find returns the registry model with the given app and node count, or
// nil when no such dataset exists.
func Find(app App, nodes int) *Model {
	for _, m := range Registry() {
		if m.App == app && m.Nodes == nodes {
			return m
		}
	}
	return nil
}

// Instance is a model placed onto concrete nodes: the run-specific state
// of one job, including its prebuilt traffic pattern.
type Instance struct {
	Model  *Model
	Mapper *mpi.RankMapper

	pattern   *mpi.Pattern
	runFactor float64 // per-run lognormal factor on step times

	// nominal step duration used to convert per-step volume into rates
	stepFlits   float64
	stepPackets float64
	ioFlits     float64
	ioPackets   float64
}

// BuiltPattern is the stream-independent half of an instantiation: the
// rank mapping and router-level traffic pattern a placement determines.
// Building it is the expensive part of Instantiate (stencil expansion,
// aggregation, downsampling), and it depends only on (model, topology,
// node list) — never on the run's random stream — so campaign schedulers
// build it once per placement and stamp out per-run Instances with
// InstantiateWith.
type BuiltPattern struct {
	Mapper  *mpi.RankMapper
	Pattern *mpi.Pattern
}

// BuildPattern places the model on the given nodes and builds its traffic
// pattern. Deterministic: no random stream is consumed.
func (m *Model) BuildPattern(topo *topology.Dragonfly, nodes []topology.NodeID) (*BuiltPattern, error) {
	if len(nodes) != m.Nodes {
		return nil, fmt.Errorf("apps: %s expects %d nodes, placement has %d", m.Name(), m.Nodes, len(nodes))
	}
	mapper := &mpi.RankMapper{Topo: topo, Nodes: nodes, RanksPerNode: m.RanksPerNode}
	b := mpi.NewPatternBuilder()
	defer b.Release()
	switch m.Pattern {
	case Stencil3D:
		dims, err := FactorDims(m.NumRanks(), 3)
		if err != nil {
			return nil, err
		}
		if err := b.AddStencil3D(mapper, [3]int{dims[0], dims[1], dims[2]}); err != nil {
			return nil, err
		}
		// the multigrid hierarchy adds an allreduce per GMRES iteration
		b.AddAllreduce(mapper, 0.15)
	case Stencil4D:
		dims, err := FactorDims(m.NumRanks(), 4)
		if err != nil {
			return nil, err
		}
		if err := b.AddStencil4D(mapper, [4]int{dims[0], dims[1], dims[2], dims[3]}); err != nil {
			return nil, err
		}
		b.AddAllreduce(mapper, 0.05)
	case Irregular:
		b.AddIrregular(mapper, m.IrregularFanout, 1)
	case SweepCollective:
		b.AddIrregular(mapper, m.IrregularFanout, 0.4)
		b.AddAllreduce(mapper, 0.6)
	default:
		return nil, fmt.Errorf("apps: unknown pattern kind %d", m.Pattern)
	}
	if m.IOBytesPerNode > 0 {
		b.AddIOTraffic(mapper, 0.02)
	}

	// cap the router-pair count: beyond ~1500 pairs the extra pairs carry
	// negligible volume but dominate simulation cost
	return &BuiltPattern{Mapper: mapper, Pattern: b.Build().Downsample(1500)}, nil
}

// InstantiateWith stamps a run-specific Instance out of a prebuilt
// pattern. It consumes exactly one Normal draw from the stream — the
// per-run noise factor — which is the entire stream consumption of
// Instantiate, so Instantiate(topo, nodes, s) and
// InstantiateWith(BuildPattern(topo, nodes), s) leave s in identical
// states and produce identical Instances.
func (m *Model) InstantiateWith(bp *BuiltPattern, s *rng.Stream) *Instance {
	totalBytes := m.BytesPerNode * float64(m.Nodes)
	ioBytes := m.IOBytesPerNode * float64(m.Nodes)
	return &Instance{
		Model:       m,
		Mapper:      bp.Mapper,
		pattern:     bp.Pattern,
		runFactor:   math.Exp(s.Normal(0, m.RunNoise)),
		stepFlits:   mpi.FlitsFor(totalBytes),
		stepPackets: math.Ceil(totalBytes / m.MsgBytes), // message count drives endpoint processing
		ioFlits:     mpi.FlitsFor(ioBytes),
		ioPackets:   math.Ceil(ioBytes / (1 << 20)), // I/O moves in ~1 MiB transfers
	}
}

// Instantiate places the model on the given nodes and builds its traffic
// pattern. The stream provides the per-run noise factor and must be the
// run's dedicated stream.
func (m *Model) Instantiate(topo *topology.Dragonfly, nodes []topology.NodeID, s *rng.Stream) (*Instance, error) {
	bp, err := m.BuildPattern(topo, nodes)
	if err != nil {
		return nil, err
	}
	return m.InstantiateWith(bp, s), nil
}

// Routers returns the routers of the instance's placement.
func (inst *Instance) Routers() []topology.RouterID { return inst.Mapper.Routers() }

// StepFlows appends the instance's traffic for the given step to dst.
func (inst *Instance) StepFlows(step int, dst []netsim.Flow) []netsim.Flow {
	vf := inst.Model.VolumeFactor(step)
	return inst.pattern.Instantiate(
		(inst.stepFlits+inst.ioFlits)*vf,
		(inst.stepPackets+inst.ioPackets)*vf,
		inst.Model.ReqFraction, dst)
}

// StepDuration returns the nominal (contention-free) duration of a step,
// used as the simulation round length.
func (inst *Instance) StepDuration(step int) float64 {
	return inst.Model.BaseStep(step) * inst.runFactor
}

// StepResult is the outcome of one application time step.
type StepResult struct {
	Total   float64     // wall time of the step, seconds
	Compute float64     // time outside MPI
	MPI     mpi.Profile // per-routine MPI time
}

// StepTime converts the network slowdown of a step into the step's wall
// time and mpiP-style routine profile. slowdown ≥ 1 is the contention
// factor reported by the network simulator for the job's flows.
func (inst *Instance) StepTime(step int, slowdown float64, s *rng.Stream) StepResult {
	m := inst.Model
	base := m.BaseStep(step) * inst.runFactor
	baseCompute := base * (1 - m.MPIFraction)
	baseMPI := base * m.MPIFraction

	compute := baseCompute * math.Max(0.5, 1+m.ComputeNoise*s.NormFloat64())
	if slowdown < 1 {
		slowdown = 1
	}
	// bursty per-step variation on top of the congestion-driven trend
	burst := math.Exp(m.StepNoise * s.NormFloat64())
	mpiTime := baseMPI * (1 + m.Sensitivity*(slowdown-1)) * burst
	res := StepResult{
		Total:   compute + mpiTime,
		Compute: compute,
		MPI:     m.RoutineMix.Scaled(mpiTime),
	}
	return res
}

// FactorDims factors n into d balanced integer dimensions whose product is
// exactly n (largest factors first). Returns an error when n < 1.
func FactorDims(n, d int) ([]int, error) {
	if n < 1 || d < 1 {
		return nil, fmt.Errorf("apps: cannot factor %d into %d dims", n, d)
	}
	dims := make([]int, d)
	for i := range dims {
		dims[i] = 1
	}
	// distribute prime factors, always onto the currently smallest dim
	rem := n
	for p := 2; p*p <= rem; p++ {
		for rem%p == 0 {
			smallest := 0
			for i := 1; i < d; i++ {
				if dims[i] < dims[smallest] {
					smallest = i
				}
			}
			dims[smallest] *= p
			rem /= p
		}
	}
	if rem > 1 {
		smallest := 0
		for i := 1; i < d; i++ {
			if dims[i] < dims[smallest] {
				smallest = i
			}
		}
		dims[smallest] *= rem
	}
	// largest first for readability
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if dims[j] > dims[i] {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims, nil
}
