// Package slurm models the production side of the machine: the user
// population, their job streams, node allocation, and the sacct-style job
// queue log the paper mines for its neighborhood analysis (§III-C, §IV-A).
//
// The roster contains synthetic users whose workloads play the roles the
// paper identified on Cori: a genome-assembly pipeline that is both
// communication-intensive and filesystem-heavy (the paper's User 2 running
// HipMer), climate modeling (User 11, E3SM), a particle-mesh N-body solver
// with frequent allreduces and burst-buffer I/O (User 9, FastPM), several
// material-science users (Users 6, 10, 14), and a long tail of light users.
// The campaign's own controlled jobs are submitted under User 8 (the paper:
// "User 8 is Bhatele"), so the neighborhood analysis can rediscover
// self-interference between our own jobs.
package slurm

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"dragonvar/internal/faults"
	"dragonvar/internal/mpi"
	"dragonvar/internal/netsim"
	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// Job completion states, mirroring sacct's State column.
const (
	StateCompleted = "COMPLETED"
	StateNodeFail  = "NODE_FAIL"
)

// RequeueBackoff is the wall-clock delay before a node-failed submission
// is resubmitted after its attempt-th failure (attempt counts from 0): 15
// min doubling per attempt, like a conservative SchedulerParameters
// requeue policy. Production jobs and controlled runs share it.
func RequeueBackoff(attempt int) float64 { return 900 * math.Pow(2, float64(attempt)) }

// MaxRequeues bounds how many times one submission is requeued after
// node failures before the scheduler gives up on it.
const MaxRequeues = 3

// QueueRetryWait draws the wait before a submission that found no room
// on the machine tries again.
func QueueRetryWait(s *rng.Stream) float64 { return s.Uniform(1800, 7200) }

// SelfUserID is the anonymized ID under which the campaign's controlled
// jobs appear in the queue log (User 8 in Table III).
const SelfUserID = 8

// User is one synthetic production user.
type User struct {
	ID       int    // anonymized numeric ID; "User-<ID>" in reports
	AppName  string // the job name its submissions carry
	Workload Workload
}

// Name returns the anonymized user name used in Table III.
func (u *User) Name() string { return fmt.Sprintf("User-%d", u.ID) }

// Workload parameterizes a user's job stream and traffic behaviour.
type Workload struct {
	JobsPerDay float64 // mean job submissions per day (Poisson)

	NodesMin, NodesMax int     // job size range (log-uniform)
	MeanDurationSec    float64 // mean job duration (lognormal, sigma 0.5)

	// Traffic at unit intensity.
	BytesPerNodePerSec   float64 // MPI traffic volume
	MsgBytes             float64 // typical message size
	IOBytesPerNodePerSec float64 // filesystem traffic toward I/O routers
	ReqFraction          float64 // request-VC share

	// Intensity modulation: an AR(1) process per job, minute resolution.
	// This is what makes congestion autocorrelated across application time
	// steps — the property the forecaster exploits.
	IntensityRho float64
	IntensityStd float64

	Fanout int // irregular communication fanout (node-level)
}

// commHeavy reports whether the user's jobs are heavy network citizens
// (used only by tests and reports).
func (w Workload) CommHeavy() bool { return w.BytesPerNodePerSec >= 1e9 }

// Roster returns the synthetic user population. IDs 1–14 are the
// "qualified" users of Table III (ID 8 is reserved for the campaign's own
// jobs and is not in the roster); IDs 15+ are the light tail.
func Roster() []*User {
	heavy := func(app string, id int, jobsPerDay, bytesPerNode float64, msg float64, io float64, nmin, nmax int, dur float64, fanout int) *User {
		return &User{ID: id, AppName: app, Workload: Workload{
			JobsPerDay: jobsPerDay,
			NodesMin:   nmin, NodesMax: nmax,
			MeanDurationSec:      dur,
			BytesPerNodePerSec:   bytesPerNode,
			MsgBytes:             msg,
			IOBytesPerNodePerSec: io,
			ReqFraction:          0.8,
			IntensityRho:         0.93,
			IntensityStd:         0.45,
			Fanout:               fanout,
		}}
	}
	users := []*User{
		// the recurring heavy hitters of Table III
		heavy("hipmer", 2, 3.0, 2.6e9, 4096, 5e8, 256, 1024, 6*3600, 10),
		heavy("e3sm", 11, 2.5, 2.2e9, 32768, 2e8, 256, 1024, 8*3600, 8),
		heavy("fastpm", 9, 2.0, 1.7e9, 1024, 6e8, 256, 768, 5*3600, 8),
		heavy("vasp", 6, 2.5, 1.5e9, 8192, 3e8, 128, 512, 6*3600, 8),
		heavy("qe_scf", 10, 2.5, 1.5e9, 8192, 3e8, 128, 512, 6*3600, 8),
		heavy("lammps_ms", 14, 2.0, 1.4e9, 16384, 2.5e8, 128, 512, 7*3600, 8),
		// users that appear in one or two Table III lists
		heavy("chroma", 1, 2.0, 1.1e9, 32768, 1e8, 128, 384, 5*3600, 6),
		heavy("nwchem", 3, 2.0, 1.0e9, 8192, 1.5e8, 128, 384, 5*3600, 6),
		heavy("gromacs", 4, 1.5, 0.9e9, 8192, 1e8, 128, 256, 4*3600, 6),
		heavy("castro", 5, 1.5, 0.9e9, 16384, 2e8, 128, 256, 4*3600, 6),
		heavy("wrf", 7, 1.5, 0.8e9, 16384, 1.5e8, 128, 256, 4*3600, 6),
		heavy("athena", 12, 1.5, 0.8e9, 8192, 1e8, 128, 256, 4*3600, 6),
		heavy("flash", 13, 1.5, 0.7e9, 8192, 1e8, 128, 256, 4*3600, 6),
	}
	// light tail: small, quiet jobs that should NOT show up in Table III
	for id := 15; id <= 40; id++ {
		users = append(users, &User{ID: id, AppName: fmt.Sprintf("job_%d", id), Workload: Workload{
			JobsPerDay: 4.0,
			NodesMin:   4, NodesMax: 64,
			MeanDurationSec:      2 * 3600,
			BytesPerNodePerSec:   1.5e8,
			MsgBytes:             8192,
			IOBytesPerNodePerSec: 2e7,
			ReqFraction:          0.8,
			IntensityRho:         0.9,
			IntensityStd:         0.3,
			Fanout:               4,
		}})
	}
	return users
}

// Job is one placed background job.
type Job struct {
	ID    int
	User  *User
	Nodes []topology.NodeID
	Start float64 // seconds since campaign epoch
	End   float64

	// State is the sacct completion state (StateCompleted unless the job
	// was killed by a node drain/failure) and Attempt counts requeues of
	// the same submission (0 = first placement).
	State   string
	Attempt int

	intensity []float64 // per-minute AR(1) intensity factors

	// the unit-intensity network footprint and its endpoint half, each
	// built on its first read over the network of the timeline tl
	built     sync.Once
	footprint *netsim.LoadSet
	endsBuilt sync.Once
	ends      *netsim.LoadSet
	tl        *Timeline
}

// Footprint returns the job's unit-intensity network footprint, building
// it on the first call. A footprint draws no randomness and depends only
// on the job's own nodes and workload, so whichever goroutine builds it
// gets the same bits; most background jobs never overlap a controlled run
// and are never built.
func (j *Job) Footprint() *netsim.LoadSet {
	j.built.Do(func() {
		j.footprint = j.tl.net.BuildLoadSet(j.unitFlows())
		j.tl.tmFootprints.Inc()
	})
	return j.footprint
}

// EndpointLoads returns the per-router endpoint loads of the job's
// footprint (netsim.Network.EndpointLoads), building them on the first call
// without routing a flow: the same routers and floats Footprint would
// hold, for readers that need no link loads.
func (j *Job) EndpointLoads() *netsim.LoadSet {
	j.endsBuilt.Do(func() {
		j.ends = j.tl.net.EndpointLoads(j.unitFlows())
	})
	return j.ends
}

// Routers returns the distinct routers the job's nodes attach to.
func (j *Job) Routers(topo *topology.Dragonfly) []topology.RouterID {
	seen := map[topology.RouterID]bool{}
	var out []topology.RouterID
	for _, n := range j.Nodes {
		r := topo.RouterOfNode(n)
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// Duration returns the job's wall time in seconds.
func (j *Job) Duration() float64 { return j.End - j.Start }

// Overlaps reports whether the job runs during any part of [t0, t1).
func (j *Job) Overlaps(t0, t1 float64) bool { return j.Start < t1 && j.End > t0 }

// IntensityAt returns the job's traffic intensity factor at absolute time
// t (1.0 is nominal), or 0 outside its lifetime.
func (j *Job) IntensityAt(t float64) float64 {
	if t < j.Start || t >= j.End || len(j.intensity) == 0 {
		return 0
	}
	min := int((t - j.Start) / 60)
	if min >= len(j.intensity) {
		min = len(j.intensity) - 1
	}
	return j.intensity[min]
}

// ScaledLoadAt returns the job's network footprint for a window of the
// given duration starting at t. The scale folds together the per-second
// unit volume, the window length, and the job's current intensity; the
// footprint is built only when that scale is positive, and Set is nil
// otherwise.
func (j *Job) ScaledLoadAt(t, duration float64) netsim.ScaledLoad {
	scale := j.IntensityAt(t) * duration
	if scale <= 0 {
		return netsim.ScaledLoad{}
	}
	return netsim.ScaledLoad{Set: j.Footprint(), Scale: scale}
}

// Timeline is the generated background schedule of the machine.
type Timeline struct {
	Topo *topology.Dragonfly
	Jobs []*Job // sorted by Start

	days float64
	// net routes the jobs' footprints; tmFootprints counts the builds
	net          *netsim.Network
	tmFootprints *telemetry.Counter
}

// Days returns the campaign length the timeline was generated for.
func (tl *Timeline) Days() float64 { return tl.days }

// Horizon returns the timeline length in seconds.
func (tl *Timeline) Horizon() float64 { return tl.days * 86400 }

// Overlapping returns the jobs active during any part of [t0, t1),
// in start order.
func (tl *Timeline) Overlapping(t0, t1 float64) []*Job {
	var out []*Job
	for _, j := range tl.Jobs {
		if j.Start >= t1 {
			break
		}
		if j.Overlaps(t0, t1) {
			out = append(out, j)
		}
	}
	return out
}

// Requeues counts the jobs in the timeline that are resubmissions of a
// node-failed attempt.
func (tl *Timeline) Requeues() int {
	n := 0
	for _, j := range tl.Jobs {
		if j.Attempt > 0 {
			n++
		}
	}
	return n
}

// PlacementFeatures derives the paper's placement features from an
// allocation: NUM_ROUTERS is the number of distinct routers the nodes
// attach to, NUM_GROUPS the number of distinct dragonfly groups.
func PlacementFeatures(topo *topology.Dragonfly, nodes []topology.NodeID) (numRouters, numGroups int) {
	routers := map[topology.RouterID]bool{}
	groups := map[topology.GroupID]bool{}
	for _, n := range nodes {
		r := topo.RouterOfNode(n)
		routers[r] = true
		groups[topo.Group(r)] = true
	}
	return len(routers), len(groups)
}

// GenerateConfig controls timeline generation.
type GenerateConfig struct {
	Days  float64
	Users []*User // defaults to Roster()
	// MaxJobFraction caps a single job at this fraction of the compute
	// pool, so rosters tuned for Cori still generate on small test
	// machines. Default 0.25.
	MaxJobFraction float64
	// Faults, when non-nil, makes the scheduler fault-aware: it avoids
	// nodes that are drained at submission time, kills jobs whose routers
	// drain or fail mid-run (sacct state NODE_FAIL), and requeues them
	// with bounded exponential backoff in campaign wall-clock time.
	Faults *faults.Schedule
}

// Generate builds a background timeline: Poisson arrivals per user,
// lognormal durations and first-fit allocation with queue-wait retries.
// Each job's unit network footprint is routed over net on its first read
// (Job.Footprint), not here.
func Generate(net *netsim.Network, cfg GenerateConfig, s *rng.Stream) *Timeline {
	topo := net.Topology()
	users := cfg.Users
	if users == nil {
		users = Roster()
	}
	if cfg.MaxJobFraction <= 0 {
		cfg.MaxJobFraction = 0.25
	}
	horizon := cfg.Days * 86400

	type arrival struct {
		t       float64
		user    *User
		try     int // queue-wait retries of this placement attempt
		attempt int // requeue generation after node failures
	}
	var arrivals []arrival
	insert := func(a arrival) {
		idx := sort.Search(len(arrivals), func(i int) bool { return arrivals[i].t >= a.t })
		arrivals = append(arrivals, arrival{})
		copy(arrivals[idx+1:], arrivals[idx:])
		arrivals[idx] = a
	}
	arrStream := s.Split("arrivals")
	for _, u := range users {
		n := poisson(arrStream, u.Workload.JobsPerDay*cfg.Days)
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, arrival{t: arrStream.Uniform(0, horizon), user: u})
		}
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].t < arrivals[j].t })

	alloc := NewAllocator(topo)
	maxNodes := int(float64(alloc.FreeCount()) * cfg.MaxJobFraction)
	placeStream := s.Split("placement")
	jobStream := s.Split("jobshape")

	// running jobs as a simple min-heap on End
	var running jobHeap
	tl := &Timeline{Topo: topo, days: cfg.Days, net: net, tmFootprints: telemetry.C(telemetry.MSlurmFootprints)}
	nextID := 1000

	for len(arrivals) > 0 {
		a := arrivals[0]
		arrivals = arrivals[1:]
		if a.t >= horizon {
			continue // queue-wait retries pushed the job past the campaign
		}
		// release finished jobs
		for len(running) > 0 && running[0].End <= a.t {
			alloc.Free(running[0].Nodes)
			running.pop()
		}
		w := a.user.Workload
		// log-uniform size in [NodesMin, NodesMax], clamped to the machine
		size := int(math.Round(math.Exp(jobStream.Uniform(math.Log(float64(w.NodesMin)), math.Log(float64(w.NodesMax)+1)))))
		if size < 1 {
			size = 1
		}
		if size > maxNodes {
			size = maxNodes
		}
		// drained nodes are unallocatable right now; the scheduler cannot
		// see future drains, so jobs can still be caught by one mid-run
		nodes := alloc.AllocAvoiding(size, placeStream.Float64(), cfg.Faults.DrainedNodes(a.t), placeStream)
		if nodes == nil {
			// queue wait: retry later a few times, then give up
			if a.try < 4 {
				a.try++
				a.t += QueueRetryWait(placeStream)
				insert(a)
			}
			continue
		}
		dur := jobStream.LogNormal(math.Log(w.MeanDurationSec), 0.5)
		if dur < 300 {
			dur = 300
		}
		end := a.t + dur
		if end > horizon {
			end = horizon
		}
		j := &Job{
			ID:      nextID,
			User:    a.user,
			Nodes:   nodes,
			Start:   a.t,
			End:     end,
			State:   StateCompleted,
			Attempt: a.attempt,
			tl:      tl,
		}
		nextID++
		// the intensity series spans the PLANNED duration, before any
		// fault truncation below: the per-minute draw count then stays
		// identical between a faulted campaign and its clean twin, so the
		// shared stream never diverges before the first fault actually hits
		j.buildIntensity(jobStream)
		// a drain or router failure starting mid-run kills the job; the
		// scheduler requeues the submission with exponential backoff
		if tf, failed := cfg.Faults.FirstFailure(j.Routers(topo), j.Start, j.End); failed {
			if tf <= j.Start {
				tf = j.Start + 60 // killed within the first scheduling tick
			}
			j.End = tf
			j.State = StateNodeFail
			if a.attempt < MaxRequeues {
				insert(arrival{t: tf + RequeueBackoff(a.attempt), user: a.user, attempt: a.attempt + 1})
			}
		}
		tl.Jobs = append(tl.Jobs, j)
		running.push(j)
	}
	sort.Slice(tl.Jobs, func(i, j int) bool { return tl.Jobs[i].Start < tl.Jobs[j].Start })
	return tl
}

// unitFlows is the job's traffic at unit intensity: an irregular
// node-level exchange plus filesystem traffic, scaled so that a round of
// duration D at intensity 1 injects BytesPerNodePerSec*D per node.
func (j *Job) unitFlows() []netsim.Flow {
	topo := j.tl.net.Topology()
	w := j.User.Workload
	mapper := &mpi.RankMapper{Topo: topo, Nodes: j.Nodes, RanksPerNode: 1}
	b := mpi.NewPatternBuilder()
	defer b.Release()
	fanout := w.Fanout
	if fanout < 1 {
		fanout = 1
	}
	b.AddIrregular(mapper, fanout, 1)
	if w.IOBytesPerNodePerSec > 0 && w.BytesPerNodePerSec > 0 {
		// the irregular pattern carries ~nodes*fanout units of weight, so
		// scale the I/O share to preserve the byte ratio
		ioShare := w.IOBytesPerNodePerSec / w.BytesPerNodePerSec
		b.AddIOTraffic(mapper, ioShare*float64(len(j.Nodes)*fanout))
	}
	// cap the footprint of very large jobs: 256 router pairs are plenty to
	// place their congestion realistically, and it bounds campaign memory
	pattern := b.Build().Downsample(256)
	bytesPerSec := w.BytesPerNodePerSec * float64(len(j.Nodes))
	flits := mpi.FlitsFor(bytesPerSec)
	msgs := bytesPerSec / math.Max(w.MsgBytes, 1)
	return pattern.Instantiate(flits, msgs, w.ReqFraction, nil)
}

// buildIntensity precomputes the per-minute AR(1) intensity series.
func (j *Job) buildIntensity(s *rng.Stream) {
	w := j.User.Workload
	minutes := int(math.Ceil(j.Duration()/60)) + 1
	ar := rng.AR1{Mean: 1, Std: w.IntensityStd, Rho: w.IntensityRho}
	j.intensity = make([]float64, minutes)
	for i := range j.intensity {
		j.intensity[i] = ar.Next(s)
	}
}

// poisson draws a Poisson variate (Knuth's method for small means, normal
// approximation above 30).
func poisson(s *rng.Stream, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// jobHeap is a min-heap on Job.End.
type jobHeap []*Job

func (h *jobHeap) push(j *Job) {
	*h = append(*h, j)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].End <= (*h)[i].End {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *jobHeap) pop() *Job {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l].End < (*h)[smallest].End {
			smallest = l
		}
		if r < n && (*h)[r].End < (*h)[smallest].End {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
