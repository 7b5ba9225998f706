// Package telemetry is the self-monitoring layer of the reproduction: a
// dependency-free metrics registry (counters, gauges, histograms with fixed
// bucket layouts) plus lightweight span tracing, threaded through every hot
// layer — the execution engine, the network simulator, the campaign driver,
// the ML stack, and the serving, distributed and daemon layers.
//
// The paper's method is built on instrumentation of the system under study
// (Aries counters, 1 Hz LDMS sweeps, sacct logs); this package instruments
// the reproduction itself the same way, so a faulted 4-worker campaign is
// no longer a black box about its own execution.
//
// # Observation-only contract
//
// Telemetry NEVER feeds back into computation. Metric values are wall-clock
// times, cache statistics, and event counts — none of them are read by any
// simulation or analysis code path, so the engine's serial ≡ parallel
// byte-identical guarantee holds with telemetry enabled or disabled
// (enforced by the determinism tests in internal/cluster and the tests
// here). The snapshot itself is of course not deterministic: it records how
// this particular process executed.
//
// # Usage
//
// A process enables telemetry once, near main:
//
//	telemetry.Enable(telemetry.New())
//	defer telemetry.Flush("telemetry.json")
//
// Library code obtains nil-safe handles and updates them unconditionally:
//
//	hits := telemetry.C("netsim/path_cache_hits")
//	hits.Add(1) // no-op (nil handle) when telemetry is disabled
//
// Spans nest through a context:
//
//	ctx, sp := telemetry.Start(ctx, "campaign")
//	defer sp.End()
//
// Every metric and span name emitted by the repository is documented in
// docs/OBSERVABILITY.md; keep the two in sync when instrumenting new code.
package telemetry

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil *Counter is a valid no-op handle.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil handle.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil handle.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down (queue depths, cache
// sizes, configuration values). A nil *Gauge is a valid no-op handle.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge. No-op on a nil handle.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into a fixed bucket layout. The
// layout is immutable after creation, so snapshots taken on different
// hosts or at different times aggregate bucket-by-bucket — the same
// reason LDMS fixes its sampling schema up front. A nil *Histogram is a
// valid no-op handle.
type Histogram struct {
	bounds []float64      // ascending upper bounds; immutable
	counts []atomic.Int64 // len(bounds)+1; last bucket is the +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	// extremes of every observation, float64 bits; updated before count,
	// so a reader that sees count > 0 sees finite values
	min, max atomic.Uint64
}

// newHistogram builds a histogram over the given ascending bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// casFloat stores f(old) into bits until no concurrent update intervenes;
// f returning old leaves bits unchanged.
func casFloat(bits *atomic.Uint64, f func(old float64) float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(f(math.Float64frombits(old)))
		if next == old || bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Observe records one value. Bucket i holds observations v ≤ bounds[i]
// (and > bounds[i-1]); values above every bound land in the overflow
// bucket. No-op on a nil handle.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// binary search for the first bound ≥ v
	i := sort.SearchFloat64s(h.bounds, v)
	casFloat(&h.min, func(old float64) float64 { return math.Min(old, v) })
	casFloat(&h.max, func(old float64) float64 { return math.Max(old, v) })
	h.counts[i].Add(1)
	h.count.Add(1)
	casFloat(&h.sum, func(old float64) float64 { return old + v })
}

// ObserveSince records the wall-clock seconds elapsed since t0. No-op on a
// nil handle (time.Since is still evaluated; guard with Enabled for
// ultra-hot paths).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Standard bucket layouts. Fixed layouts keep aggregation well-defined:
// two snapshots with the same metric name always share bucket edges.
var (
	// SecondsBuckets spans 1 µs … ~1000 s in half-decade steps (factor
	// ~3.16), fitting everything from a single engine shard to a full
	// campaign.
	SecondsBuckets = []float64{1e-6, 3.16e-6, 1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2,
		0.1, 0.316, 1, 3.16, 10, 31.6, 100, 316, 1000}
	// CountBuckets spans 1 … 1e6 in powers of 10 with midpoints.
	CountBuckets = []float64{1, 3, 10, 30, 100, 300, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6}
	// FlitsBuckets spans 1e8 … 1e15 flits exponentially (factor ~3.16):
	// the traffic one simulation round offers, one step of a job's
	// communication, which reads 1.4e11 … 5.2e12 flits in the paper's
	// application campaigns.
	FlitsBuckets = []float64{1e8, 3.16e8, 1e9, 3.16e9, 1e10, 3.16e10, 1e11, 3.16e11, 1e12, 3.16e12, 1e13, 3.16e13, 1e14, 3.16e14, 1e15}
)

// ProcessInfo identifies the process a snapshot came from, so snapshots
// from several processes merge unambiguously in `dfvar trace`.
type ProcessInfo struct {
	PID      int    `json:"pid"`
	Hostname string `json:"hostname"`
	// Role names what the process was doing: "coordinator", "worker",
	// "dfserved", or the tool name. Set via SetRole.
	Role string `json:"role,omitempty"`
	// StartedAt is the registry's wall-clock creation time; span offsets
	// are relative to it.
	StartedAt time.Time `json:"started_at"`
}

// Registry holds a process's metrics and completed spans. All methods are
// safe for concurrent use; metric updates after registration are lock-free.
// A nil *Registry hands out nil (no-op) handles, so callers never branch.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	proc     ProcessInfo
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanRecord
}

// New creates an empty registry stamped with the process's identity.
func New() *Registry {
	start := time.Now()
	host, _ := os.Hostname()
	return &Registry{
		start:    start,
		proc:     ProcessInfo{PID: os.Getpid(), Hostname: host, StartedAt: start},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// SetRole records the process role ("coordinator", "worker", …) on the
// registry's process identity. No-op on a nil registry.
func (r *Registry) SetRole(role string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.proc.Role = role
	r.mu.Unlock()
}

// Process returns the registry's process identity (zero value on nil).
func (r *Registry) Process() ProcessInfo {
	if r == nil {
		return ProcessInfo{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proc
}

// SetRole records the process role on the active registry (no-op when
// telemetry is disabled). Call it right after Enable.
func SetRole(role string) { Active().SetRole(role) }

// Counter returns the named counter, creating it on first use. Returns a
// nil (no-op) handle on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns a nil
// (no-op) handle on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Later calls reuse the existing layout (the bounds
// argument is ignored then) so a metric name always has one fixed layout.
// Returns a nil (no-op) handle on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// active is the process-wide registry consulted by the package-level
// helpers; nil means telemetry is disabled (the default).
var active atomic.Pointer[Registry]

// Enable installs r as the process-wide registry. Call once near main,
// before constructing the objects to instrument (handles are captured at
// construction time). Enable(nil) is equivalent to Disable.
func Enable(r *Registry) { active.Store(r) }

// Disable removes the process-wide registry; subsequently created handles
// are no-ops. Metrics already handed out keep updating their (now
// unreachable) registry, which is harmless.
func Disable() { active.Store(nil) }

// Active returns the process-wide registry, or nil when disabled.
func Active() *Registry { return active.Load() }

// Enabled reports whether a process-wide registry is installed. Use it to
// skip expensive instrumentation work (time.Now calls in tight loops); the
// handles themselves are always safe to call.
func Enabled() bool { return active.Load() != nil }

// C returns the named counter from the active registry (a no-op handle
// when telemetry is disabled).
func C(name string) *Counter { return Active().Counter(name) }

// G returns the named gauge from the active registry (a no-op handle when
// telemetry is disabled).
func G(name string) *Gauge { return Active().Gauge(name) }

// H returns the named histogram from the active registry (a no-op handle
// when telemetry is disabled).
func H(name string, bounds []float64) *Histogram { return Active().Histogram(name, bounds) }

// fmtSeconds renders a duration in seconds compactly for the text summary.
func fmtSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}
