package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestNilHandles exercises every operation on nil handles: instrumented
// code must never branch on whether telemetry is enabled.
func TestNilHandles(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	var sp *Span
	sp.End() // must not panic

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", CountBuckets) != nil {
		t.Fatal("nil registry handed out a live handle")
	}
	if snap := r.Snapshot(); snap == nil || len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestDisabledHelpers checks the package-level helpers are no-ops without
// an active registry.
func TestDisabledHelpers(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() true after Disable")
	}
	C("a").Inc()
	G("b").Set(1)
	H("c", SecondsBuckets).Observe(1)
	ctx, sp := Start(context.Background(), "root")
	if sp != nil {
		t.Fatal("Start returned a live span while disabled")
	}
	sp.End()
	if FromContext(ctx) != nil {
		t.Fatal("disabled Start attached a span to the context")
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines; run
// under -race this is the concurrency-safety proof for the handle types
// and the create-or-get paths.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	const goroutines = 16
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				r.Counter("shared/counter").Inc()
				r.Gauge("shared/gauge").Add(1)
				r.Histogram("shared/hist", CountBuckets).Observe(float64(i))
				if i%100 == 0 {
					_, sp := StartIn(r, ctx, "work")
					sp.End()
					r.Snapshot() // snapshots race with updates by design
				}
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("shared/counter").Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("shared/gauge").Value(); got != goroutines*iters {
		t.Fatalf("gauge = %g, want %d", got, goroutines*iters)
	}
	h := r.Histogram("shared/hist", CountBuckets)
	if h.Count() != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*iters)
	}
	// each goroutine observes 0+1+…+(iters-1)
	want := float64(goroutines) * float64(iters*(iters-1)) / 2
	if math.Abs(h.Sum()-want) > 1e-6*want {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), want)
	}
}

// TestHistogramBucketEdges pins the bucket semantics: bucket i counts
// observations ≤ bounds[i] (and > bounds[i-1]); values above every bound
// land in the dedicated overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := New()
	h := r.Histogram("edges", []float64{1, 10, 100})
	h.Observe(0.5) // below first bound → bucket 0
	h.Observe(1)   // exactly on a bound → that bound's bucket
	h.Observe(1.5) // between bounds → bucket 1
	h.Observe(10)  // exactly on the second bound → bucket 1
	h.Observe(100) // last bound → bucket 2
	h.Observe(101) // above every bound → overflow bucket

	snap := r.Snapshot().Histograms["edges"]
	wantCounts := []int64{2, 2, 1, 1}
	if len(snap.Counts) != len(wantCounts) {
		t.Fatalf("got %d buckets, want %d (len(bounds)+1)", len(snap.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if snap.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, snap.Counts[i], want)
		}
	}
	if snap.Count != 6 {
		t.Errorf("count = %d, want 6", snap.Count)
	}
	if want := 0.5 + 1 + 1.5 + 10 + 100 + 101; snap.Sum != want {
		t.Errorf("sum = %g, want %g", snap.Sum, want)
	}
	// the layout is fixed at first creation; later bounds are ignored
	if h2 := r.Histogram("edges", []float64{5}); h2 != h {
		t.Error("second Histogram call with different bounds returned a new histogram")
	}
}

// TestHistogramLayoutHasNoInfinity checks the JSON-safety property the
// overflow bucket exists for: no snapshot bound is ±Inf.
func TestHistogramLayoutHasNoInfinity(t *testing.T) {
	for _, bounds := range [][]float64{SecondsBuckets, CountBuckets, FlitsBuckets, LatencyBuckets} {
		for _, b := range bounds {
			if math.IsInf(b, 0) || math.IsNaN(b) {
				t.Fatalf("bucket layout contains %v", b)
			}
		}
	}
}

// TestSpanNesting checks parent wiring, path construction, and that the
// snapshot returns spans sorted by start time.
func TestSpanNesting(t *testing.T) {
	r := New()
	ctx := context.Background()
	ctx, root := StartIn(r, ctx, "campaign")
	cctx, child := StartIn(r, ctx, "round")
	_, grand := StartIn(r, cctx, "merge")
	grand.End()
	child.End()
	// a sibling started from the root context
	_, sib := StartIn(r, ctx, "schedule")
	sib.End()
	root.End()

	spans := r.Snapshot().Spans
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if p := byName["campaign"]; p.ParentSpanID != "" || p.SpanID == "" {
		t.Errorf("root span: parent=%q span=%q", p.ParentSpanID, p.SpanID)
	}
	if c := byName["round"]; c.ParentSpanID != byName["campaign"].SpanID {
		t.Errorf("child span: parent=%q, want the root's span id", c.ParentSpanID)
	}
	if g := byName["merge"]; g.ParentSpanID != byName["round"].SpanID {
		t.Errorf("grandchild span: parent=%q, want the child's span id", g.ParentSpanID)
	}
	if s := byName["schedule"]; s.ParentSpanID != byName["campaign"].SpanID {
		t.Errorf("sibling span: parent=%q, want root's span id", s.ParentSpanID)
	}
	// chronological order: root started first
	if spans[0].Name != "campaign" {
		t.Errorf("spans not sorted by start: first is %q", spans[0].Name)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartS < spans[i-1].StartS {
			t.Errorf("spans out of order at %d", i)
		}
	}
	// durations nest: parent covers child
	if byName["campaign"].DurS < byName["round"].DurS {
		t.Error("parent duration shorter than child")
	}
}

// TestSpanCrossRegistry: a span from a previous registry in the context
// must not become the parent of a span in a new registry.
func TestSpanCrossRegistry(t *testing.T) {
	r1, r2 := New(), New()
	ctx, sp1 := StartIn(r1, context.Background(), "old")
	defer sp1.End()
	_, sp2 := StartIn(r2, ctx, "new")
	sp2.End()
	spans := r2.Snapshot().Spans
	if len(spans) != 1 || spans[0].ParentSpanID != "" || spans[0].Name != "new" {
		t.Fatalf("cross-registry parent leaked: %+v", spans)
	}
}

// TestSnapshotRoundTrip writes a populated snapshot to JSON and reads it
// back, checking the exported state survives unchanged.
func TestSnapshotRoundTrip(t *testing.T) {
	r := New()
	r.Counter("runs").Add(7)
	r.Gauge("workers").Set(4)
	r.Histogram("secs", SecondsBuckets).Observe(0.5)
	_, sp := StartIn(r, context.Background(), "trip")
	sp.End()
	snap := r.Snapshot()

	path := filepath.Join(t.TempDir(), "snap.json")
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["runs"] != 7 || got.Gauges["workers"] != 4 {
		t.Fatalf("scalars did not round-trip: %+v", got)
	}
	h := got.Histograms["secs"]
	if h.Count != 1 || h.Sum != 0.5 || len(h.Bounds) != len(SecondsBuckets) {
		t.Fatalf("histogram did not round-trip: %+v", h)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "trip" {
		t.Fatalf("spans did not round-trip: %+v", got.Spans)
	}
	// strict equality of the re-encoded JSON guards against lossy fields
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("snapshot JSON is not stable across a round trip")
	}
}

// TestFlushAndSummary checks Flush writes a loadable file and the summary
// mentions every metric.
func TestFlushAndSummary(t *testing.T) {
	r := New()
	Enable(r)
	defer Disable()
	C("cluster/runs_total").Add(3)
	H("cluster/run_seconds", SecondsBuckets).Observe(2)
	ctx, sp := Start(context.Background(), "campaign")
	_, child := Start(ctx, "round")
	child.End()
	sp.End()

	path := filepath.Join(t.TempDir(), "out.json")
	if err := Flush(path); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["cluster/runs_total"] != 3 {
		t.Fatalf("flushed counter = %d", snap.Counters["cluster/runs_total"])
	}
	sum := snap.Summary()
	for _, want := range []string{"cluster/runs_total", "cluster/run_seconds", "campaign", "round"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	flame := snap.localStitch().Flame()
	// the child renders indented under the parent with its share
	if !strings.Contains(flame, "round") || !strings.Contains(flame, "%") {
		t.Errorf("flame missing nested child:\n%s", flame)
	}
}

// TestFlushDisabledOrEmpty: Flush must be a no-op (not an error) when
// telemetry is off or no path was given, so CLIs can defer it blindly.
func TestFlushDisabledOrEmpty(t *testing.T) {
	Disable()
	if err := Flush(filepath.Join(t.TempDir(), "never.json")); err != nil {
		t.Fatal(err)
	}
	Enable(New())
	defer Disable()
	if err := Flush(""); err != nil {
		t.Fatal(err)
	}
}

// TestNamesAreUnique guards the canonical name lists against copy-paste
// duplicates, which would silently merge two metrics into one.
func TestNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range AllMetricNames {
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	seen = map[string]bool{}
	for _, n := range AllSpanNames {
		if seen[n] {
			t.Errorf("duplicate span name %q", n)
		}
		seen[n] = true
	}
}

// TestSnapshotJSONShape pins the wire field names the docs and external
// consumers rely on.
func TestSnapshotJSONShape(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	_, sp := StartIn(r, context.Background(), "s")
	sp.End()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"captured_at", "uptime_s", "counters", "gauges", "histograms", "spans"} {
		if _, ok := m[key]; !ok {
			t.Errorf("snapshot JSON missing top-level key %q", key)
		}
	}
}
