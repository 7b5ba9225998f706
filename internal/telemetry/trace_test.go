package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	v := FormatTraceparent(sc)
	if len(v) != 55 || !strings.HasPrefix(v, "00-") || !strings.HasSuffix(v, "-01") {
		t.Fatalf("unexpected traceparent layout: %q", v)
	}
	got, err := ParseTraceparent(v)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", v, err)
	}
	if got != sc {
		t.Fatalf("round trip mismatch: sent %+v got %+v", sc, got)
	}
}

func TestTraceparentMalformed(t *testing.T) {
	valid := FormatTraceparent(SpanContext{Trace: NewTraceID(), Span: NewSpanID()})
	bad := []string{
		"",
		"garbage",
		valid[:54],                          // truncated
		strings.Replace(valid, "-", "_", 1), // wrong separators
		"zz" + valid[2:],                    // non-hex version
		"ff" + valid[2:],                    // reserved version
		"00-" + strings.Repeat("0", 32) + valid[35:],      // all-zero trace id
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // all-zero span id
		valid[:3] + "xx" + valid[5:],                      // non-hex trace id
		valid + "tail",                                    // trailing junk without a dash
	}
	for _, v := range bad {
		if _, err := ParseTraceparent(v); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", v)
		}
	}
	// future version with extra fields after another dash is accepted
	if _, err := ParseTraceparent("01" + valid[2:] + "-extra"); err != nil {
		t.Errorf("ParseTraceparent rejected future-versioned value: %v", err)
	}
}

// TestExtractMalformedFallsBackToFreshRoot is the required malformed-header
// fallback: a request with a broken traceparent must start a fresh root
// trace, not inherit garbage.
func TestExtractMalformedFallsBackToFreshRoot(t *testing.T) {
	r := New()
	h := http.Header{}
	h.Set(TraceparentHeader, "00-borked-borked-01")
	ctx := ExtractTraceparent(context.Background(), h)
	_, sp := StartIn(r, ctx, "req")
	sp.End()
	recs := r.Snapshot().Spans
	if len(recs) != 1 {
		t.Fatalf("got %d spans, want 1", len(recs))
	}
	if recs[0].ParentSpanID != "" || recs[0].Parent != 0 {
		t.Fatalf("malformed header produced a parented span: %+v", recs[0])
	}
	if recs[0].TraceID == "" || recs[0].TraceID == strings.Repeat("0", 32) {
		t.Fatalf("fresh root got no trace ID: %+v", recs[0])
	}
}

func TestExtractValidHeaderJoinsRemoteTrace(t *testing.T) {
	r := New()
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	h := http.Header{}
	h.Set(TraceparentHeader, FormatTraceparent(remote))
	ctx := ExtractTraceparent(context.Background(), h)
	_, sp := StartIn(r, ctx, "req")
	sp.End()
	rec := r.Snapshot().Spans[0]
	if rec.TraceID != remote.Trace.String() {
		t.Fatalf("trace ID not inherited: got %s want %s", rec.TraceID, remote.Trace)
	}
	if rec.ParentSpanID != remote.Span.String() {
		t.Fatalf("remote parent not linked: got %s want %s", rec.ParentSpanID, remote.Span)
	}
	if rec.Parent != 0 {
		t.Fatalf("remote-parented span must be a local root, got local parent %d", rec.Parent)
	}
}

func TestInjectTraceparent(t *testing.T) {
	r := New()
	ctx, sp := StartIn(r, context.Background(), "op")
	h := http.Header{}
	InjectTraceparent(ctx, h)
	sc, ok := sp.SpanContext()
	if !ok {
		t.Fatal("live span has no span context")
	}
	if got := h.Get(TraceparentHeader); got != FormatTraceparent(sc) {
		t.Fatalf("injected %q, want %q", got, FormatTraceparent(sc))
	}
	// no identity → no header
	h2 := http.Header{}
	InjectTraceparent(context.Background(), h2)
	if h2.Get(TraceparentHeader) != "" {
		t.Fatalf("header injected from an empty context: %q", h2.Get(TraceparentHeader))
	}
}

func TestWithSpanFrom(t *testing.T) {
	r := New()
	src, sp := StartIn(r, context.Background(), "op")
	defer sp.End()
	dst, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, ok := SpanContextFromContext(WithSpanFrom(dst, src))
	want, _ := sp.SpanContext()
	if !ok || got != want {
		t.Fatalf("WithSpanFrom lost the span identity: got %+v ok=%v want %+v", got, ok, want)
	}
	// remote-only source carries too
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	src2 := ContextWithRemote(context.Background(), remote)
	got2, ok2 := SpanContextFromContext(WithSpanFrom(context.Background(), src2))
	if !ok2 || got2 != remote {
		t.Fatalf("WithSpanFrom lost the remote identity: got %+v ok=%v", got2, ok2)
	}
}

// TestConcurrentSpanIDUniqueness exercises ID generation from many
// goroutines under -race and requires global uniqueness.
func TestConcurrentSpanIDUniqueness(t *testing.T) {
	r := New()
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	ids := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, parent := StartIn(r, context.Background(), "parent")
				_, child := StartIn(r, ctx, "child")
				psc, _ := parent.SpanContext()
				csc, _ := child.SpanContext()
				ids[g] = append(ids[g], psc.Span.String(), csc.Span.String())
				child.End()
				parent.End()
			}
		}(g)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate span ID %s", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != goroutines*perG*2 {
		t.Fatalf("got %d distinct IDs, want %d", len(seen), goroutines*perG*2)
	}
}

func TestSpanLinkageAndAttrs(t *testing.T) {
	r := New()
	ctx, root := StartIn(r, context.Background(), "campaign")
	_, child := StartIn(r, ctx, "round")
	child.SetAttr("round", "1")
	child.End()
	root.SetAttr("units", "12")
	root.End()
	root.End() // idempotent: must not record a duplicate
	recs := r.Snapshot().Spans
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2 (End must be idempotent)", len(recs))
	}
	var rootRec, childRec SpanRecord
	for _, rec := range recs {
		switch rec.Name {
		case "campaign":
			rootRec = rec
		case "round":
			childRec = rec
		}
	}
	if childRec.TraceID != rootRec.TraceID {
		t.Fatalf("child trace %s != root trace %s", childRec.TraceID, rootRec.TraceID)
	}
	if childRec.ParentSpanID != rootRec.SpanID {
		t.Fatalf("child parent_span_id %s != root span_id %s", childRec.ParentSpanID, rootRec.SpanID)
	}
	if childRec.Attrs["round"] != "1" || rootRec.Attrs["units"] != "12" {
		t.Fatalf("attrs lost: root=%v child=%v", rootRec.Attrs, childRec.Attrs)
	}
}

func TestTraceExportAndStitch(t *testing.T) {
	// two registries standing in for two processes sharing one trace
	coord := New()
	coord.SetRole("coordinator")
	worker := New()
	worker.SetRole("worker")

	cctx, campaign := StartIn(coord, context.Background(), SpanCampaign)
	uctx, unit := StartIn(coord, cctx, SpanDistUnit)
	unit.SetAttr("unit", "3")

	// worker joins via the wire format
	sc, _ := FromContext(uctx).SpanContext()
	wctx := ContextWithRemote(context.Background(), sc)
	_, exec := StartIn(worker, wctx, SpanDistUnitExec)
	exec.SetAttr("worker", "w1")
	exec.End()
	unit.End()
	campaign.End()

	dir := t.TempDir()
	var paths []string
	for name, r := range map[string]*Registry{"coord": coord, "worker": worker} {
		snap := r.Snapshot()
		var buf bytes.Buffer
		if err := snap.WriteSpanJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name+".trace")
		if err := writeFileWith(p, snap.WriteSpanJSONL); err != nil {
			t.Fatal(err)
		}
		// the chrome rendering must be valid JSON with one event per span
		// plus process metadata
		var chrome bytes.Buffer
		if err := snap.localStitch().MergedTraceEvents(&chrome); err != nil {
			t.Fatal(err)
		}
		var tf traceEventFile
		if err := json.Unmarshal(chrome.Bytes(), &tf); err != nil {
			t.Fatalf("chrome trace not JSON: %v", err)
		}
		if len(tf.TraceEvents) != len(snap.Spans)+1 {
			t.Fatalf("chrome events %d, want %d spans + 1 metadata", len(tf.TraceEvents), len(snap.Spans))
		}
		paths = append(paths, p)
	}

	var files []*TraceFile
	for _, p := range paths {
		tf, err := ReadTraceFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, tf)
	}
	st := StitchTraces(files)
	sum := st.Summary()
	if sum.Spans != 3 || sum.Roots != 1 || sum.Orphans != 0 {
		t.Fatalf("summary %+v: want 3 spans, 1 root, 0 orphans", sum)
	}
	if sum.CrossProcessEdges != 1 {
		t.Fatalf("cross-process edges %d, want 1", sum.CrossProcessEdges)
	}
	if len(sum.Traces) != 1 {
		t.Fatalf("trace count %d, want 1", len(sum.Traces))
	}
	if len(sum.RootNames) != 1 || sum.RootNames[0] != SpanCampaign {
		t.Fatalf("root names %v, want [%s]", sum.RootNames, SpanCampaign)
	}
	report := st.Report()
	for _, want := range []string{"coordinator", "worker", SpanDistUnitExec, "cross-process flame"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	var merged bytes.Buffer
	if err := st.MergedTraceEvents(&merged); err != nil {
		t.Fatal(err)
	}
	var tf traceEventFile
	if err := json.Unmarshal(merged.Bytes(), &tf); err != nil {
		t.Fatalf("merged chrome trace not JSON: %v", err)
	}
	if len(tf.TraceEvents) != 3+2 {
		t.Fatalf("merged events %d, want 3 spans + 2 metadata", len(tf.TraceEvents))
	}
}

func TestStitchFlagsOrphans(t *testing.T) {
	r := New()
	r.SetRole("worker")
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	_, sp := StartIn(r, ContextWithRemote(context.Background(), remote), SpanDistUnitExec)
	sp.End()
	snap := r.Snapshot()
	dir := t.TempDir()
	p := filepath.Join(dir, "w.trace")
	if err := writeFileWith(p, snap.WriteSpanJSONL); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTraceFile(p)
	if err != nil {
		t.Fatal(err)
	}
	st := StitchTraces([]*TraceFile{tf})
	if len(st.Orphans) != 1 || len(st.Roots) != 0 {
		t.Fatalf("orphans=%d roots=%d, want 1/0", len(st.Orphans), len(st.Roots))
	}
	if !strings.Contains(st.Report(), "orphaned span") {
		t.Fatalf("report does not flag the orphan:\n%s", st.Report())
	}
	sum := st.Summary()
	if sum.Orphans != 1 || len(sum.OrphanNames) != 1 {
		t.Fatalf("summary %+v: want 1 orphan", sum)
	}
}

// TestLocalViewsRenderRemoteParentAsRoot: the one-process views of a
// snapshot (the stderr summary and the Chrome trace file) render a span
// whose parent lives in another process as a root, without an orphan flag,
// while the JSONL stream keeps the remote parent ID for stitching.
func TestLocalViewsRenderRemoteParentAsRoot(t *testing.T) {
	r := New()
	r.SetRole("worker")
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	ctx, exec := StartIn(r, ContextWithRemote(context.Background(), remote), SpanDistUnitExec)
	_, sim := StartIn(r, ctx, SpanDistSimulate)
	sim.End()
	exec.End()
	snap := r.Snapshot()

	sum := snap.Summary()
	if strings.Contains(sum, "orphan") {
		t.Errorf("one-process summary flags an orphan:\n%s", sum)
	}
	// the remote-parented span sits at depth 0, its child one level below
	if !strings.Contains(sum, "\n  "+SpanDistUnitExec+" ") || !strings.Contains(sum, "\n    "+SpanDistSimulate+" ") {
		t.Errorf("summary does not render %s as a root over %s:\n%s", SpanDistUnitExec, SpanDistSimulate, sum)
	}
	var chrome bytes.Buffer
	if err := snap.localStitch().MergedTraceEvents(&chrome); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(chrome.String(), `"cat":"orphan"`) {
		t.Errorf("chrome trace flags an orphan:\n%s", chrome.String())
	}

	var buf bytes.Buffer
	if err := snap.WriteSpanJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tf.Spans {
		if sp.Name == SpanDistUnitExec && sp.ParentSpanID != remote.Span.String() {
			t.Errorf("JSONL parent of %s = %q, want the remote %s", sp.Name, sp.ParentSpanID, remote.Span)
		}
	}
}

func TestSnapshotCarriesProcessIdentity(t *testing.T) {
	r := New()
	r.SetRole("coordinator")
	snap := r.Snapshot()
	if snap.Process.PID <= 0 {
		t.Fatalf("snapshot pid %d", snap.Process.PID)
	}
	if snap.Process.Role != "coordinator" {
		t.Fatalf("snapshot role %q", snap.Process.Role)
	}
	if snap.Process.StartedAt.IsZero() {
		t.Fatal("snapshot start time missing")
	}
	// identity must round-trip through JSON
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Process.PID != snap.Process.PID || back.Process.Role != snap.Process.Role {
		t.Fatalf("process identity lost in JSON: %+v", back.Process)
	}
}

func TestFlushTraceWritesBothArtifacts(t *testing.T) {
	r := New()
	r.SetRole("test")
	Enable(r)
	defer Disable()
	_, sp := Start(context.Background(), "op")
	sp.End()
	p := filepath.Join(t.TempDir(), "out.trace")
	if err := FlushTrace(p); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTraceFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 1 || tf.Proc.Role != "test" {
		t.Fatalf("trace file %+v", tf)
	}
	blob, err := os.ReadFile(p + TraceEventsSuffix)
	if err != nil {
		t.Fatal(err)
	}
	var chrome traceEventFile
	if err := json.Unmarshal(blob, &chrome); err != nil {
		t.Fatalf("chrome artifact not JSON: %v", err)
	}
}
