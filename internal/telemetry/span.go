package telemetry

import (
	"context"
	"sync"
	"time"
)

// SpanRecord is one completed span as stored in the registry and exported
// in snapshots. Offsets are relative to the registry's start time so a
// trace is self-contained; combined with the snapshot's process identity
// the offsets convert to absolute times for cross-process stitching.
type SpanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for root spans
	Name   string `json:"name"`
	// Path is the "/"-joined chain of ancestor names ending in Name.
	Path   string  `json:"path"`
	StartS float64 `json:"start_s"` // offset from registry start, seconds
	DurS   float64 `json:"dur_s"`   // wall-clock duration, seconds

	// Distributed-tracing identity. TraceID is shared by every span of one
	// logical operation across processes; ParentSpanID links to the parent
	// span, which may live in another process (then Parent is 0: the span
	// is a local root with a remote parent).
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Attrs are small key=value annotations (worker ID, attempt number,
	// request endpoint, outcome) attached via SetAttr.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is an in-flight traced operation. A nil *Span is a valid no-op
// handle (telemetry disabled), so callers never branch around tracing.
type Span struct {
	r         *Registry
	id        int64
	parent    int64
	name      string
	path      string
	start     time.Time
	sc        SpanContext
	parentSID SpanID

	mu    sync.Mutex // guards attrs and done
	attrs map[string]string
	done  bool
}

type spanCtxKey struct{}

// Start begins a span named name as a child of the span carried by ctx (a
// root span when ctx carries none) and returns a derived context carrying
// the new span. A remote parent installed by ContextWithRemote (an inbound
// traceparent header) makes the span a local root that joins the remote
// trace. When telemetry is disabled it returns (ctx, nil) — the nil span's
// End is a no-op — so tracing costs one pointer load when off.
//
// Spans record wall-clock durations for the process's own execution; they
// are observation-only and never influence simulation results. Trace and
// span IDs come from a dedicated process-local generator, never from a
// seeded simulation RNG stream.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	r := Active()
	if r == nil {
		return ctx, nil
	}
	return StartIn(r, ctx, name)
}

// StartIn is Start against an explicit registry, for tests and for callers
// that manage registry lifetime themselves.
func StartIn(r *Registry, ctx context.Context, name string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	var parentID int64
	path := name
	sc := SpanContext{Span: NewSpanID()}
	var parentSID SpanID
	if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok && parent != nil && parent.r == r {
		parentID = parent.id
		path = parent.path + "/" + name
		sc.Trace = parent.sc.Trace
		parentSID = parent.sc.Span
	} else if remote, ok := ctx.Value(remoteCtxKey{}).(SpanContext); ok && remote.Valid() {
		sc.Trace = remote.Trace
		parentSID = remote.Span
	}
	if sc.Trace.IsZero() {
		sc.Trace = NewTraceID()
	}
	r.mu.Lock()
	r.spanSeq++
	id := r.spanSeq
	r.mu.Unlock()
	sp := &Span{r: r, id: id, parent: parentID, name: name, path: path, start: time.Now(),
		sc: sc, parentSID: parentSID}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// SetAttr attaches a key=value annotation to the span, visible on its
// record after End. No-op on a nil handle or after End. Safe for concurrent
// use, though attrs are normally set by the goroutine owning the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		if s.attrs == nil {
			s.attrs = map[string]string{}
		}
		s.attrs[key] = value
	}
	s.mu.Unlock()
}

// SpanContext returns the span's cross-process identity for propagation
// (e.g. as a traceparent header). ok is false on a nil handle.
func (s *Span) SpanContext() (SpanContext, bool) {
	if s == nil {
		return SpanContext{}, false
	}
	return s.sc, true
}

// ParentSpanContext returns the identity of the span's parent, local or
// remote. ok is false on a nil handle or a root span.
func (s *Span) ParentSpanContext() (SpanContext, bool) {
	if s == nil || s.parentSID.IsZero() {
		return SpanContext{}, false
	}
	return SpanContext{Trace: s.sc.Trace, Span: s.parentSID}, true
}

// End completes the span and records it in its registry. No-op on a nil
// handle; extra calls after the first are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	attrs := s.attrs
	s.mu.Unlock()
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Path:    s.path,
		StartS:  s.start.Sub(s.r.start).Seconds(),
		DurS:    now.Sub(s.start).Seconds(),
		TraceID: s.sc.Trace.String(),
		SpanID:  s.sc.Span.String(),
		Attrs:   attrs,
	}
	if !s.parentSID.IsZero() {
		rec.ParentSpanID = s.parentSID.String()
	}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	s.r.mu.Unlock()
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
