package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Trace export. The -trace FILE flag on every CLI writes two artifacts from
// one snapshot: FILE, a JSONL span stream (one process line followed by one
// line per completed span, timestamps as absolute unix nanoseconds so files
// from different processes on one host align on a shared clock), and
// FILE.chrome.json, the same spans in Chrome trace-event format, loadable
// directly in chrome://tracing or Perfetto. The JSONL stream is what `dfvar
// trace` stitches; the Chrome file is for eyeballs.

// TraceEventsSuffix is appended to the -trace path for the Chrome
// trace-event rendering of the same spans.
const TraceEventsSuffix = ".chrome.json"

// traceLine is one line of the JSONL span stream. Type is "process" for
// the header line and "span" for every following line.
type traceLine struct {
	Type string `json:"type"`

	// process line
	PID         int    `json:"pid,omitempty"`
	Hostname    string `json:"hostname,omitempty"`
	Role        string `json:"role,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns,omitempty"`

	// span lines
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Name         string            `json:"name,omitempty"`
	Path         string            `json:"path,omitempty"`
	DurNs        int64             `json:"dur_ns,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

// traceFile converts the snapshot's spans to the parsed form of a trace
// file, with absolute unix-nanosecond timestamps, so the JSONL stream and
// every rendering share one conversion. Remote parent IDs are kept.
func (s *Snapshot) traceFile() *TraceFile {
	base := s.Process.StartedAt.UnixNano()
	tf := &TraceFile{Proc: s.Process, Spans: make([]StitchSpan, len(s.Spans))}
	for i, sp := range s.Spans {
		tf.Spans[i] = StitchSpan{
			TraceID:      sp.TraceID,
			SpanID:       sp.SpanID,
			ParentSpanID: sp.ParentSpanID,
			Name:         sp.Name,
			Path:         sp.Path,
			StartNs:      base + int64(sp.StartS*1e9),
			DurNs:        int64(sp.DurS * 1e9),
			Attrs:        sp.Attrs,
		}
	}
	return tf
}

// localStitch is the one-process view of the snapshot behind the stderr
// flame and the Chrome trace file: a span whose parent is not in this
// snapshot (a remote parent in another process, or a local one still
// open) renders as a root rather than as an orphan.
func (s *Snapshot) localStitch() *Stitch {
	tf := s.traceFile()
	ids := make(map[string]bool, len(tf.Spans))
	for _, sp := range tf.Spans {
		ids[sp.SpanID] = true
	}
	for i := range tf.Spans {
		if !ids[tf.Spans[i].ParentSpanID] {
			tf.Spans[i].ParentSpanID = ""
		}
	}
	return StitchTraces([]*TraceFile{tf})
}

// WriteSpanJSONL writes the snapshot's spans as a JSONL stream: first a
// process-identity line, then one line per span in start order.
func (s *Snapshot) WriteSpanJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	tf := s.traceFile()
	head := traceLine{
		Type:        "process",
		PID:         tf.Proc.PID,
		Hostname:    tf.Proc.Hostname,
		Role:        tf.Proc.Role,
		StartedAt:   tf.Proc.StartedAt.Format(time.RFC3339Nano),
		StartUnixNs: tf.Proc.StartedAt.UnixNano(),
	}
	if err := enc.Encode(head); err != nil {
		return err
	}
	for _, sp := range tf.Spans {
		line := traceLine{
			Type:         "span",
			TraceID:      sp.TraceID,
			SpanID:       sp.SpanID,
			ParentSpanID: sp.ParentSpanID,
			Name:         sp.Name,
			Path:         sp.Path,
			StartUnixNs:  sp.StartNs,
			DurNs:        sp.DurNs,
			Attrs:        sp.Attrs,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// traceEvent is one Chrome trace-event. Complete ("X") events carry ts+dur
// in microseconds; metadata ("M") events name the process.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceEventFile is the Chrome trace-event JSON object format.
type traceEventFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// writeFileWith creates path and runs fn over it, closing carefully.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// FlushTrace snapshots the active registry and writes its span stream to
// path (JSONL) and path+TraceEventsSuffix (Chrome trace events). Like
// Flush it is a no-op when telemetry is disabled or path is empty, so CLIs
// call it unconditionally on exit.
func FlushTrace(path string) error {
	r := Active()
	if r == nil || path == "" {
		return nil
	}
	snap := r.Snapshot()
	if err := writeFileWith(path, snap.WriteSpanJSONL); err != nil {
		return err
	}
	if err := writeFileWith(path+TraceEventsSuffix, snap.localStitch().MergedTraceEvents); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s (+%s)\n",
		len(snap.Spans), path, TraceEventsSuffix)
	return nil
}
