package cli

import (
	"flag"
	"fmt"
	"io"

	"dragonvar/internal/telemetry"
)

// Telemetry holds the three observation flags every binary takes. None of
// them changes a binary's output bytes.
type Telemetry struct {
	Snapshot string // -telemetry: metrics + span snapshot JSON, written on exit
	Trace    string // -trace: span stream JSONL (+ Chrome trace events), written on exit
	Pprof    string // -pprof: listen address for net/http/pprof, /telemetry and /metrics
}

// Register defines -telemetry, -trace and -pprof on fs.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Snapshot, "telemetry", "",
		"write a telemetry snapshot (metrics + span trace, docs/OBSERVABILITY.md) to this JSON file on exit")
	fs.StringVar(&t.Trace, "trace", "",
		`write the span stream to this JSONL file on exit (plus a Chrome trace-event view at FILE`+
			telemetry.TraceEventsSuffix+`); stitch files from several processes with "dfvar trace"`)
	fs.StringVar(&t.Pprof, "pprof", "",
		"serve net/http/pprof and a live /telemetry + /metrics endpoint on this address (e.g. localhost:6060)")
}

// Start installs a fresh process-wide registry stamped with role when any
// of the three flags was given, and binds -pprof; a bind failure is an
// error. Call it before constructing anything instrumented (handles are
// captured at construction) and defer the returned flush, which writes
// the snapshot and span stream on every exit path, SIGINT included, and
// then uninstalls the registry.
func (t Telemetry) Start(role string, stderr io.Writer) (flush func(), err error) {
	return t.start(role, t.Snapshot != "" || t.Trace != "" || t.Pprof != "", stderr)
}

// StartAlways is Start for the daemons, which are instrumented whether or
// not a flag was given: their /metrics endpoints serve the request, cache
// and retrain counters their tests read.
func (t Telemetry) StartAlways(role string, stderr io.Writer) (flush func(), err error) {
	return t.start(role, true, stderr)
}

func (t Telemetry) start(role string, enable bool, stderr io.Writer) (func(), error) {
	prev := telemetry.Active()
	if enable {
		reg := telemetry.New()
		reg.SetRole(role)
		telemetry.Enable(reg)
	}
	restore := func() {
		if enable {
			telemetry.Enable(prev)
		}
	}
	if t.Pprof != "" {
		if err := telemetry.ServePprof(t.Pprof); err != nil {
			restore()
			return nil, err
		}
	}
	return func() {
		if err := telemetry.Flush(t.Snapshot); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", role, err)
		}
		if err := telemetry.FlushTrace(t.Trace); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", role, err)
		}
		restore()
	}, nil
}
