package cli

import (
	"flag"
	"fmt"
	"io"

	"dragonvar/internal/telemetry"
)

// Telemetry holds the two observation flags every binary takes. Neither
// changes a binary's output bytes.
type Telemetry struct {
	Snapshot string // -telemetry: metrics + span snapshot JSON, written on exit
	Pprof    string // -pprof: listen address for net/http/pprof, /telemetry and /metrics
}

// Register defines -telemetry and -pprof on fs.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Snapshot, "telemetry", "",
		`write a telemetry snapshot (metrics + spans, docs/OBSERVABILITY.md) to this JSON file on exit; `+
			`stitch snapshots from several processes with "dfvar trace"`)
	fs.StringVar(&t.Pprof, "pprof", "",
		"serve net/http/pprof and a live /telemetry + /metrics endpoint on this address (e.g. localhost:6060)")
}

// Start installs a fresh process-wide registry stamped with role when
// either flag was given, and binds -pprof; a bind failure is an error.
// Call it before constructing anything instrumented (handles are captured
// at construction) and defer the returned flush, which writes the
// snapshot on every exit path, SIGINT included, and then uninstalls the
// registry.
func (t Telemetry) Start(role string, stderr io.Writer) (flush func(), err error) {
	return t.start(role, t.Snapshot != "" || t.Pprof != "", stderr)
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
		restore()
	}, nil
}
