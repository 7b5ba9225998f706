package telemetry

import (
	"io"
	"testing"
)

// FuzzStitchSnapshot decodes two arbitrary files the way `dfvar trace`
// does and stitches the ones it accepts. Nothing may panic, and every
// span must be reached exactly once from the roots and orphans, whatever
// the parent links say.
func FuzzStitchSnapshot(f *testing.F) {
	coord, worker := coordAndWorker()
	f.Add(mustJSON(f, coord.Snapshot()), mustJSON(f, worker.Snapshot()))
	f.Add([]byte(cycleSnapshot), []byte(nil))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var files []*TraceFile
		for _, blob := range [][]byte{a, b} {
			s, err := decodeSnapshot(blob)
			if err != nil {
				continue
			}
			if tf, err := s.stitchInput(); err == nil {
				files = append(files, tf)
			}
		}
		st := StitchTraces(files)
		checkReachedOnce(t, st)
		st.Report()
		st.Summary()
		if err := st.MergedTraceEvents(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
