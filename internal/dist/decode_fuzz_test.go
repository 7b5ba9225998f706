package dist

import "testing"

// FuzzDecodeRun: DecodeRun never panics, and every run it accepts passes
// the per-run shape checks the merged campaign relies on.
func FuzzDecodeRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		run, err := DecodeRun(blob)
		if err != nil {
			return
		}
		n := run.Steps()
		if n == 0 {
			t.Fatal("accepted a run with no steps")
		}
		if len(run.Compute) != n || len(run.Counters) != n || len(run.IO) != n || len(run.Sys) != n {
			t.Fatalf("accepted a run with observation lengths %d/%d/%d/%d for %d steps",
				len(run.Compute), len(run.Counters), len(run.IO), len(run.Sys), n)
		}
		if run.Missing != nil && len(run.Missing) != n {
			t.Fatalf("accepted a run with %d missing markers for %d steps", len(run.Missing), n)
		}
	})
}
