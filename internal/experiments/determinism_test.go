package experiments

import (
	"context"
	"testing"
)

// TestArtifactsIdenticalAcrossWorkerCounts renders the scatter figure and
// the ML-heavy deviation figure at several worker counts and demands the
// text match byte-for-byte: the worker knob must change wall-clock time
// only, never an artifact.
func TestArtifactsIdenticalAcrossWorkerCounts(t *testing.T) {
	base := testSuite(t)
	names := []string{"fig1", "fig9"}

	serial := *base
	serial.Workers = 1
	want := make(map[string]string)
	for _, name := range names {
		out, err := serial.Render(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = out
	}

	for _, workers := range []int{2, 4} {
		s := *base
		s.Workers = workers
		for _, name := range names {
			out, err := s.Render(name)
			if err != nil {
				t.Fatal(err)
			}
			if out != want[name] {
				t.Fatalf("workers=%d: %s differs from serial rendering", workers, name)
			}
		}
	}
}

// TestAllMatchesSerialRender checks the concurrent suite runner: All must
// return the same artifacts, in input order, as rendering one at a time.
// Figures 2 and 12 read the shared cluster (Figure 12 re-simulates on it),
// so under -race this also checks that they render concurrently.
func TestAllMatchesSerialRender(t *testing.T) {
	s := *testSuite(t)
	s.Workers = 4
	names := []string{"table1", "fig1", "fig2", "fig3", "table3", "fig12"}

	outs, err := s.All(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(names) {
		t.Fatalf("All returned %d artifacts, want %d", len(outs), len(names))
	}
	for i, name := range names {
		want, err := s.Render(name)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i] != want {
			t.Fatalf("All()[%d] (%s) differs from serial Render", i, name)
		}
	}
}

func TestAllRejectsUnknownArtifact(t *testing.T) {
	s := *testSuite(t)
	if _, err := s.All(context.Background(), []string{"table1", "figNaN"}); err == nil {
		t.Fatal("unknown artifact should error")
	}
}
