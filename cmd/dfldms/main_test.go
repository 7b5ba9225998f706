package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragonvar/internal/cli"
)

func runCLI(args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{nil, cli.ExitUsage},
		{[]string{"-h"}, cli.ExitOK},
		{[]string{"nosuch"}, cli.ExitUsage},
		{[]string{"record", "-h"}, cli.ExitOK},
		{[]string{"record", "-bogus"}, cli.ExitUsage},
		// the recorder schedules no campaign, so it has no workers
		{[]string{"record", "-workers", "2", "-out", filepath.Join(t.TempDir(), "l.bin")}, cli.ExitUsage},
		{[]string{"record", "-small", "-faults", "bogus", "-out", filepath.Join(t.TempDir(), "l.bin")}, cli.ExitUsage},
		{[]string{"summarize", "-bogus"}, cli.ExitUsage},
		{[]string{"analyze", "-bogus"}, cli.ExitUsage},
		// the monitor's thresholds, heatmap bin and group size are fixed,
		// not flags
		{[]string{"analyze", "-hot-z", "3"}, cli.ExitUsage},
		{[]string{"analyze", "-stall-onset", "0.3"}, cli.ExitUsage},
		{[]string{"analyze", "-stall-clear", "0.1"}, cli.ExitUsage},
		{[]string{"analyze", "-bin", "60"}, cli.ExitUsage},
		{[]string{"analyze", "-rpg", "16"}, cli.ExitUsage},
		{[]string{"summarize", "-in", filepath.Join(t.TempDir(), "missing.bin")}, cli.ExitFailure},
	}
	for _, c := range cases {
		_, _, err := runCLI(c.args...)
		if got := cli.ExitCode(err); got != c.want {
			t.Errorf("dfldms %v: exit %d (%v), want %d", c.args, got, err, c.want)
		}
	}
}

// TestInjectedDropoutSurfaces records a faulted counter stream, replays
// it through the streaming monitor and requires the injected sampler
// dropout to surface as a gap event, in the report and in the per-router
// gap attribution.
func TestInjectedDropoutSurfaces(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "ldms.bin")
	// days=1, hours=2 records the window [39600s, 46800s); the dropout and
	// the degraded link sit inside it
	if _, stderr, err := runCLI("record", "-small", "-days", "1", "-hours", "2", "-interval", "60",
		"-faults", "dropout@40000-41000,link:3@42000-44000",
		"-out", log, "-telemetry", filepath.Join(dir, "record-telemetry.json")); err != nil {
		t.Fatalf("record: %v\n%s", err, stderr)
	}

	events := filepath.Join(dir, "events.jsonl")
	report, stderr, err := runCLI("analyze", "-in", log, "-events", events,
		"-heatmap", filepath.Join(dir, "weather.svg"), "-csv", filepath.Join(dir, "weather.csv"))
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, stderr)
	}
	blob, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"type":"sampler_gap"`)) {
		t.Errorf("no sampler_gap event in %s:\n%s", events, blob)
	}
	if !strings.Contains(report, "sampler_gap") {
		t.Errorf("analyze report does not mention sampler_gap:\n%s", report)
	}

	summary, stderr, err := runCLI("summarize", "-in", log)
	if err != nil {
		t.Fatalf("summarize: %v\n%s", err, stderr)
	}
	if !strings.Contains(summary, "per-router gap fraction") {
		t.Errorf("summarize lacks the per-router gap attribution:\n%s", summary)
	}
}
