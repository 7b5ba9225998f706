package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"dragonvar/internal/telemetry"
)

// TestExitCode pins the one exit-code convention every binary shares.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"ok", nil, ExitOK},
		{"help", flag.ErrHelp, ExitOK},
		{"wrapped help", fmt.Errorf("campaign: %w", flag.ErrHelp), ExitOK},
		{"usage", Usagef("unknown command %q", "x"), ExitUsage},
		{"parse", Parse(NewFlagSet("t", &bytes.Buffer{}), []string{"-nope"}), ExitUsage},
		{"canceled", context.Canceled, ExitInterrupted},
		{"wrapped canceled", fmt.Errorf("campaign: %w", context.Canceled), ExitInterrupted},
		{"other", errors.New("disk full"), ExitFailure},
		{"deadline", context.DeadlineExceeded, ExitFailure},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("%s: ExitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

func TestParseHelp(t *testing.T) {
	var out bytes.Buffer
	fs := NewFlagSet("t", &out)
	fs.Int("n", 0, "a number")
	if err := Parse(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("Parse(-h) = %v, want flag.ErrHelp", err)
	}
	if !bytes.Contains(out.Bytes(), []byte("a number")) {
		t.Fatalf("help went elsewhere; flag set output: %q", out.String())
	}
}

// TestTelemetryOffByDefault: without any of the three flags Start leaves
// the process uninstrumented, and flush is a harmless no-op.
func TestTelemetryOffByDefault(t *testing.T) {
	defer telemetry.Disable()
	telemetry.Disable()
	flush, err := Telemetry{}.Start("t", os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.Enabled() {
		t.Fatal("Start without flags installed a registry")
	}
	flush()
}

// TestTelemetryFlushWritesAndRestores: with -telemetry the registry is
// stamped with the role, the snapshot lands on flush, and the registry
// active before Start is back afterwards.
func TestTelemetryFlushWritesAndRestores(t *testing.T) {
	defer telemetry.Disable()
	outer := telemetry.New()
	telemetry.Enable(outer)

	path := filepath.Join(t.TempDir(), "snap.json")
	flush, err := Telemetry{Snapshot: path}.Start("coordinator", os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.Active()
	if reg == outer || reg.Process().Role != "coordinator" {
		t.Fatalf("Start did not install a fresh registry with the role: %+v", reg.Process())
	}
	telemetry.C("cli/test_total").Inc()
	flush()
	if telemetry.Active() != outer {
		t.Fatal("flush did not restore the previous registry")
	}
	snap, err := telemetry.ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["cli/test_total"] != 1 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}
}

// TestStartAlwaysInstruments: the daemons' variant installs a registry
// with no flag given.
func TestStartAlwaysInstruments(t *testing.T) {
	defer telemetry.Disable()
	telemetry.Disable()
	flush, err := Telemetry{}.StartAlways("dfserved", os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !telemetry.Enabled() {
		t.Fatal("StartAlways left telemetry off")
	}
	flush()
	if telemetry.Enabled() {
		t.Fatal("flush left the registry installed")
	}
}

// TestPprofBindFailureIsAnError: an address already in use fails Start
// and leaves no registry behind.
func TestPprofBindFailureIsAnError(t *testing.T) {
	defer telemetry.Disable()
	telemetry.Disable()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := (Telemetry{Pprof: ln.Addr().String()}).StartAlways("dfvard", os.Stderr); err == nil {
		t.Fatal("Start bound -pprof on an address already in use")
	}
	if telemetry.Enabled() {
		t.Fatal("failed Start left its registry installed")
	}
}
