package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dragonvar/internal/monitor"
	"dragonvar/internal/traceio"
)

// shortHash is the first eight bytes of b's SHA-256, in hex.
func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// heatmapHash hashes a heatmap's row labels and the float bits of its bin
// starts and cells (NaN cells included, by their bits).
func heatmapHash(rows []string, xs []float64, vals [][]float64) string {
	var b []byte
	for _, r := range rows {
		b = append(b, r...)
		b = append(b, 0)
	}
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	for _, row := range vals {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return shortHash(b)
}

// TestAnalyzeBytesPinned pins what the monitor makes of the faulted
// recording TestInjectedDropoutSurfaces checks: the events JSONL and the
// report `dfldms analyze` writes, and the float bits of the heatmap of a
// Replay of the same log. Recorded once; never regenerate them to make a
// change pass.
func TestAnalyzeBytesPinned(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "ldms.bin")
	if _, stderr, err := runCLI("record", "-small", "-days", "1", "-hours", "2", "-interval", "60",
		"-faults", "dropout@40000-41000,link:3@42000-44000", "-out", log); err != nil {
		t.Fatalf("record: %v\n%s", err, stderr)
	}
	events := filepath.Join(dir, "events.jsonl")
	report, stderr, err := runCLI("analyze", "-in", log, "-events", events)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, stderr)
	}
	blob, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}

	fh, err := os.Open(log)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	rd, err := traceio.NewReader(fh)
	if err != nil {
		t.Fatal(err)
	}
	routers := rd.NumSeries() / 4
	m, err := monitor.New(monitor.Config{NumRouters: routers, RoutersPerGroup: inferGroupSize(routers)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.Replay(rd, m); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ what, got, want string }{
		{"events", shortHash(blob), "7506a736bd721055"},
		{"report", shortHash([]byte(report)), "437df8f6f32d4a33"},
		{"heatmap", heatmapHash(m.HeatmapData()), "0f94dbbf7fae8a61"},
	} {
		if c.got != c.want {
			t.Errorf("%s hash = %s, want %s", c.what, c.got, c.want)
		}
	}
}
