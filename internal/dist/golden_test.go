package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"dragonvar/internal/cluster"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
)

// testdata/golden/checkpoint.ckpt was written once by goldenCheckpoint, in
// a fresh process, and is never regenerated: it pins the checkpoint
// format. Loading it proves old checkpoints still resume; rewriting it in a
// fresh process and comparing hashes proves new ones are the same bytes.

// goldenDirEnv, when set, makes the golden bytes test write its artifact
// into the named directory instead of comparing it (the child-process half
// of the test).
const goldenDirEnv = "DRAGONVAR_GOLDEN_DIR"

var goldenCheckpointPath = filepath.Join("testdata", "golden", "checkpoint.ckpt")

const (
	goldenDigest   = "golden-plan-digest"
	goldenNumUnits = 4
)

// goldenRun is a small fixed run with every observation kind populated.
func goldenRun() *dataset.Run {
	r := &dataset.Run{Dataset: "MILC-128", RunID: 7, Start: 4321.5, Day: 0,
		NumRouters: 12, NumGroups: 3,
		Neighbors: []dataset.NeighborJob{{User: "u1", MaxNodes: 64}}}
	for s := 0; s < 3; s++ {
		r.StepTimes = append(r.StepTimes, 10.25+float64(s))
		r.Compute = append(r.Compute, 4)
		var c [counters.NumJob]float64
		c[0], c[1] = float64(100*(s+1)), 0.5
		r.Counters = append(r.Counters, c)
		r.IO = append(r.IO, [counters.NumLDMS]float64{float64(s), 1, 0, 0})
		r.Sys = append(r.Sys, [counters.NumLDMS]float64{0, 2, float64(s), 0})
	}
	return r
}

// goldenOutcomes is the journal content: round → unit → outcome.
func goldenOutcomes() map[int]map[int]cluster.UnitOutcome {
	return map[int]map[int]cluster.UnitOutcome{
		0: {1: {Drained: true, DrainAt: 12.5}, 2: {Run: goldenRun()}},
		1: {0: {Drained: true, DrainAt: 99}},
	}
}

func goldenCheckpoint(t *testing.T, path string) {
	t.Helper()
	cp, _, err := openCheckpoint(path, goldenDigest, goldenNumUnits)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct{ round, unit int }{{0, 1}, {0, 2}, {1, 0}} {
		if err := cp.append(a.round, a.unit, goldenOutcomes()[a.round][a.unit]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.close(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenCheckpointLoads(t *testing.T) {
	raw, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, replay, err := openCheckpoint(path, goldenDigest, goldenNumUnits)
	if err != nil {
		t.Fatal(err)
	}
	cp.close()
	if !reflect.DeepEqual(replay, goldenOutcomes()) {
		t.Fatalf("golden checkpoint replays %+v, want %+v", replay, goldenOutcomes())
	}
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, raw) {
		t.Fatal("opening an intact golden checkpoint changed its bytes")
	}
}

func TestGoldenCheckpointBytes(t *testing.T) {
	if dir := os.Getenv(goldenDirEnv); dir != "" {
		goldenCheckpoint(t, filepath.Join(dir, filepath.Base(goldenCheckpointPath)))
		return
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh process encodes with no gob activity beyond package init —
	// the state every real coordinator starts in.
	cmd := exec.Command(exe, "-test.run", "^TestGoldenCheckpointBytes$")
	cmd.Env = append(os.Environ(), goldenDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	want, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, filepath.Base(goldenCheckpointPath)))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := sha256.Sum256(got), sha256.Sum256(want); g != w {
		t.Fatalf("rewritten checkpoint differs from the golden file (sha256 %x, want %x)", g, w)
	}
}

// TestGoldenCheckpointBytesAfterGobWork writes the golden checkpoint in this
// process after gob has assigned a type id to an unrelated type: the
// checkpoint's own type ids are pinned at init, so the bytes must still be
// the golden file's.
func TestGoldenCheckpointBytesAfterGobWork(t *testing.T) {
	type unrelated struct{ A, B int }
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{1, 2}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), filepath.Base(goldenCheckpointPath))
	goldenCheckpoint(t, path)
	want, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint written after unrelated gob work differs from the golden file (%d bytes, want %d)", len(got), len(want))
	}
}
