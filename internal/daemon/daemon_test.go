package daemon

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"dragonvar/internal/modelstore"
	"dragonvar/internal/topology"
)

// testConfig is the smallest daemon that still seals windows and
// retrains: two short epochs on the small machine with fast training.
func testConfig(t *testing.T, stateDir string, store *modelstore.Store) Config {
	t.Helper()
	return Config{
		StateDir:     stateDir,
		Store:        store,
		Seed:         7,
		Machine:      topology.Small(),
		EpochDays:    3,
		WindowRuns:   4,
		RetrainEvery: 2,
		DriftFactor:  -1, // keep the unit test to the schedule path
		Fast:         true,
		MaxEpochs:    2,
		Logf:         t.Logf,
	}
}

func openStore(t *testing.T) (*modelstore.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// dirBytes snapshots every regular file under root, keyed by relative
// path — the byte-identity comparison unit.
func dirBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel] = raw
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func sameFiles(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for rel, w := range want {
		g, ok := got[rel]
		if !ok {
			t.Errorf("%s: %s missing from resumed run", label, rel)
			continue
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: %s differs (%d vs %d bytes)", label, rel, len(w), len(g))
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("%s: resumed run has extra file %s", label, rel)
		}
	}
}

func runToCompletion(t *testing.T, cfg Config) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestKillResumeByteIdentity is the daemon's core contract: a daemon
// killed mid-window (and with its checkpoint tail torn, as a SIGKILL
// mid-append would leave it) resumes to the byte-identical stream,
// publish log, and model refs of a daemon that was never interrupted.
func TestKillResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full campaigns")
	}

	// Reference: uninterrupted run.
	refStore, _ := openStore(t)
	refState := filepath.Join(t.TempDir(), "state")
	runToCompletion(t, testConfig(t, refState, refStore))

	// Interrupted run: cancel mid-window partway through epoch 1, then
	// tear the checkpoint tail like a kill mid-append would.
	livStore, _ := openStore(t)
	livState := filepath.Join(t.TempDir(), "state")
	ctx, cancel := context.WithCancel(context.Background())
	cfg := testConfig(t, livState, livStore)
	cfg.afterIngest = func(total int64) {
		if total >= 6 {
			cancel()
		}
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Run = %v, want context.Canceled", err)
	}
	if d.stream.TotalRuns() < 6 {
		t.Fatalf("cancel fired before 6 runs ingested (%d)", d.stream.TotalRuns())
	}
	d.Close()

	ckPath := filepath.Join(livState, "checkpoint.gob")
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume is the same call as starting fresh.
	cfg = testConfig(t, livState, livStore)
	runToCompletion(t, cfg)

	// The durable dataset is byte-identical: sealed segments, the WAL
	// (header + open-window runs), and the publish log. checkpoint.gob is
	// deliberately excluded — the resumed file holds extra replayed
	// records by design.
	sameFiles(t, "segments",
		dirBytes(t, filepath.Join(refState, "stream", "segments")),
		dirBytes(t, filepath.Join(livState, "stream", "segments")))
	for _, rel := range []string{filepath.Join("stream", "wal.gob"), "published.json"} {
		w, err := os.ReadFile(filepath.Join(refState, rel))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(livState, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s differs (%d vs %d bytes)", rel, len(w), len(g))
		}
	}

	// The published model chain converged on identical content ids.
	sv := cfg.withDefaults().serving()
	for _, kind := range ServedKinds {
		ref := sv.Ref(kind)
		w, _, err := refStore.Resolve(ref)
		if err != nil {
			t.Fatalf("reference store %s: %v", ref, err)
		}
		g, _, err := livStore.Resolve(ref)
		if err != nil {
			t.Fatalf("resumed store %s: %v", ref, err)
		}
		if w != g {
			t.Errorf("ref %s: reference %s vs resumed %s", ref, w, g)
		}
	}

	// And the checkpointed counters agree.
	rd, err := New(testConfig(t, refState, refStore))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	ld, err := New(testConfig(t, livState, livStore))
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	re, rs, rr, rdr := rd.Progress()
	le, ls, lr, ldr := ld.Progress()
	if re != le || rs != ls || rr != lr || rdr != ldr {
		t.Errorf("progress diverged: ref %d/%d/%d/%d vs resumed %d/%d/%d/%d",
			re, rs, rr, rdr, le, ls, lr, ldr)
	}
	if rr == 0 {
		t.Error("reference run never retrained — the test exercised nothing")
	}
}

// TestDaemonIdentityRefused: a state dir can only be resumed by the
// configuration that created it.
func TestDaemonIdentityRefused(t *testing.T) {
	st, _ := openStore(t)
	state := filepath.Join(t.TempDir(), "state")
	cfg := testConfig(t, state, st)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	other := cfg
	other.RetrainEvery = 3 // different schedule = different history
	if _, err := New(other); err == nil {
		t.Fatal("resume with a different retrain schedule succeeded, want refusal")
	}
}

func TestCheckpointTornTailHealed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.gob")
	ck, p, err := openCheckpoint(path, "digest-a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 0 || p.Sealed != 0 {
		t.Fatalf("fresh checkpoint progress = %+v, want zero", p)
	}
	for i := 1; i <= 3; i++ {
		if err := ck.Append(progress{Epoch: i, Sealed: i * 2}); err != nil {
			t.Fatal(err)
		}
	}
	ck.Close()

	// Tear the tail: the third record is lost, the second survives.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	ck, p, err = openCheckpoint(path, "digest-a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 2 || p.Sealed != 4 {
		t.Fatalf("healed progress = %+v, want epoch 2 sealed 4", p)
	}
	// The heal rewrote a clean file: appends keep working.
	if err := ck.Append(progress{Epoch: 3, Sealed: 6}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	if _, _, err := openCheckpoint(path, "digest-b"); err == nil {
		t.Fatal("checkpoint opened under a different identity digest, want refusal")
	}
}
