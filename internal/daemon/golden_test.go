package daemon

import (
	"bytes"
	"crypto/sha256"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/golden/checkpoint.gob was written once by goldenCheckpoint, in a
// fresh process, and is never regenerated: it pins the checkpoint format.
// Loading it proves an old state directory still resumes; rewriting it in
// a fresh process and comparing hashes proves new checkpoints are the same
// bytes, gob type ids included.

// goldenDirEnv, when set, makes the golden bytes test write its artifact
// into the named directory instead of comparing it (the child-process half
// of the test).
const goldenDirEnv = "DRAGONVAR_GOLDEN_DIR"

var goldenCheckpointPath = filepath.Join("testdata", "golden", "checkpoint.gob")

const goldenDigest = "golden-config-digest"

// goldenProgress is the record sequence of the golden checkpoint; the last
// one is what a resume sees.
func goldenProgress() []progress {
	return []progress{
		{Epoch: 1, RunsBefore: 0, Sealed: 2},
		{
			Epoch: 2, RunsBefore: 11, Sealed: 4,
			Retrains: 1, DriftRetrains: 1, LastRetrainSeal: 4, DriftPending: false,
			TrainMAPE: 3.25, LiveMAPEs: []float64{2.5, 4.75},
			RefForecast: "aa11", RefDeviation: "bb22", RefAdvisor: "cc33",
			Published: []publication{{
				Retrain: 1, Seal: 4, Reason: "drift", TrainMAPE: 3.25, Windows: 40,
				Forecast: "aa11", Deviation: "bb22", Advisor: "cc33",
			}},
		},
	}
}

func goldenCheckpoint(t *testing.T, path string) {
	t.Helper()
	ck, _, err := openCheckpoint(path, goldenDigest)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range goldenProgress() {
		if err := ck.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenCheckpointLoads(t *testing.T) {
	raw, err := os.ReadFile(goldenCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.gob")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, p, err := openCheckpoint(path, goldenDigest)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	seq := goldenProgress()
	if want := seq[len(seq)-1]; !reflect.DeepEqual(p, want) {
		t.Fatalf("golden checkpoint resumes at %+v, want %+v", p, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, raw) {
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
	// the state every real daemon starts in.
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
