package dataset

import (
	"crypto/sha256"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// The golden stream under testdata/golden/stream was written once by
// goldenStream below, in a fresh process, and is never regenerated: it
// pins the WAL and segment formats. Loading it proves old stream
// directories still open; rewriting it in a fresh process and comparing
// hashes proves new ones are the same bytes, gob type ids included.

// goldenDirEnv, when set, makes the golden bytes test write its artifacts
// into the named directory instead of comparing them (the child-process
// half of the test).
const goldenDirEnv = "DRAGONVAR_GOLDEN_DIR"

var goldenStreamDir = filepath.Join("testdata", "golden", "stream")

// goldenStream writes the fixed stream: window of two runs, three runs
// appended, so one sealed segment plus a WAL holding the open run.
func goldenStream(t *testing.T, dir string) {
	t.Helper()
	w, err := OpenStream(dir, streamMetaForTest(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runSeq(3) {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenStreamLoads(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, goldenStreamDir, dir)
	w, err := OpenStream(dir, streamMetaForTest(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.TotalRuns() != 3 || w.SealedSegments() != 1 || w.OpenRuns() != 1 {
		t.Fatalf("golden stream: total %d sealed %d open %d, want 3/1/1",
			w.TotalRuns(), w.SealedSegments(), w.OpenRuns())
	}
	seg, err := w.Segment(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seg.Runs, runSeq(3)[:2]) {
		t.Fatal("golden segment 0 decodes to different runs")
	}
	camp, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if camp.TotalRuns() != 3 {
		t.Fatalf("golden stream assembles %d runs, want 3", camp.TotalRuns())
	}
}

func TestGoldenStreamBytes(t *testing.T) {
	if dir := os.Getenv(goldenDirEnv); dir != "" {
		goldenStream(t, dir)
		return
	}
	got := t.TempDir()
	writeInChild(t, "TestGoldenStreamBytes", got)
	sameTreeHashes(t, goldenStreamDir, got)
}

// writeInChild reruns the named test in a fresh process of this test
// binary with goldenDirEnv set, so the artifacts are encoded with no gob
// activity beyond package init — the state every real process starts in.
func writeInChild(t *testing.T, test, dir string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^"+test+"$")
	cmd.Env = append(os.Environ(), goldenDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
}

// treeHashes maps every regular file under root to its SHA-256.
func treeHashes(t *testing.T, root string) map[string][32]byte {
	t.Helper()
	sums := map[string][32]byte{}
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
		sums[filepath.ToSlash(rel)] = sha256.Sum256(raw)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

func sameTreeHashes(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	want, got := treeHashes(t, wantDir), treeHashes(t, gotDir)
	if len(want) == 0 {
		t.Fatalf("no golden files under %s", wantDir)
	}
	for rel, w := range want {
		if g, ok := got[rel]; !ok {
			t.Errorf("%s: not rewritten", rel)
		} else if g != w {
			t.Errorf("%s: rewritten bytes differ from the golden file (sha256 %x, want %x)", rel, g, w)
		}
	}
	for rel := range got {
		if _, ok := want[rel]; !ok {
			t.Errorf("%s: rewritten but not in the golden set", rel)
		}
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
