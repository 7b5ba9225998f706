package modelstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"dragonvar/internal/advisor"
	"dragonvar/internal/gbr"
	"dragonvar/internal/tree"
)

// The store under testdata/golden/store was written once by goldenStore, in
// a fresh process, and is never regenerated: it pins the envelope and the
// model wire formats. Loading it proves old stores still serve; rewriting
// it in a fresh process and comparing hashes proves new objects are the
// same bytes — and therefore the same content ids.

// goldenDirEnv, when set, makes the golden bytes test write its artifacts
// into the named directory instead of comparing them (the child-process
// half of the test).
const goldenDirEnv = "DRAGONVAR_GOLDEN_DIR"

var goldenStoreDir = filepath.Join("testdata", "golden", "store")

// gobInto builds a model from fixed field values (no training, so the
// bytes cannot depend on floating-point code generation) by decoding a
// value of a test-local struct with the wire type's field names.
func gobInto(t *testing.T, wire any, model gob.GobDecoder) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if err := model.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func goldenAdvisor(t *testing.T) *advisor.Advisor {
	t.Helper()
	var a advisor.Advisor
	gobInto(t, struct {
		Blamed   []string
		TrainEnd int
	}{[]string{"u3", "u7"}, 40}, &a)
	return &a
}

// goldenGBR is a one-tree ensemble: a single split on feature 1.
func goldenGBR(t *testing.T) *gbr.Model {
	t.Helper()
	var tr tree.Regressor
	gobInto(t, struct {
		Feature    []int32
		Threshold  []float64
		Left       []int32
		Right      []int32
		Value      []float64
		Importance []float64
	}{
		Feature:    []int32{1, -1, -1},
		Threshold:  []float64{0.5, 0, 0},
		Left:       []int32{1, -1, -1},
		Right:      []int32{2, -1, -1},
		Value:      []float64{0, -1.25, 2.5},
		Importance: []float64{0, 1, 0},
	}, &tr)
	var m gbr.Model
	gobInto(t, struct {
		Bias         float64
		LearningRate float64
		Trees        []*tree.Regressor
		Importance   []float64
	}{10, 0.1, []*tree.Regressor{&tr}, []float64{0, 1, 0}}, &m)
	return &m
}

var goldenFeatures = []string{"f0", "f1", "f2"}

func goldenStore(t *testing.T, dir string) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("dev/golden", Meta{Seed: 5, Dataset: "MILC-128", FeatureNames: goldenFeatures}, goldenGBR(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("advisor/golden", Meta{Seed: 5}, goldenAdvisor(t)); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenStoreLoads(t *testing.T) {
	// load a copy: a failed hash check would quarantine the object
	dir := t.TempDir()
	for rel := range storeHashes(t, goldenStoreDir) {
		raw, err := os.ReadFile(filepath.Join(goldenStoreDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, meta, _, err := st.GetGBR("dev/golden")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(meta.FeatureNames, goldenFeatures) || meta.Dataset != "MILC-128" {
		t.Fatalf("golden gbr meta = %+v", meta)
	}
	for _, x := range [][]float64{{0, 0.2, 0}, {0, 0.9, 0}} {
		if got, want := m.Predict(x), goldenGBR(t).Predict(x); got != want {
			t.Fatalf("golden gbr Predict(%v) = %v, want %v", x, got, want)
		}
	}
	a, _, _, err := st.GetAdvisor("advisor/golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Blamed(); !reflect.DeepEqual(got, []string{"u3", "u7"}) {
		t.Fatalf("golden advisor blames %v", got)
	}
}

func TestGoldenStoreBytes(t *testing.T) {
	if dir := os.Getenv(goldenDirEnv); dir != "" {
		goldenStore(t, dir)
		return
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh process encodes with no gob activity beyond package init —
	// the state every real publisher starts in.
	cmd := exec.Command(exe, "-test.run", "^TestGoldenStoreBytes$")
	cmd.Env = append(os.Environ(), goldenDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	want, got := storeHashes(t, goldenStoreDir), storeHashes(t, dir)
	if len(want) == 0 {
		t.Fatalf("no golden files under %s", goldenStoreDir)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rewritten store differs from the golden one:\n got %x\nwant %x", got, want)
	}
}

// storeHashes maps every regular file under root to its SHA-256.
func storeHashes(t *testing.T, root string) map[string][32]byte {
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
