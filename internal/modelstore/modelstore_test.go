package modelstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragonvar/internal/gbr"
	"dragonvar/internal/linalg"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
)

func trainTinyForecaster(t *testing.T) (*nn.Forecaster, []nn.Sample) {
	t.Helper()
	s := rng.New(3)
	samples := make([]nn.Sample, 60)
	for i := range samples {
		steps := make([][]float64, 5)
		for st := range steps {
			row := make([]float64, 3)
			for j := range row {
				row[j] = s.Float64() * 4
			}
			steps[st] = row
		}
		samples[i] = nn.Sample{Steps: steps, Target: 10 + steps[4][0]*2}
	}
	return nn.Train(samples, nn.Config{Epochs: 3}, s), samples
}

func trainTinyGBR(t *testing.T) (*gbr.Model, *linalg.Matrix) {
	t.Helper()
	s := rng.New(4)
	x := linalg.NewMatrix(200, 3)
	y := make([]float64, 200)
	for i := 0; i < 200; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, s.Float64())
		}
		y[i] = 3*x.At(i, 0) + x.At(i, 1)
	}
	return gbr.Fit(x, y, nil, nil, gbr.Options{NumTrees: 10}, s), x
}

func TestForecasterRoundTripThroughStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, samples := trainTinyForecaster(t)
	meta := Meta{Dataset: "AMG-128", Seed: 42, Spec: "m=5 k=2 app", M: 5, K: 2,
		FeatureNames: []string{"a", "b", "c"}}
	id, err := st.Put("forecast/AMG-128/m5k2/app", meta, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(id) != 64 {
		t.Fatalf("id %q is not a sha256 hex digest", id)
	}
	back, gotMeta, gotID, err := st.GetForecaster("forecast/AMG-128/m5k2/app")
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("GetForecaster resolved id %.12s, Put stored %.12s", gotID, id)
	}
	if gotMeta.Kind != KindForecaster || gotMeta.Dataset != "AMG-128" || gotMeta.M != 5 {
		t.Fatalf("meta did not round trip: %+v", gotMeta)
	}
	want, got := f.PredictAll(samples), back.PredictAll(samples)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: stored model predicts %v, in-memory %v", i, got[i], want[i])
		}
	}
}

// TestPutIsDeterministic: same model + same meta → same content id, the
// content-addressing extension of the determinism contract.
func TestPutIsDeterministic(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, _ := trainTinyForecaster(t)
	meta := Meta{Dataset: "AMG-128", Seed: 42, M: 5, K: 2}
	id1, err := st.Put("a", meta, f)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := st.Put("b", meta, f)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("same artifact stored under two names got two ids: %s != %s", id1[:12], id2[:12])
	}
}

func TestGBRRoundTripThroughStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, x := trainTinyGBR(t)
	if _, err := st.Put("deviation/AMG-128", Meta{Dataset: "AMG-128", Seed: 42,
		FeatureNames: []string{"f0", "f1", "f2"}}, m); err != nil {
		t.Fatal(err)
	}
	back, _, _, err := st.GetGBR("deviation/AMG-128")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		if back.Predict(x.Row(i)) != m.Predict(x.Row(i)) {
			t.Fatalf("row %d: stored model diverges", i)
		}
	}
}

func TestKindMismatchRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := trainTinyGBR(t)
	if _, err := st.Put("thing", Meta{Seed: 1}, m); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.GetForecaster("thing"); err == nil ||
		!strings.Contains(err.Error(), "gbr artifact") {
		t.Fatalf("loading a gbr ref as forecaster: err = %v, want kind mismatch", err)
	}
}

// TestKindFollowsModelType: the stored kind comes from the model's type.
// A caller-set Meta.Kind cannot label a forecaster as a GBR ensemble, and
// a type no Get can decode is refused before anything is written.
func TestKindFollowsModelType(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := trainTinyForecaster(t)
	if _, err := st.Put("thing", Meta{Kind: KindGBR, M: 5, K: 2}, f); err != nil {
		t.Fatal(err)
	}
	if _, meta, _, err := st.GetForecaster("thing"); err != nil || meta.Kind != KindForecaster {
		t.Fatalf("forecaster put with Kind %q: GetForecaster kind %q, err %v", KindGBR, meta.Kind, err)
	}
	if _, _, _, err := st.GetGBR("thing"); err == nil || !strings.Contains(err.Error(), "forecaster artifact") {
		t.Fatalf("loading a forecaster ref as gbr: err = %v, want kind mismatch", err)
	}
	for _, model := range []any{"weights", []float64{1, 2}, f.PredictAll} {
		if _, err := st.Put("other", Meta{Kind: KindGBR}, model); err == nil {
			t.Errorf("Put accepted a %T", model)
		}
		if _, err := st.PutCAS("other", Meta{Kind: KindAdvisor}, model, ""); err == nil {
			t.Errorf("PutCAS accepted a %T", model)
		}
	}
	if st.Has("other") {
		t.Fatal("a rejected put left a ref behind")
	}
	objs, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.gob"))
	if err != nil || len(objs) != 1 {
		t.Fatalf("objects after rejected puts: %v (%v), want only the forecaster", objs, err)
	}
}

func TestCorruptObjectDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := trainTinyGBR(t)
	id, err := st.Put("thing", Meta{Seed: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	// flip one byte of the stored object
	path := filepath.Join(dir, "objects", id[:2], id+".gob")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = st.GetGBR("thing")
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("corrupt object load: err = %v, want hash mismatch", err)
	}
	var cerr *CorruptObjectError
	if !errors.As(err, &cerr) {
		t.Fatalf("corrupt object load: err = %T, want *CorruptObjectError", err)
	}
	if cerr.ID != id || !cerr.Quarantined {
		t.Fatalf("CorruptObjectError = %+v, want ID %.12s… and Quarantined", cerr, id)
	}
	// the damaged file must be moved aside, not left on the content address
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt object still at its content address: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantined .corrupt file missing: %v", err)
	}
	// with the address free again, re-putting the artifact heals the store
	if _, err := st.Put("thing", Meta{Seed: 1}, m); err != nil {
		t.Fatalf("re-put after quarantine: %v", err)
	}
	if _, _, _, err := st.GetGBR("thing"); err != nil {
		t.Fatalf("load after heal: %v", err)
	}
}

func TestInvalidRefNamesRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := trainTinyGBR(t)
	for _, name := range []string{"", "..", "a/../b", "a//b", "a b", "/abs"} {
		if _, err := st.Put(name, Meta{Seed: 1}, m); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

// escapeID is a 64-character ref id that objectPath would resolve to
// <store>/../victim.gob: "xx/", 43 slashes, then four parent steps.
var escapeID = "xx/" + strings.Repeat("/", 43) + "../../../../victim"

// TestRefIDEscapeRefused: a ref whose id is not a content id is refused
// before any object path is built, so loading it can neither read nor
// quarantine a file outside the store.
func TestRefIDEscapeRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "victim.gob")
	want := []byte("not a model, and not the store's")
	if err := os.WriteFile(victim, want, 0o644); err != nil {
		t.Fatal(err)
	}
	rj, err := encodeRef(ref{ID: escapeID})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Root(), "refs", "escape"), rj, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Resolve("escape"); err == nil || !strings.Contains(err.Error(), "malformed id") {
		t.Fatalf("Resolve = %v, want a malformed id error", err)
	}
	if _, _, _, err := st.GetForecaster("escape"); err == nil {
		t.Fatal("GetForecaster loaded a ref whose id escapes the store")
	}
	if got, err := os.ReadFile(victim); err != nil || string(got) != string(want) {
		t.Fatalf("file beside the store after the load: %q, %v; want it untouched", got, err)
	}
	if _, err := os.Stat(victim + ".corrupt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file beside the store was quarantined: stat .corrupt = %v", err)
	}
}

func TestListAndRepoint(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := trainTinyGBR(t)
	if _, err := st.Put("deviation/AMG-128", Meta{Seed: 1}, m); err != nil {
		t.Fatal(err)
	}
	id2, err := st.Put("deviation/AMG-128", Meta{Seed: 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries after repoint, want 1", len(entries))
	}
	if entries[0].ID != id2 || entries[0].Meta.Seed != 2 {
		t.Fatalf("ref did not repoint: %+v", entries[0])
	}
	if !st.Has("deviation/AMG-128") || st.Has("deviation/missing") {
		t.Fatal("Has is wrong")
	}
}
