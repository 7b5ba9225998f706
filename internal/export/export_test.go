package export

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragonvar/internal/core"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
)

func sampleDataset() *dataset.Dataset {
	ds := &dataset.Dataset{Name: "TEST-128", App: "TEST", Nodes: 128}
	for i := 0; i < 3; i++ {
		r := &dataset.Run{Dataset: ds.Name, RunID: i, Day: i, Start: float64(i) * 1000,
			NumRouters: 30, NumGroups: 5}
		for s := 0; s < 4; s++ {
			r.StepTimes = append(r.StepTimes, float64(10+i))
			r.Compute = append(r.Compute, 2)
			r.Counters = append(r.Counters, [counters.NumJob]float64{float64(s)})
			r.IO = append(r.IO, [counters.NumLDMS]float64{1})
			r.Sys = append(r.Sys, [counters.NumLDMS]float64{2})
		}
		ds.Runs = append(ds.Runs, r)
	}
	return ds
}

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRunsCSV(t *testing.T) {
	ds := sampleDataset()
	var b strings.Builder
	if err := Runs(&b, ds); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, b.String())
	// header + 3 runs × 4 steps
	if len(recs) != 1+12 {
		t.Fatalf("rows = %d", len(recs))
	}
	wantCols := 8 + counters.NumJob + 2*counters.NumLDMS
	if len(recs[0]) != wantCols {
		t.Fatalf("columns = %d, want %d", len(recs[0]), wantCols)
	}
	if recs[0][8] != "RT_FLIT_TOT" {
		t.Fatalf("first counter column = %q", recs[0][8])
	}
	// data row sanity: run 0 step 1 has counter value 1
	if recs[2][8] != "1" {
		t.Fatalf("counter cell = %q", recs[2][8])
	}
}

func TestTotalsCSV(t *testing.T) {
	ds := sampleDataset()
	var b strings.Builder
	if err := Totals(&b, ds); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, b.String())
	if len(recs) != 1+3 {
		t.Fatalf("rows = %d", len(recs))
	}
	// best run (run 0, total 40) has relative 1
	if recs[1][4] != "1" {
		t.Fatalf("best relative = %q", recs[1][4])
	}
}

func TestRelevanceCSV(t *testing.T) {
	res := []core.DeviationResult{{
		Dataset:      "X-128",
		FeatureNames: []string{"A", "B"},
		Relevance:    []float64{0.5, 1},
		MAPE:         3.2,
	}}
	var b strings.Builder
	if err := Relevance(&b, res); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, b.String())
	if len(recs) != 3 || recs[1][1] != "A" || recs[2][2] != "1" {
		t.Fatalf("recs = %v", recs)
	}
}

func TestCampaignToDir(t *testing.T) {
	camp := &dataset.Campaign{Datasets: []*dataset.Dataset{sampleDataset()}}
	dir := filepath.Join(t.TempDir(), "csv")
	if err := CampaignToDir(camp, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"TEST-128-steps.csv", "TEST-128-totals.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}

func TestMatrixCSV(t *testing.T) {
	var buf bytes.Buffer
	rows := []string{"g0", "g1"}
	x := []float64{0, 900}
	values := [][]float64{{0.25, math.NaN()}, {0.5, 0.75}}
	if err := Matrix(&buf, "group", rows, x, values); err != nil {
		t.Fatal(err)
	}
	rec, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 3 {
		t.Fatalf("rows = %d, want 3 (header + 2)", len(rec))
	}
	if rec[0][0] != "group" || rec[0][1] != "0" || rec[0][2] != "900" {
		t.Errorf("header = %v", rec[0])
	}
	if rec[1][0] != "g0" || rec[1][1] != "0.25" || rec[1][2] != "" {
		t.Errorf("row g0 = %v (NaN should be empty)", rec[1])
	}
	if rec[2][0] != "g1" || rec[2][1] != "0.5" || rec[2][2] != "0.75" {
		t.Errorf("row g1 = %v", rec[2])
	}
}
