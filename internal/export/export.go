// Package export writes campaign datasets and experiment results as CSV,
// so the figures can be re-plotted with external tooling (gnuplot,
// matplotlib, R). One file per artifact, headers included.
package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"dragonvar/internal/core"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
)

// Runs writes one row per (run, step): the step time, compute time, all
// counter deltas, placement features, and io/sys features.
func Runs(w io.Writer, ds *dataset.Dataset) error {
	cw := csv.NewWriter(w)
	header := []string{"run_id", "day", "start", "step", "step_time_s", "compute_s", "num_routers", "num_groups"}
	for i := 0; i < counters.NumJob; i++ {
		header = append(header, counters.Table[i].Abbrev)
	}
	header = append(header, counters.LDMSNames("IO")...)
	header = append(header, counters.LDMSNames("SYS")...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, r := range ds.Runs {
		for s := 0; s < r.Steps(); s++ {
			row = row[:0]
			row = append(row,
				strconv.Itoa(r.RunID), strconv.Itoa(r.Day), f(r.Start), strconv.Itoa(s),
				f(r.StepTimes[s]), f(r.Compute[s]),
				strconv.Itoa(r.NumRouters), strconv.Itoa(r.NumGroups))
			for c := 0; c < counters.NumJob; c++ {
				row = append(row, f(r.Counters[s][c]))
			}
			for c := 0; c < counters.NumLDMS; c++ {
				row = append(row, f(r.IO[s][c]))
			}
			for c := 0; c < counters.NumLDMS; c++ {
				row = append(row, f(r.Sys[s][c]))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Totals writes one row per run: total/compute time and relative
// performance (the Figure 1 data).
func Totals(w io.Writer, ds *dataset.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"run_id", "day", "total_s", "compute_s", "relative"}); err != nil {
		return err
	}
	best := ds.BestTotalTime()
	for _, r := range ds.Runs {
		rel := 0.0
		if best > 0 {
			rel = r.TotalTime() / best
		}
		if err := cw.Write([]string{
			strconv.Itoa(r.RunID), strconv.Itoa(r.Day),
			f(r.TotalTime()), f(r.TotalCompute()), f(rel),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Relevance writes the Figure 9 data: one row per (dataset, counter).
func Relevance(w io.Writer, results []core.DeviationResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "counter", "relevance", "mape_pct"}); err != nil {
		return err
	}
	for _, res := range results {
		for i, name := range res.FeatureNames {
			if err := cw.Write([]string{res.Dataset, name, f(res.Relevance[i]), f(res.MAPE)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// CampaignToDir writes the whole campaign: per dataset a runs CSV and a
// totals CSV in dir (created if needed).
func CampaignToDir(camp *dataset.Campaign, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, ds := range camp.Datasets {
		if err := writeFile(filepath.Join(dir, ds.Name+"-steps.csv"), func(w io.Writer) error {
			return Runs(w, ds)
		}); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, ds.Name+"-totals.csv"), func(w io.Writer) error {
			return Totals(w, ds)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, fn func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(fh); err != nil {
		fh.Close()
		return fmt.Errorf("export %s: %w", path, err)
	}
	return fh.Close()
}

// f formats a float compactly for CSV.
func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// Matrix writes a labeled row × column matrix as CSV — the export form of
// the monitor's congestion heatmap. The header is rowName followed by one
// column per x value; NaN cells (no data) are written empty.
func Matrix(w io.Writer, rowName string, rows []string, x []float64, values [][]float64) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(x)+1)
	header = append(header, rowName)
	for _, xv := range x {
		header = append(header, f(xv))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for i, label := range rows {
		row = row[:0]
		row = append(row, label)
		for j := range x {
			v := math.NaN()
			if i < len(values) && j < len(values[i]) {
				v = values[i][j]
			}
			if math.IsNaN(v) {
				row = append(row, "")
			} else {
				row = append(row, f(v))
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
