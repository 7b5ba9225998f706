package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/dataset"
	"dragonvar/internal/report"
	"dragonvar/internal/stats"
)

// cmdCalib summarizes the variability a campaign configuration produces:
// per dataset, the best/mean/worst total times, the worst-to-best ratio
// (the paper's headline "up to 3× slower"), and the MPI time fraction. Use
// it to sanity-check simulator calibration against §III-B before running
// the full evaluation.
func cmdCalib(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("calib", stderr)
	var c commonFlags
	addCommon(fs, &c)
	start := time.Now()
	return c.withCampaign(ctx, fs, args, stderr, func(camp *dataset.Campaign) error {
		fmt.Fprintf(stderr, "campaign ready in %v\n", time.Since(start).Round(time.Second))
		fmt.Fprint(stdout, calibTable(camp, c.days, c.seed))
		fmt.Fprintln(stdout, "\npaper targets (§III-B): miniVite worst 3.76x, UMT worst 3.3x; MPI% = 76/82 (AMG), 89 (MILC), 98 (miniVite), 30 (UMT)")
		return nil
	})
}

// calibTable tabulates each dataset's run-time spread and MPI fraction.
func calibTable(camp *dataset.Campaign, days float64, seed int64) string {
	t := report.NewTable(
		fmt.Sprintf("calibration summary (%d runs, %g days, seed %d)", camp.TotalRuns(), days, seed),
		"dataset", "runs", "best s", "mean s", "p90 s", "worst s", "worst/best", "MPI %")
	for _, ds := range camp.Datasets {
		if len(ds.Runs) == 0 {
			t.AddRow(ds.Name, 0, "-", "-", "-", "-", "-", "-")
			continue
		}
		var totals, fracs []float64
		for _, r := range ds.Runs {
			totals = append(totals, r.TotalTime())
			fracs = append(fracs, r.Profile.Total()/r.TotalTime())
		}
		best, worst := stats.Min(totals), stats.Max(totals)
		t.AddRow(ds.Name, len(ds.Runs),
			fmt.Sprintf("%.0f", best),
			fmt.Sprintf("%.0f", stats.Mean(totals)),
			fmt.Sprintf("%.0f", stats.Quantile(totals, 0.9)),
			fmt.Sprintf("%.0f", worst),
			fmt.Sprintf("%.2f", worst/best),
			fmt.Sprintf("%.0f", 100*stats.Mean(fracs)))
	}
	return t.String()
}
