// Command dfldms records and inspects system-wide counter streams — the
// scaled-down stand-in for the LDMS pipeline that sampled every Aries
// router on Cori once per second (~5 TB/day, §III-C).
//
//	dfldms record [-small] [-days N] [-seed S] [-hours H] [-interval SEC] [-faults SPEC] -out FILE
//	    Replay the background timeline and stream per-router counters.
//	    -faults injects link/router failures and sampler dropouts; dropout
//	    windows are recorded as explicit missing-sample markers.
//
//	dfldms summarize -in FILE [-top K]
//	    Read a log back and report its busiest routers and gap fractions
//	    (global and per-router, so dropout faults are attributable).
//
//	dfldms analyze -in FILE [-events FILE|-] [-heatmap FILE.svg] [-csv FILE] ...
//	    Replay a log through the streaming network-weather monitor: anomaly
//	    events as JSONL, a per-group × time congestion heatmap, and a
//	    human-readable weather report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/cluster"
	"dragonvar/internal/export"
	"dragonvar/internal/monitor"
	"dragonvar/internal/topology"
	"dragonvar/internal/traceio"
	"dragonvar/internal/viz"
)

func main() { cli.Main("dfldms", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return cli.Usagef("missing command")
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "record":
		return cmdRecord(ctx, args, stdout, stderr)
	case "summarize":
		return cmdSummarize(args, stdout, stderr)
	case "analyze":
		return cmdAnalyze(args, stdout, stderr)
	case "-h", "--help", "help":
		usage(stderr)
		return flag.ErrHelp
	default:
		usage(stderr)
		return cli.Usagef("unknown command %q", cmd)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  dfldms record    [-small] [-days N] [-seed S] [-hours H] [-interval SEC] [-faults SPEC] [-workers N] [-telemetry FILE] [-trace FILE] [-pprof ADDR] -out FILE
  dfldms summarize -in FILE [-top K]
  dfldms analyze   -in FILE [-events FILE|-] [-heatmap FILE.svg] [-csv FILE] [-top K]
                   [-rpg N] [-hot-z Z] [-stall-onset R] [-stall-clear R] [-bin SEC] [-interval SEC]`)
}

func cmdRecord(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("record", stderr)
	var cfg cluster.Config
	small := fs.Bool("small", false, "use the reduced test machine")
	fs.Float64Var(&cfg.Days, "days", 2, "background timeline length")
	fs.Int64Var(&cfg.Seed, "seed", 42, "timeline seed")
	hours := fs.Float64("hours", 1, "recording window length")
	interval := fs.Float64("interval", 60, "sampling interval, seconds")
	fs.StringVar(&cfg.FaultSpec, "faults", "", `fault spec, e.g. "dropout@3600-7200" (see DESIGN.md)`)
	out := fs.String("out", "ldms.bin", "output log file")
	cli.Workers(fs, &cfg.Workers)
	var tm cli.Telemetry
	tm.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	flush, err := tm.Start("dfldms", stderr)
	if err != nil {
		return err
	}
	defer flush()

	if *small {
		cfg.Machine = topology.Small()
	}
	fmt.Fprintln(stderr, "building machine and background timeline...")
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}

	fh, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer fh.Close()
	nr := c.Topo.Cfg.NumRouters()
	w, err := traceio.NewWriter(fh, nr*cluster.LDMSSeriesPerRouter)
	if err != nil {
		return err
	}

	// record from the middle of the timeline (steady state)
	t0 := c.Timeline.Horizon()/2 - *hours*1800
	t1 := t0 + *hours*3600
	// SIGINT stops the recorder at a sample boundary and flushes; the log
	// on disk stays readable, just shorter than requested
	start := time.Now()
	n, err := c.RecordLDMSCtx(ctx, w, t0, t1, *interval)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	if interrupted {
		fmt.Fprintf(stderr, "interrupted: flushed %d samples recorded so far\n", n)
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d samples of %d routers × %d series in %v\n",
		n, nr, cluster.LDMSSeriesPerRouter, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "log: %s (%.1f MiB, %.2f bytes per counter sample)\n",
		*out, float64(info.Size())/(1<<20),
		float64(info.Size())/float64(n*nr*cluster.LDMSSeriesPerRouter))
	perDay := float64(info.Size()) / (*hours) * 24 / (1 << 30)
	fmt.Fprintf(stdout, "at this rate a full day is %.2f GiB (Cori's real 1 Hz feed was ~5 TB/day)\n", perDay)
	return nil
}

func cmdSummarize(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("summarize", stderr)
	in := fs.String("in", "ldms.bin", "input log file")
	top := fs.Int("top", 10, "busiest routers to list")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	fh, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer fh.Close()
	r, err := traceio.NewReader(fh)
	if err != nil {
		return err
	}
	series := r.NumSeries()
	routers := series / cluster.LDMSSeriesPerRouter

	// deltas are taken between the first and last HEALTHY samples: missing
	// markers carry no counter values, only the gap itself
	var first, last []float64
	var t0, t1 float64
	samples, missing := 0, 0
	gaps := make([]int, routers) // per-router samples with any NaN series
	buf := make([]float64, series)
	for {
		t, v, err := r.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w", *in, err)
		}
		if samples == 0 {
			t0 = t
		}
		t1 = t
		samples++
		if r.Missing() {
			missing++
		}
		healthy := true
		for ri := 0; ri < routers; ri++ {
			base := ri * cluster.LDMSSeriesPerRouter
			for s := 0; s < cluster.LDMSSeriesPerRouter; s++ {
				if math.IsNaN(v[base+s]) {
					gaps[ri]++
					healthy = false
					break
				}
			}
		}
		if !healthy {
			continue
		}
		if first == nil {
			first = append([]float64(nil), v...)
		}
		if last == nil {
			last = make([]float64, series)
		}
		copy(last, v)
	}
	if samples-missing < 2 {
		return fmt.Errorf("log has %d healthy samples (%d missing); need at least 2", samples-missing, missing)
	}

	fmt.Fprintf(stdout, "log: %d samples over %.0fs, %d routers\n", samples, t1-t0, routers)
	if missing > 0 {
		fmt.Fprintf(stdout, "sampler dropouts: %d of %d samples missing (%.1f%%)\n",
			missing, samples, 100*float64(missing)/float64(samples))
		reportRouterGaps(stdout, gaps, samples, *top)
	}
	type load struct {
		router int
		flits  float64
		stalls float64
	}
	var loads []load
	for ri := 0; ri < routers; ri++ {
		base := ri * cluster.LDMSSeriesPerRouter
		loads = append(loads, load{
			router: ri,
			flits:  last[base] - first[base],
			stalls: last[base+1] - first[base+1],
		})
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].flits > loads[j].flits })
	fmt.Fprintf(stdout, "\nbusiest routers by RT_FLIT_TOT over the window:\n")
	for i := 0; i < *top && i < len(loads); i++ {
		fmt.Fprintf(stdout, "  router %4d: %.3g flits, %.3g stall cycles\n",
			loads[i].router, loads[i].flits, loads[i].stalls)
	}
	return nil
}

// reportRouterGaps prints the per-router gap distribution so dropout faults
// can be attributed to specific routers rather than the sampler as a whole.
func reportRouterGaps(w io.Writer, gaps []int, samples, top int) {
	lo, hi := gaps[0], gaps[0]
	total := 0
	for _, g := range gaps {
		total += g
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(samples) }
	fmt.Fprintf(w, "per-router gap fraction: min %.1f%%, mean %.1f%%, max %.1f%%\n",
		pct(lo), 100*float64(total)/float64(len(gaps))/float64(samples), pct(hi))
	if lo == hi {
		fmt.Fprintln(w, "  (uniform across routers: sampler-wide dropout windows)")
		return
	}
	type rg struct{ router, n int }
	worst := make([]rg, 0, len(gaps))
	for ri, g := range gaps {
		if g > lo {
			worst = append(worst, rg{ri, g})
		}
	}
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].n != worst[j].n {
			return worst[i].n > worst[j].n
		}
		return worst[i].router < worst[j].router
	})
	fmt.Fprintln(w, "  most-gapped routers:")
	for i := 0; i < top && i < len(worst); i++ {
		fmt.Fprintf(w, "    router %4d: %d of %d samples missing (%.1f%%)\n",
			worst[i].router, worst[i].n, samples, pct(worst[i].n))
	}
}

// inferGroupSize guesses the dragonfly group size from the router count by
// matching the known machine configs; an unknown machine collapses to a
// single group (rollups still work, just coarser).
func inferGroupSize(routers int) int {
	for _, cfg := range []topology.Config{topology.Cori(), topology.Small()} {
		if cfg.NumRouters() == routers {
			return cfg.RoutersPerGroup()
		}
	}
	return routers
}

func cmdAnalyze(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("analyze", stderr)
	in := fs.String("in", "ldms.bin", "input log file")
	eventsOut := fs.String("events", "", `write anomaly events as JSONL to this file ("-" = stdout)`)
	heatOut := fs.String("heatmap", "", "write the per-group congestion heatmap to this SVG file")
	csvOut := fs.String("csv", "", "write the heatmap matrix to this CSV file")
	top := fs.Int("top", 10, "routers to list in the report")
	rpg := fs.Int("rpg", 0, "routers per dragonfly group (0 = infer from router count)")
	hotZ := fs.Float64("hot-z", 0, "hot-router onset threshold in cross-sectional std devs (0 = default)")
	stallOnset := fs.Float64("stall-onset", 0, "group congestion onset threshold on smoothed stall ratio (0 = default)")
	stallClear := fs.Float64("stall-clear", 0, "congestion clear threshold (0 = onset/2)")
	bin := fs.Float64("bin", 0, "heatmap time-bin width, seconds (0 = default)")
	interval := fs.Float64("interval", 0, "expected sampling interval for time-jump gap detection (0 = infer)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	fh, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer fh.Close()
	rd, err := traceio.NewReader(fh)
	if err != nil {
		return err
	}
	series := rd.NumSeries()
	if series%cluster.LDMSSeriesPerRouter != 0 {
		return fmt.Errorf("%s holds %d series, not a multiple of %d per router",
			*in, series, cluster.LDMSSeriesPerRouter)
	}
	routers := series / cluster.LDMSSeriesPerRouter
	if *rpg <= 0 {
		*rpg = inferGroupSize(routers)
	}

	var events io.Writer
	if *eventsOut == "-" {
		events = stdout
	} else if *eventsOut != "" {
		ef, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		defer ef.Close()
		events = ef
	}

	m, err := monitor.New(monitor.Config{
		NumRouters:      routers,
		SeriesPerRouter: cluster.LDMSSeriesPerRouter,
		RoutersPerGroup: *rpg,
		Interval:        *interval,
		DetectTimeGaps:  true, // replay is time-ordered
		HotZ:            *hotZ,
		StallOnset:      *stallOnset,
		StallClear:      *stallClear,
		HeatmapBin:      *bin,
		Events:          events,
		Source:          "replay",
	})
	if err != nil {
		return err
	}
	st, err := monitor.Replay(rd, m)
	if err != nil {
		return fmt.Errorf("analyzing %s: %w", *in, err)
	}
	fmt.Fprintf(stderr, "replayed %d samples (%d missing) over [%.0fs, %.0fs], %d routers in groups of %d\n",
		st.Samples, st.Missing, st.FirstT, st.LastT, routers, *rpg)
	fmt.Fprint(stdout, m.Report(*top))

	if *heatOut != "" || *csvOut != "" {
		rows, xs, vals := m.HeatmapData()
		if *heatOut != "" {
			h := viz.NewHeatmap("Network weather: group stall ratio", "time (s)", "group", rows, xs, vals)
			if err := os.WriteFile(*heatOut, []byte(h.SVG()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "heatmap: %s\n", *heatOut)
		}
		if *csvOut != "" {
			cf, err := os.Create(*csvOut)
			if err != nil {
				return err
			}
			if err := export.Matrix(cf, "group", rows, xs, vals); err != nil {
				cf.Close()
				return err
			}
			if err := cf.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "heatmap csv: %s\n", *csvOut)
		}
	}
	return nil
}
