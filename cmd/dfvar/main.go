// Command dfvar drives the dragonfly performance-variability study: it
// generates the controlled-experiment campaign (§III), runs the analyses
// (§IV–V), and regenerates every table and figure of the paper.
//
// Usage:
//
//	dfvar campaign [-days N] [-seed S] [-cache FILE] [-small] [-faults SPEC]
//	    Simulate the campaign and cache it. -faults injects link/router
//	    failures, node drains, and counter-sampler dropouts (DESIGN.md).
//
//	dfvar report [-cache FILE] [-days N] [-seed S] [-small] [-fast] [artifact ...]
//	    Regenerate artifacts: table1 table2 table3 fig1 fig2 fig3 fig4 fig5
//	    fig7 fig8 fig9 fig10 fig11 fig12, or "all" (default: the cheap ones).
//
//	dfvar calib [-days N] [-seed S] [-cache FILE] [-small] ...
//	    Summarize the variability the campaign produces (best/mean/worst
//	    run times, worst-to-best ratio, MPI fraction) against §III-B.
//
//	dfvar census [-small]
//	    Print the machine census (Figure 2) without simulating anything.
//
//	dfvar campaign -distribute ADDR / dfvar worker -join URL
//	    Distributed campaign execution: the coordinator serves work units
//	    to worker processes with lease-based re-dispatch and checkpoint
//	    resume (internal/dist); output is byte-identical to a local run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/cluster"
	"dragonvar/internal/core"
	"dragonvar/internal/dataset"
	"dragonvar/internal/dist"
	"dragonvar/internal/experiments"
	"dragonvar/internal/export"
	"dragonvar/internal/monitor"
	"dragonvar/internal/routing"
	"dragonvar/internal/slurm"
	"dragonvar/internal/topology"
)

func main() { cli.Main("dfvar", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return cli.Usagef("missing command")
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "campaign":
		return cmdCampaign(ctx, args, stdout, stderr)
	case "worker":
		return cmdWorker(ctx, args, stderr)
	case "report":
		return cmdReport(ctx, args, stdout, stderr)
	case "calib":
		return cmdCalib(ctx, args, stdout, stderr)
	case "census":
		return cmdCensus(args, stdout, stderr)
	case "export":
		return cmdExport(ctx, args, stdout, stderr)
	case "plot":
		return cmdPlot(ctx, args, stdout, stderr)
	case "ab":
		return cmdAB(ctx, args, stdout, stderr)
	case "trace":
		return cmdTrace(args, stdout, stderr)
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
  dfvar campaign [-days N] [-seed S] [-cache FILE] [-small] [-faults SPEC] [-workers N] [-telemetry FILE] [-trace FILE] [-pprof ADDR] [-monitor FILE|-]
                 [-distribute ADDR] [-dist-checkpoint FILE] [-dist-lease DUR]
  dfvar worker   -join URL [-name NAME] [-telemetry FILE] [-trace FILE] [-pprof ADDR]
  dfvar report   [-cache FILE] [-days N] [-seed S] [-small] [-fast] [-faults SPEC] [-workers N] [-telemetry FILE] [-trace FILE] [-pprof ADDR] [-monitor FILE|-] [artifact ...]
  dfvar calib    [-cache FILE] [-days N] [-seed S] [-small] [-faults SPEC] [-workers N] [-telemetry FILE] [-trace FILE] [-pprof ADDR] [-monitor FILE|-]
  dfvar census   [-small]
  dfvar export   [-cache FILE] [-days N] [-seed S] [-small] -out DIR
  dfvar plot     [-cache FILE] [-days N] [-seed S] [-small] [-fast] -out DIR
  dfvar ab       [-days N] [-seed S] [-small] [-faults SPEC] -arms R/P,R/P[,...] [-out FILE] [-verify] [-blame]
  dfvar trace    [-out FILE.chrome.json] [-json FILE|-] SPANFILE [SPANFILE ...]
artifacts: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12 all
calib prints per-dataset best/mean/worst run times, the worst-to-best ratio and
  the MPI time fraction, to check the simulator against the §III-B targets.
routing policies: minimal, valiant, adaptive (UGAL-style), feedback (stall-EWMA
  biased); placement policies: firstfit, compact, interference. -routing and
  -placement (default $DRAGONVAR_ROUTING / $DRAGONVAR_PLACEMENT) select them for
  campaign/report/export/plot; "dfvar ab" reruns the same seeded campaign under
  each -arms pair and prints per-dataset variability distributions with deltas
  (-verify additionally proves each arm's serial == parallel byte-identity).
fault specs: links=N routers=N drains=N dropouts=N outage=SEC droplen=SEC,
  link:ID@T0-T1[*FRAC] router:ID@T0-T1 drain:ROUTER@T0-T1 dropout@T0-T1 (comma-separated)
-workers 0 (the default) uses $DRAGONVAR_WORKERS, falling back to GOMAXPROCS;
  any worker count produces byte-identical output. SIGINT cancels gracefully,
  flushing completed campaign runs to the cache as a partial dataset.
-telemetry FILE writes a metrics + span-trace snapshot (docs/OBSERVABILITY.md)
  on exit; -pprof ADDR serves net/http/pprof plus live /telemetry and /metrics
  (OpenMetrics) endpoints; -monitor FILE streams network-weather anomaly events
  as JSONL while the campaign simulates ("-" = stderr) and prints a weather
  report. All three are observation-only: output bytes are identical on or off.
-trace FILE streams every finished span (with trace/span IDs and process
  identity) to a JSONL file on exit, plus a Chrome trace-event view at
  FILE.chrome.json; spans propagate across processes via W3C traceparent, and
  "dfvar trace" stitches the files from a coordinator and its workers into one
  cross-process timeline with a wait/compute/network breakdown.
-distribute ADDR serves a campaign to "dfvar worker" processes instead of
  simulating locally: workers lease runs, crashed or hung workers are detected
  and their work re-dispatched, and with -dist-checkpoint a killed coordinator
  resumes where it stopped. The result is byte-identical to a local run.
exit status: 0 ok or -h, 1 runtime error, 2 usage error, 130 interrupted.`)
}

// commonFlags defines the flags shared by the campaign-consuming
// subcommands.
type commonFlags struct {
	days      float64
	seed      int64
	cache     string
	small     bool
	fast      bool
	faults    string
	routing   string
	placement string
	workers   int
	tm        cli.Telemetry
	monitor   string
}

func addCommon(fs *flag.FlagSet, c *commonFlags) {
	fs.Float64Var(&c.days, "days", 130, "campaign length in days")
	fs.Int64Var(&c.seed, "seed", 42, "campaign seed")
	fs.StringVar(&c.cache, "cache", "campaign.gob", "campaign cache file (empty to disable)")
	fs.BoolVar(&c.small, "small", false, "use the reduced test machine instead of Cori")
	fs.BoolVar(&c.fast, "fast", false, "faster, less accurate ML settings")
	fs.StringVar(&c.faults, "faults", "", `fault-injection spec, e.g. "links=2,routers=1,dropouts=2" (see DESIGN.md)`)
	fs.StringVar(&c.routing, "routing", os.Getenv(cluster.EnvRouting),
		"routing policy: "+strings.Join(routing.PolicyNames(), ", ")+
			" (default $"+cluster.EnvRouting+" or the engine default, adaptive)")
	fs.StringVar(&c.placement, "placement", os.Getenv(cluster.EnvPlacement),
		"placement policy: "+strings.Join(slurm.PlacementPolicyNames(), ", ")+
			" (default $"+cluster.EnvPlacement+" or firstfit)")
	cli.Workers(fs, &c.workers)
	c.tm.Register(fs)
	fs.StringVar(&c.monitor, "monitor", "",
		`attach the streaming network-weather monitor to the simulation; anomaly events go to this JSONL file ("-" = stderr)`)
}

// parse parses args into fs and validates -routing/-placement (or their
// environment defaults) up front, so a typo is a usage error instead of a
// runtime one.
func (c *commonFlags) parse(fs *flag.FlagSet, args []string) error {
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if c.routing != "" && !routing.ValidPolicy(c.routing) {
		return cli.Usagef("unknown routing policy %q (have %s)",
			c.routing, strings.Join(routing.PolicyNames(), ", "))
	}
	if c.placement != "" && !slurm.ValidPlacementPolicy(c.placement) {
		return cli.Usagef("unknown placement policy %q (have %s)",
			c.placement, strings.Join(slurm.PlacementPolicyNames(), ", "))
	}
	return nil
}

// withCampaign parses args, starts telemetry and calls fn with the loaded
// campaign; the telemetry files are written on every return path.
func (c *commonFlags) withCampaign(ctx context.Context, fs *flag.FlagSet, args []string, stderr io.Writer,
	fn func(*dataset.Campaign) error) error {
	if err := c.parse(fs, args); err != nil {
		return err
	}
	flush, err := c.tm.Start("dfvar", stderr)
	if err != nil {
		return err
	}
	defer flush()
	camp, err := c.loadCampaign(ctx, stderr)
	if err != nil {
		return err
	}
	return fn(camp)
}

// loadCampaign loads the campaign the flags describe from the cache, or
// simulates it, with the network-weather monitor attached when -monitor
// was given. The monitor is finished on every return path, so an error or
// an interrupt still closes its event stream and prints its report.
func (c commonFlags) loadCampaign(ctx context.Context, stderr io.Writer) (*dataset.Campaign, error) {
	ccfg := c.clusterConfig(stderr)
	finish, err := c.attachMonitor(&ccfg, stderr)
	if err != nil {
		return nil, err
	}
	defer finish()
	return core.LoadOrGenerateCtx(ctx, core.CampaignConfig{Cluster: ccfg, CachePath: c.cache})
}

// attachMonitor wires a live network-weather monitor into the campaign's
// cluster config when -monitor was given. Like telemetry it is observation-
// only: campaign bytes are identical with it on or off. The returned finish
// prints the weather report to stderr and closes the event stream. Without
// the flag both are cheap no-ops.
func (c commonFlags) attachMonitor(cfg *cluster.Config, stderr io.Writer) (finish func(), err error) {
	if c.monitor == "" {
		return func() {}, nil
	}
	var events io.Writer
	var closer io.Closer
	if c.monitor == "-" {
		events = stderr
	} else {
		f, err := os.Create(c.monitor)
		if err != nil {
			return nil, err
		}
		events = f
		closer = f
	}
	topo := topology.Cori()
	if c.small {
		topo = topology.Small()
	}
	// DetectTimeGaps stays off: parallel campaign rounds interleave runs out
	// of time order, so only explicit missing markers count as gaps.
	m, err := monitor.New(monitor.Config{
		NumRouters:      topo.NumRouters(),
		SeriesPerRouter: cluster.LDMSSeriesPerRouter,
		RoutersPerGroup: topo.RoutersPerGroup(),
		HeatmapBin:      3600,
		Events:          events,
		Source:          "campaign",
	})
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, err
	}
	cfg.Monitor = m
	return func() {
		if err := m.Finish(); err != nil {
			fmt.Fprintf(stderr, "dfvar: monitor: %v\n", err)
		}
		if s := m.Summary(); s.Samples > 0 {
			fmt.Fprint(stderr, m.Report(5))
		} else {
			fmt.Fprintln(stderr, "network-weather monitor: no rounds observed (campaign loaded from cache?)")
		}
		if closer != nil {
			if err := closer.Close(); err != nil {
				fmt.Fprintf(stderr, "dfvar: monitor: %v\n", err)
			}
		}
	}, nil
}

func (c commonFlags) clusterConfig(stderr io.Writer) cluster.Config {
	cfg := cluster.Config{Days: c.days, Seed: c.seed, FaultSpec: c.faults, Workers: c.workers}
	cfg.Net.Routing = c.routing
	cfg.Placement = c.placement
	if c.small {
		cfg.Machine = topology.Small()
	}
	cfg.Progress = func(done, total int) {
		if done%25 == 0 || done == total {
			fmt.Fprintf(stderr, "\rsimulating runs: %d/%d", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	return cfg
}

func cmdCampaign(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("campaign", stderr)
	var c commonFlags
	addCommon(fs, &c)
	distribute := fs.String("distribute", "",
		"coordinate a distributed campaign on this listen address (e.g. :9631) instead of simulating locally; run \"dfvar worker -join\" processes against it")
	distCheckpoint := fs.String("dist-checkpoint", "",
		"spill completed work units to this file so a killed coordinator resumes instead of restarting (removed on success)")
	distLease := fs.Duration("dist-lease", 0,
		"distributed work-unit lease duration before re-dispatch (default 2m)")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	role := "dfvar"
	if *distribute != "" {
		if c.monitor != "" {
			return cli.Usagef("campaign: -monitor observes local simulation and cannot be combined with -distribute")
		}
		role = "coordinator"
	}
	flush, err := c.tm.Start(role, stderr)
	if err != nil {
		return err
	}
	defer flush()

	if *distribute != "" {
		return runDistributed(ctx, c, *distribute, *distCheckpoint, *distLease, stdout, stderr)
	}
	start := time.Now()
	camp, err := c.loadCampaign(ctx, stderr)
	if err != nil {
		return err
	}
	printCampaign(stdout, camp, time.Since(start), "", c.cache)
	return nil
}

// printCampaign writes the campaign summary both the local and the
// distributed path end with.
func printCampaign(w io.Writer, camp *dataset.Campaign, elapsed time.Duration, how, cache string) {
	fmt.Fprintf(w, "campaign: %d runs across %d datasets in %v%s\n",
		camp.TotalRuns(), len(camp.Datasets), elapsed.Round(time.Second), how)
	for _, ds := range camp.Datasets {
		fmt.Fprintf(w, "  %-14s %d runs\n", ds.Name, len(ds.Runs))
	}
	if camp.Faults != "" {
		fmt.Fprintf(w, "faults %q: %d requeues, %.2f%% of samples lost to dropouts\n",
			camp.Faults, camp.TotalRequeues(), 100*camp.GapFraction())
	}
	if cache != "" {
		fmt.Fprintf(w, "cached to %s\n", cache)
	}
}

// runDistributed executes the campaign through the internal/dist
// coordinator: workers lease units over HTTP, crashes re-dispatch, and the
// merged result — byte-identical to a local run — lands in the same cache.
func runDistributed(ctx context.Context, c commonFlags, addr, checkpoint string, lease time.Duration, stdout, stderr io.Writer) error {
	co, err := dist.NewCoordinator(dist.Config{
		Cluster:        c.clusterConfig(stderr),
		Addr:           addr,
		CheckpointPath: checkpoint,
		Lease:          lease,
		Log:            stderr,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "coordinating %d work units on %s; join workers with:\n  dfvar worker -join http://%s\n",
		co.NumUnits(), co.Addr(), co.Addr())
	start := time.Now()
	camp, err := co.Run(ctx)
	if err != nil {
		// mirror the local path: an interrupted campaign still flushes
		// completed runs as an inspectable partial cache
		if camp != nil && camp.Partial && c.cache != "" && camp.TotalRuns() > 0 {
			if serr := camp.Save(c.cache); serr != nil {
				fmt.Fprintf(stderr, "dfvar: could not flush partial campaign: %v\n", serr)
			} else {
				fmt.Fprintf(stderr, "dfvar: interrupted; flushed partial campaign (%d runs) to %s\n",
					camp.TotalRuns(), c.cache)
			}
		}
		return err
	}
	elapsed := time.Since(start)
	if c.cache != "" {
		if err := camp.Save(c.cache); err != nil {
			return fmt.Errorf("cache campaign: %w", err)
		}
	}
	printCampaign(stdout, camp, elapsed, " (distributed)", c.cache)
	return nil
}

// cmdWorker joins a coordinator and simulates leased work units until the
// campaign completes. SIGTERM/SIGINT drain gracefully: the in-flight unit
// is finished and delivered, no new lease is taken.
func cmdWorker(ctx context.Context, args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("worker", stderr)
	join := fs.String("join", "", "coordinator URL, e.g. http://host:9631 (required)")
	name := fs.String("name", "", "worker label in coordinator logs (default host:pid)")
	var tm cli.Telemetry
	tm.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *join == "" {
		return cli.Usagef("worker: -join URL is required")
	}
	flush, err := tm.Start("worker", stderr)
	if err != nil {
		return err
	}
	defer flush()
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w, err := dist.NewWorker(dist.WorkerConfig{Coord: *join, Name: *name, Log: stderr})
	if err != nil {
		return err
	}
	return w.Run(ctx)
}

func cmdCensus(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("census", stderr)
	small := fs.Bool("small", false, "use the reduced test machine")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	cfg := topology.Cori()
	if *small {
		cfg = topology.Small()
	}
	d, err := topology.New(cfg)
	if err != nil {
		return err
	}
	suite := &experiments.Suite{Clust: &cluster.Cluster{Topo: d}}
	fmt.Fprint(stdout, suite.Figure2())
	return nil
}

func cmdReport(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("report", stderr)
	var c commonFlags
	addCommon(fs, &c)
	return c.withCampaign(ctx, fs, args, stderr, func(camp *dataset.Campaign) error {
		wanted := fs.Args()
		if len(wanted) == 0 {
			wanted = experiments.CheapArtifacts()
		} else if len(wanted) == 1 && wanted[0] == "all" {
			wanted = experiments.AllArtifacts()
		}
		suite := &experiments.Suite{Camp: camp, Seed: c.seed, Fast: c.fast, Workers: c.workers}
		if experiments.NeedsCluster(wanted) {
			fmt.Fprintln(stderr, "rebuilding cluster state for fig2/fig12...")
			cl, err := cluster.New(c.clusterConfig(stderr))
			if err != nil {
				return err
			}
			suite.Clust = cl
		}
		// independent artifacts render concurrently; output order (and
		// bytes) match rendering them one at a time
		outs, err := suite.All(ctx, wanted)
		if err != nil {
			return err
		}
		for _, out := range outs {
			fmt.Fprintln(stdout, out)
		}
		return nil
	})
}

func cmdExport(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("export", stderr)
	var c commonFlags
	addCommon(fs, &c)
	out := fs.String("out", "csv", "output directory for CSV files")
	return c.withCampaign(ctx, fs, args, stderr, func(camp *dataset.Campaign) error {
		if err := export.CampaignToDir(camp, *out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "exported %d datasets to %s/\n", len(camp.Datasets), *out)
		return nil
	})
}
