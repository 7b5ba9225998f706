// Command dfvard is the continuous-operation campaign daemon: it drives
// an endless seeded workload (faults included) through the campaign
// engine, streams every completed run into an append-only windowed
// dataset, retrains the forecaster/deviation/advisor models on a sealed-
// window schedule (or early, on forecast drift), and publishes each
// retrain to a modelstore so live dfserved replicas hot-reload it.
//
// Usage:
//
//	dfvard [-state DIR] [-store DIR] [-seed S] [-small] [-fast]
//	       [-days N] [-faults SPEC] [-routing POLICY] [-placement POLICY]
//	       [-window-runs N] [-window-span SECS]
//	       [-retrain-windows N] [-drift-factor F] [-drift-windows N]
//	       [-max-epochs N] [-dataset NAME] [-m N] [-k N] [-features LIST]
//	       [-monitor FILE|-] [-monitor-max-bytes N] [-monitor-max-age D]
//	       [-telemetry FILE] [-trace FILE] [-pprof ADDR] [-workers N]
//
// All state lives under -state: the run stream (WAL + sealed segments),
// the progress checkpoint, and the publish log. The daemon may be killed
// at any instant — even SIGKILL — and restarted with the same flags; it
// resumes from its checkpoint and produces byte-identical output to a
// never-interrupted run.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/cluster"
	"dragonvar/internal/counters"
	"dragonvar/internal/daemon"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/monitor"
	"dragonvar/internal/topology"
)

func main() { cli.Main("dfvard", run) }

// monitorFlags are the -monitor* flags.
type monitorFlags struct {
	path     string
	maxBytes int64
	maxAge   time.Duration
}

func run(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := cli.NewFlagSet("dfvard", stderr)
	var cfg daemon.Config
	fs.StringVar(&cfg.StateDir, "state", "dfvard-state", "state directory (stream, checkpoint, publish log)")
	store := fs.String("store", "models", "model store directory to publish retrained models into")

	fs.Int64Var(&cfg.Seed, "seed", 42, "root seed; the endless workload is a pure function of it")
	small := fs.Bool("small", false, "use the small test machine instead of the Cori-scale one")
	fs.BoolVar(&cfg.Fast, "fast", false, "reduced training knobs (fewer epochs, smaller sample caps)")
	fs.Float64Var(&cfg.EpochDays, "days", 7, "simulated days per campaign epoch")
	fs.StringVar(&cfg.FaultSpec, "faults", "", `fault spec for every epoch ("links=3,dropouts=2", ...)`)
	fs.StringVar(&cfg.Routing, "routing", "", "routing policy name (default: the engine default; $"+cluster.EnvRouting+" overrides)")
	fs.StringVar(&cfg.Placement, "placement", "", "placement policy name (default firstfit; $"+cluster.EnvPlacement+" overrides)")
	cli.Workers(fs, &cfg.Workers)

	fs.IntVar(&cfg.WindowRuns, "window-runs", 16, "runs per ingest window (a window seals at this count)")
	fs.Float64Var(&cfg.WindowSpan, "window-span", 0, "max campaign-clock seconds per window (0 = unbounded)")

	fs.IntVar(&cfg.RetrainEvery, "retrain-windows", 4, "retrain every N sealed windows")
	fs.Float64Var(&cfg.DriftFactor, "drift-factor", 1.5, "early retrain when live MAPE exceeds this factor of the training MAPE (<=0 disables)")
	fs.IntVar(&cfg.DriftWindow, "drift-windows", 3, "rolling window (in sealed segments) of the live-MAPE mean")
	fs.IntVar(&cfg.MaxEpochs, "max-epochs", 0, "stop after N epochs (0 = run until signalled)")

	fs.StringVar(&cfg.Dataset, "dataset", "AMG-128", "dataset whose forecaster is served")
	fs.IntVar(&cfg.M, "m", 5, "forecast window length (steps)")
	fs.IntVar(&cfg.K, "k", 2, "forecast horizon (steps)")
	features := fs.String("features", "", `extra forecast feature groups: "placement,io,sys" (app counters always included)`)

	var mf monitorFlags
	fs.StringVar(&mf.path, "monitor", "", `stream network-weather + drift events to this JSONL file ("-" = stderr), with rotation`)
	fs.Int64Var(&mf.maxBytes, "monitor-max-bytes", 64<<20, "rotate the event stream past this size (0 = never)")
	fs.DurationVar(&mf.maxAge, "monitor-max-age", 0, "rotate the event stream past this age (0 = never)")

	var tm cli.Telemetry
	tm.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	var err error
	if cfg.Features, err = counters.ParseFeatureSet(*features); err != nil {
		return cli.Usagef("-features: %w", err)
	}
	// Policy env defaults, resolved here like every other CLI.
	if cfg.Routing == "" {
		cfg.Routing = os.Getenv(cluster.EnvRouting)
	}
	if cfg.Placement == "" {
		cfg.Placement = os.Getenv(cluster.EnvPlacement)
	}
	if *small {
		cfg.Machine = topology.Small()
	}
	cfg.Logf = func(format string, args ...any) { fmt.Fprintf(stderr, "dfvard: "+format+"\n", args...) }

	// The daemon is always instrumented: its counters are how the tests
	// (and an operator) see retrains and drift happen.
	flush, err := tm.StartAlways("dfvard", stderr)
	if err != nil {
		return err
	}
	defer flush()

	if cfg.Store, err = modelstore.Open(*store); err != nil {
		return err
	}
	mon, finishMonitor, err := attachMonitor(mf, *small, stderr)
	if err != nil {
		return err
	}
	defer finishMonitor()
	cfg.Monitor = mon

	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close()

	fmt.Fprintf(stderr, "dfvard: state=%s store=%s seed=%d (%g days/epoch, retrain every %d windows of %d runs)\n",
		cfg.StateDir, *store, cfg.Seed, cfg.EpochDays, cfg.RetrainEvery, cfg.WindowRuns)

	err = d.Run(ctx)
	epoch, sealed, retrains, drift := d.Progress()
	fmt.Fprintf(stderr, "dfvard: %d epochs, %d windows sealed, %d retrains (%d drift-triggered)\n",
		epoch, sealed, retrains, drift)
	if err != nil && errors.Is(err, context.Canceled) {
		// A signal is the normal way to stop a daemon; all state is
		// checkpointed, so the next start continues exactly here.
		fmt.Fprintln(stderr, "dfvard: checkpointed, bye")
		return nil
	}
	return err
}

// attachMonitor builds the live monitor when -monitor was given: network
// weather plus the daemon's drift events, written as JSONL through a
// size/age-rotated file ("-" streams to stderr, unrotated).
func attachMonitor(mf monitorFlags, small bool, stderr io.Writer) (*monitor.Monitor, func(), error) {
	if mf.path == "" {
		return nil, func() {}, nil
	}
	var events io.Writer
	var closer io.Closer
	if mf.path == "-" {
		events = stderr
	} else {
		w, err := monitor.NewRotatingWriter(mf.path, mf.maxBytes, mf.maxAge)
		if err != nil {
			return nil, nil, err
		}
		events = w
		closer = w
	}
	topo := topology.Cori()
	if small {
		topo = topology.Small()
	}
	// DetectTimeGaps stays off: parallel campaign rounds interleave runs
	// out of time order, so only explicit missing markers count as gaps.
	m, err := monitor.New(monitor.Config{
		NumRouters:      topo.NumRouters(),
		SeriesPerRouter: cluster.LDMSSeriesPerRouter,
		RoutersPerGroup: topo.RoutersPerGroup(),
		HeatmapBin:      3600,
		Events:          events,
		Source:          "dfvard",
	})
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, nil, err
	}
	finish := func() {
		if err := m.Finish(); err != nil {
			fmt.Fprintf(stderr, "dfvard: monitor: %v\n", err)
		}
		if closer != nil {
			if err := closer.Close(); err != nil {
				fmt.Fprintf(stderr, "dfvard: monitor: %v\n", err)
			}
		}
	}
	return m, finish, nil
}
