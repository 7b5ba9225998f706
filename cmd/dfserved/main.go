// Command dfserved is the forecast-serving daemon: it trains (or loads
// from a modelstore) the campaign's forecaster, deviation model, and
// scheduling advisor, and serves them over HTTP/JSON with request
// batching, prediction caching, load shedding, and graceful drain
// (internal/serve).
//
// Usage:
//
//	dfserved [-addr HOST:PORT] [-store DIR] [-dataset NAME] [-m N] [-k N]
//	         [-features placement,io,sys] [-retrain] [campaign flags]
//	    Train-or-load models and serve /v1/forecast, /v1/deviation,
//	    /v1/advisor/blame, /v1/spec, /healthz, /readyz, /metrics.
//	    SIGINT/SIGTERM drains in-flight requests and exits 0.
//	    -reload-interval polls the store refs and hot-swaps the served
//	    models when a publisher (dfvard) advances them; SIGHUP forces
//	    one poll immediately.
//
//	dfserved -list [-store DIR]
//	    Print every model ref in the store.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dragonvar/internal/advisor"
	"dragonvar/internal/cli"
	"dragonvar/internal/core"
	"dragonvar/internal/counters"
	"dragonvar/internal/daemon"
	"dragonvar/internal/dataset"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/nn"
	"dragonvar/internal/serve"
	"dragonvar/internal/topology"
)

func main() { cli.Main("dfserved", run) }

type options struct {
	list bool

	// serving
	addr           string
	store          string
	dataset        string
	m, k           int
	features       string
	retrain        bool
	serve          serve.Config // the serving knobs; provision adds the models
	reloadInterval time.Duration
	tm             cli.Telemetry

	// campaign (same semantics as dfvar)
	cache  string
	days   float64
	seed   int64
	small  bool
	fast   bool
	faults string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("dfserved", stderr)
	var o options
	fs.BoolVar(&o.list, "list", false, "list the model store's refs and exit")

	fs.StringVar(&o.addr, "addr", "localhost:8600", "listen address (port 0 picks a free port)")
	fs.StringVar(&o.store, "store", "models", "model store directory")
	fs.StringVar(&o.dataset, "dataset", "AMG-128", "campaign dataset to serve")
	fs.IntVar(&o.m, "m", 5, "forecast window length (steps)")
	fs.IntVar(&o.k, "k", 2, "forecast horizon (steps)")
	fs.StringVar(&o.features, "features", "", `extra forecast feature groups: "placement,io,sys" (app counters always included)`)
	fs.BoolVar(&o.retrain, "retrain", false, "retrain and repoint refs even when the store already has the models")
	fs.IntVar(&o.serve.MaxInflight, "max-inflight", 0, "concurrent executing requests (0 = default)")
	fs.IntVar(&o.serve.MaxQueue, "max-queue", 0, "waiting requests before 429 shedding (0 = default)")
	fs.IntVar(&o.serve.MaxBatch, "max-batch", 0, "forecast requests coalesced per model call (0 = default)")
	fs.DurationVar(&o.serve.BatchWindow, "batch-window", 0, "batch collection window (0 = default)")
	fs.IntVar(&o.serve.CacheSize, "cache-size", 0, "prediction cache entries (0 = default)")
	fs.DurationVar(&o.reloadInterval, "reload-interval", 0,
		"poll the model store refs this often and hot-swap the served models when one advances (0 = poll only on SIGHUP)")
	o.tm.Register(fs)

	fs.StringVar(&o.cache, "cache", "campaign.gob", "campaign cache file (empty to disable)")
	fs.Float64Var(&o.days, "days", 130, "campaign length in days (training only)")
	fs.Int64Var(&o.seed, "seed", 42, "campaign seed")
	fs.BoolVar(&o.small, "small", false, "use the reduced test machine instead of Cori")
	fs.BoolVar(&o.fast, "fast", false, "faster, less accurate training settings")
	fs.StringVar(&o.faults, "faults", "", "fault-injection spec for campaign generation (see DESIGN.md)")

	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}
	if o.list {
		return runList(o, stdout)
	}
	return runServe(ctx, o, stdout, stderr)
}

func runList(o options, stdout io.Writer) error {
	st, err := modelstore.Open(o.store)
	if err != nil {
		return err
	}
	entries, err := st.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintf(stdout, "store %s is empty\n", o.store)
		return nil
	}
	for _, e := range entries {
		fmt.Fprintf(stdout, "%-40s %s  kind=%s dataset=%s seed=%d", e.Name, e.ID[:12], e.Meta.Kind, e.Meta.Dataset, e.Meta.Seed)
		if e.Meta.Spec != "" {
			fmt.Fprintf(stdout, " spec=%q", e.Meta.Spec)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// loadCampaign lazily loads (or generates) the training campaign; the
// first call pays, later calls reuse. When every model is already in the
// store, no campaign is touched at all.
type campaignLoader struct {
	o      options
	stderr io.Writer
	camp   *dataset.Campaign
}

func (cl *campaignLoader) get(ctx context.Context) (*dataset.Campaign, error) {
	if cl.camp != nil {
		return cl.camp, nil
	}
	o := cl.o
	fmt.Fprintf(cl.stderr, "dfserved: loading campaign (days=%g seed=%d cache=%q)...\n", o.days, o.seed, o.cache)
	ccfg := core.CampaignConfig{CachePath: o.cache}
	ccfg.Cluster.Days = o.days
	ccfg.Cluster.Seed = o.seed
	ccfg.Cluster.FaultSpec = o.faults
	if o.small {
		ccfg.Cluster.Machine = topology.Small()
	}
	camp, err := core.LoadOrGenerateCtx(ctx, ccfg)
	if err != nil {
		return nil, err
	}
	cl.camp = camp
	return camp, nil
}

func (cl *campaignLoader) getDataset(ctx context.Context, name string) (*dataset.Dataset, error) {
	camp, err := cl.get(ctx)
	if err != nil {
		return nil, err
	}
	ds := camp.Get(name)
	if ds == nil {
		var names []string
		for _, d := range camp.Datasets {
			names = append(names, d.Name)
		}
		return nil, fmt.Errorf("campaign has no dataset %q (have: %s)", name, strings.Join(names, ", "))
	}
	return ds, nil
}

// trainOptions maps -fast onto the training knobs the way dfvar's
// experiment suite does: fewer epochs and smaller sample caps.
func trainOptions(o options) (core.ForecastOptions, core.DeviationOptions) {
	var fo core.ForecastOptions
	var do core.DeviationOptions
	if o.fast {
		fo.NN = nn.Config{EmbedDim: 8, HiddenDim: 16, Epochs: 10, BatchSize: 16,
			LearningRate: 0.01, UseAttention: true, MaxSamples: 400}
		do.MaxSamples = 800
	}
	return fo, do
}

// modelRefs are the store refs one serving configuration resolves.
type modelRefs struct{ forecast, deviation, advisor string }

// ids resolves the refs to the content ids they currently point at.
func (r modelRefs) ids(st *modelstore.Store) (forecast, deviation, adv string, err error) {
	if forecast, _, err = st.Resolve(r.forecast); err != nil {
		return
	}
	if deviation, _, err = st.Resolve(r.deviation); err != nil {
		return
	}
	adv, _, err = st.Resolve(r.advisor)
	return
}

// load loads the models the refs point at, with their content ids.
func (r modelRefs) load(st *modelstore.Store) (m serve.Models, err error) {
	if m.ForecastID, m.GBRID, m.AdvisorID, err = r.ids(st); err != nil {
		return m, err
	}
	if m.Forecaster, m.ForecastMeta, err = st.GetForecaster(r.forecast); err != nil {
		return m, err
	}
	if m.GBR, m.GBRMeta, err = st.GetGBR(r.deviation); err != nil {
		return m, err
	}
	m.Adv, _, err = st.GetAdvisor(r.advisor)
	return m, err
}

// provision returns a fully-populated serve.Config, training whatever the
// store is missing (or everything, with -retrain) and loading the rest.
func provision(ctx context.Context, o options, spec core.ForecastSpec, refs modelRefs, st *modelstore.Store, stderr io.Writer) (serve.Config, error) {
	fRef, dRef, aRef := refs.forecast, refs.deviation, refs.advisor
	cl := &campaignLoader{o: o, stderr: stderr}
	fo, do := trainOptions(o)
	cfg := o.serve

	if o.retrain || !st.Has(fRef) {
		ds, err := cl.getDataset(ctx, o.dataset)
		if err != nil {
			return cfg, err
		}
		fmt.Fprintf(stderr, "dfserved: training forecaster %s...\n", fRef)
		model, windows, err := core.TrainServingForecaster(ds, spec, fo, o.seed)
		if err != nil {
			return cfg, err
		}
		meta := modelstore.Meta{Dataset: o.dataset, Seed: o.seed, Spec: spec.String(),
			M: o.m, K: o.k, FeatureNames: spec.Features.Names()}
		id, err := st.PutForecaster(fRef, meta, model)
		if err != nil {
			return cfg, err
		}
		fmt.Fprintf(stderr, "dfserved: stored %s -> %s (%d windows)\n", fRef, id[:12], windows)
	}

	if o.retrain || !st.Has(dRef) {
		ds, err := cl.getDataset(ctx, o.dataset)
		if err != nil {
			return cfg, err
		}
		fmt.Fprintf(stderr, "dfserved: training deviation model %s...\n", dRef)
		model, samples, err := core.TrainServingDeviation(ds, do, o.seed)
		if err != nil {
			return cfg, err
		}
		meta := modelstore.Meta{Dataset: o.dataset, Seed: o.seed,
			FeatureNames: core.DeviationFeatureNames()}
		id, err := st.PutGBR(dRef, meta, model)
		if err != nil {
			return cfg, err
		}
		fmt.Fprintf(stderr, "dfserved: stored %s -> %s (%d samples)\n", dRef, id[:12], samples)
	}

	if o.retrain || !st.Has(aRef) {
		camp, err := cl.get(ctx)
		if err != nil {
			return cfg, err
		}
		fmt.Fprintf(stderr, "dfserved: training advisor %s...\n", aRef)
		adv := advisor.Train(camp, advisor.Options{})
		id, err := st.PutAdvisor(aRef, modelstore.Meta{Seed: o.seed}, adv)
		if err != nil {
			return cfg, err
		}
		fmt.Fprintf(stderr, "dfserved: stored %s -> %s (%d blamed users)\n", aRef, id[:12], len(adv.Blamed()))
	}
	m, err := refs.load(st)
	if err != nil {
		return cfg, err
	}
	cfg.Forecaster, cfg.ForecastMeta, cfg.ForecastID = m.Forecaster, m.ForecastMeta, m.ForecastID
	cfg.GBR, cfg.GBRMeta, cfg.GBRID = m.GBR, m.GBRMeta, m.GBRID
	cfg.Adv, cfg.AdvisorID = m.Adv, m.AdvisorID
	return cfg, nil
}

// startReloader watches the model store refs and hot-swaps the served
// models when any of them advances — on every -reload-interval tick, and
// on SIGHUP regardless of the interval. This is how a replica picks up
// dfvard's retrains without a restart. The returned stop function is
// idempotent to call once and blocks until the watcher goroutine exits.
func startReloader(ctx context.Context, o options, st *modelstore.Store, srv *serve.Server, refs modelRefs, stderr io.Writer) func() {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		var tick <-chan time.Time
		if o.reloadInterval > 0 {
			t := time.NewTicker(o.reloadInterval)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-tick:
			case <-hup:
			}
			if err := maybeReload(st, srv, refs, stderr); err != nil {
				fmt.Fprintf(stderr, "dfserved: reload: %v\n", err)
			}
		}
	}()
	return func() {
		signal.Stop(hup)
		close(done)
		<-stopped
	}
}

// maybeReload compares the store's current ref ids against the served
// ones and atomically swaps in a freshly loaded model set when any ref
// advanced. A publish landing mid-load just means the next poll swaps
// again — each swap is internally consistent.
func maybeReload(st *modelstore.Store, srv *serve.Server, refs modelRefs, stderr io.Writer) error {
	curF, curD, curA := srv.ModelIDs()
	newF, newD, newA, err := refs.ids(st)
	if err != nil {
		return err
	}
	if newF == curF && newD == curD && newA == curA {
		return nil
	}
	m, err := refs.load(st)
	if err != nil {
		return err
	}
	if err := srv.Swap(m); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dfserved: reloaded models (forecast %.12s deviation %.12s advisor %.12s)\n",
		m.ForecastID, m.GBRID, m.AdvisorID)
	return nil
}

func runServe(ctx context.Context, o options, stdout, stderr io.Writer) error {
	spec := core.ForecastSpec{M: o.m, K: o.k}
	var err error
	if spec.Features, err = counters.ParseFeatureSet(o.features); err != nil {
		return cli.Usagef("-features: %w", err)
	}
	// the daemon is always instrumented: /metrics is part of its API
	flush, err := o.tm.StartAlways("dfserved", stderr)
	if err != nil {
		return err
	}
	defer flush()

	st, err := modelstore.Open(o.store)
	if err != nil {
		return err
	}
	var refs modelRefs
	refs.forecast, refs.deviation, refs.advisor = daemon.RefNames(o.dataset, o.seed, spec)
	cfg, err := provision(ctx, o, spec, refs, st, stderr)
	if err != nil {
		return err
	}
	srv := serve.New(cfg)
	defer srv.Drain()

	stopReload := startReloader(ctx, o, st, srv, refs, stderr)
	defer stopReload()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "dfserved: serving %s (m=%d k=%d) on http://%s\n", o.dataset, o.m, o.k, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "dfserved: draining...")
	srv.Drain() // in-flight requests complete; new ones get 503
	shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		return err
	}
	<-errc // Serve has returned http.ErrServerClosed
	fmt.Fprintln(stderr, "dfserved: drained, bye")
	return nil
}
