// Command dfserved is the forecast-serving daemon: it trains (or loads
// from a modelstore) the campaign's forecaster, deviation model, and
// scheduling advisor, and serves them over HTTP/JSON with prediction
// caching, load shedding, and graceful drain (internal/serve). A forecast
// is answered as soon as the model is free; requests that arrive while a
// model call runs are answered together by the next one.
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
	"syscall"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/cluster"
	"dragonvar/internal/core"
	"dragonvar/internal/counters"
	"dragonvar/internal/daemon"
	"dragonvar/internal/dataset"
	"dragonvar/internal/modelstore"
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
	if err := cli.Faults(o.campaign()); err != nil {
		return err
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

// campaign is the cluster config of the training campaign.
func (o options) campaign() cluster.Config {
	cfg := cluster.Config{Days: o.days, Seed: o.seed, FaultSpec: o.faults}
	if o.small {
		cfg.Machine = topology.Small()
	}
	return cfg
}

// loadCampaign loads (or generates) the training campaign.
func loadCampaign(ctx context.Context, o options, stderr io.Writer) (*dataset.Campaign, error) {
	fmt.Fprintf(stderr, "dfserved: loading campaign (days=%g seed=%d cache=%q)...\n", o.days, o.seed, o.cache)
	camp, _, err := core.LoadOrGenerateCtx(ctx, core.CampaignConfig{Cluster: o.campaign(), CachePath: o.cache})
	return camp, err
}

// storedIDs returns the content ids sv's refs point at, in ServedKinds
// order: the reload poll compares them with the served ones.
func storedIDs(st *modelstore.Store, sv daemon.Serving) (ids [len(daemon.ServedKinds)]string, err error) {
	for i, kind := range daemon.ServedKinds {
		if ids[i], _, err = st.Resolve(sv.Ref(kind)); err != nil {
			return ids, err
		}
	}
	return ids, nil
}

// load loads the models sv's refs point at, each with the content id its
// ref resolved to when it was read.
func load(st *modelstore.Store, sv daemon.Serving) (m serve.Models, err error) {
	if m.Forecaster, m.ForecastMeta, m.ForecastID, err = st.GetForecaster(sv.Ref(modelstore.KindForecaster)); err != nil {
		return m, err
	}
	if m.GBR, m.GBRMeta, m.GBRID, err = st.GetGBR(sv.Ref(modelstore.KindGBR)); err != nil {
		return m, err
	}
	m.Adv, _, m.AdvisorID, err = st.GetAdvisor(sv.Ref(modelstore.KindAdvisor))
	return m, err
}

// provision returns a fully-populated serve.Config, training whatever the
// store is missing (or everything, with -retrain) and loading the rest.
// When every model is already in the store, no campaign is touched.
func provision(ctx context.Context, o options, sv daemon.Serving, st *modelstore.Store, stderr io.Writer) (serve.Config, error) {
	cfg := o.serve
	var camp *dataset.Campaign
	for _, kind := range daemon.ServedKinds {
		ref := sv.Ref(kind)
		if !o.retrain && st.Has(ref) {
			continue
		}
		if camp == nil {
			var err error
			if camp, err = loadCampaign(ctx, o, stderr); err != nil {
				return cfg, err
			}
		}
		fmt.Fprintf(stderr, "dfserved: training %s %s...\n", kind, ref)
		model, meta, err := sv.Train(camp, kind, o.seed)
		if err != nil {
			return cfg, err
		}
		id, err := st.Put(ref, meta, model)
		if err != nil {
			return cfg, err
		}
		fmt.Fprintf(stderr, "dfserved: stored %s -> %s\n", ref, id[:12])
	}
	m, err := load(st, sv)
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
func startReloader(ctx context.Context, o options, st *modelstore.Store, srv *serve.Server, sv daemon.Serving, stderr io.Writer) func() {
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
			if err := maybeReload(st, srv, sv, stderr); err != nil {
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
func maybeReload(st *modelstore.Store, srv *serve.Server, sv daemon.Serving, stderr io.Writer) error {
	curF, curD, curA := srv.ModelIDs()
	ids, err := storedIDs(st, sv)
	if err != nil {
		return err
	}
	if ids == [...]string{curF, curD, curA} {
		return nil
	}
	m, err := load(st, sv)
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
	sv := daemon.Serving{Dataset: o.dataset, Seed: o.seed, Spec: spec, Fast: o.fast}
	cfg, err := provision(ctx, o, sv, st, stderr)
	if err != nil {
		return err
	}
	srv := serve.New(cfg)
	defer srv.Drain()

	stopReload := startReloader(ctx, o, st, srv, sv, stderr)
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
