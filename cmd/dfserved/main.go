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
//	dfserved -loadgen [-target URL] [-rps N] [-duration D] [-distinct] [-out FILE]
//	    Drive a running daemon at a target request rate and write a
//	    latency-histogram benchmark report (make bench-serve). -distinct
//	    gives every request a unique window, measuring the uncached path.
//
//	dfserved -list [-store DIR]
//	    Print every model ref in the store.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	"dragonvar/internal/rng"
	"dragonvar/internal/serve"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

func main() { cli.Main("dfserved", run) }

type options struct {
	// modes
	loadgen bool
	list    bool

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

	// load generator
	target   string
	rps      float64
	duration time.Duration
	workers  int
	pool     int
	distinct bool
	out      string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("dfserved", stderr)
	var o options
	fs.BoolVar(&o.loadgen, "loadgen", false, "run as a load generator against -target instead of serving")
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

	fs.StringVar(&o.target, "target", "http://localhost:8600", "loadgen: base URL of the daemon")
	fs.Float64Var(&o.rps, "rps", 500, "loadgen: target requests per second")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "loadgen: how long to drive load")
	fs.IntVar(&o.workers, "workers", 64, "loadgen: concurrent request workers")
	fs.IntVar(&o.pool, "pool", 64, "loadgen: distinct request windows (reuse exercises the cache)")
	fs.BoolVar(&o.distinct, "distinct", false,
		"loadgen: use a fresh window for every request (cache-busting: measures the uncached model path)")
	fs.StringVar(&o.out, "out", "", "loadgen: write the JSON report here (default stdout)")

	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case o.list:
		return runList(o, stdout)
	case o.loadgen:
		return runLoadgen(o, stdout, stderr)
	default:
		return runServe(ctx, o, stdout, stderr)
	}
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

// --- load generator ---

// specProbe is the slice of /v1/spec the generator needs.
type specProbe struct {
	M              int      `json:"m"`
	WindowFeatures []string `json:"window_features"`
}

// benchReport is the BENCH_serve.json schema.
type benchReport struct {
	Target      string  `json:"target"`
	TargetRPS   float64 `json:"target_rps"`
	DurationSec float64 `json:"duration_seconds"`
	Distinct    bool    `json:"distinct,omitempty"` // cache-busting mode: every window unique
	Sent        int64   `json:"sent"`
	OK          int64   `json:"ok"`
	Cached      int64   `json:"cached"`
	Shed        int64   `json:"shed"`
	Errors      int64   `json:"errors"`
	AchievedRPS float64 `json:"achieved_rps"`

	Latency struct {
		MeanSec float64 `json:"mean"`
		P50Sec  float64 `json:"p50"`
		P90Sec  float64 `json:"p90"`
		P99Sec  float64 `json:"p99"`
		MaxSec  float64 `json:"max"`
	} `json:"latency_seconds"`
	Histogram []benchBucket `json:"latency_histogram"`
}

type benchBucket struct {
	LE    float64 `json:"le"` // upper bound in seconds; +Inf bucket omitted
	Count int64   `json:"count"`
}

func runLoadgen(o options, stdout, stderr io.Writer) error {
	base := strings.TrimSuffix(o.target, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Get(base + "/v1/spec")
	if err != nil {
		return fmt.Errorf("probe %s/v1/spec: %w", base, err)
	}
	var spec specProbe
	err = json.NewDecoder(resp.Body).Decode(&spec)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("probe %s/v1/spec: %w", base, err)
	}
	if spec.M <= 0 || len(spec.WindowFeatures) == 0 {
		return fmt.Errorf("daemon at %s serves no forecaster (spec: m=%d, %d features)",
			base, spec.M, len(spec.WindowFeatures))
	}

	if o.rps <= 0 {
		return fmt.Errorf("-rps must be positive")
	}
	interval := time.Duration(float64(time.Second) / o.rps)
	total := int(o.rps * o.duration.Seconds())

	// a fixed pool of synthetic windows: distinct enough to exercise the
	// model, reused enough to exercise the cache. -distinct gives every
	// request its own window instead, so no request can be answered from
	// the prediction cache — the uncached model path under load.
	if o.pool <= 0 {
		o.pool = 64
	}
	if o.distinct {
		o.pool = total
	}
	// distinct mode draws from its own stream so its windows never collide
	// with a pooled run's against the same daemon (same seed, shared RNG
	// prefix would re-hit the cache for the first -pool requests)
	label := "loadgen"
	if o.distinct {
		label = "loadgen-distinct"
	}
	s := rng.NewLabeled(o.seed, label)
	payloads := make([][]byte, o.pool)
	for i := range payloads {
		w := make([][]float64, spec.M)
		for st := range w {
			row := make([]float64, len(spec.WindowFeatures))
			for j := range row {
				row[j] = s.Float64() * 4
			}
			w[st] = row
		}
		payloads[i], _ = json.Marshal(map[string]any{"window": w})
	}
	mode := "cached"
	if o.distinct {
		mode = "distinct (cache-busting)"
	}
	fmt.Fprintf(stderr, "dfserved: loadgen %g rps for %v against %s (%d requests, %s windows)...\n",
		o.rps, o.duration, base, total, mode)

	var sent, ok, cached, shed, errs atomic.Int64
	lats := make([]float64, 0, total)
	var latMu sync.Mutex

	work := make(chan []byte, o.workers)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for payload := range work {
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/forecast", "application/json",
					strings.NewReader(string(payload)))
				lat := time.Since(t0).Seconds()
				if err != nil {
					errs.Add(1)
					continue
				}
				var fr struct {
					Cached bool `json:"cached"`
				}
				json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&fr)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					ok.Add(1)
					if fr.Cached {
						cached.Add(1)
					}
					latMu.Lock()
					lats = append(lats, lat)
					latMu.Unlock()
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					errs.Add(1)
				}
			}
		}()
	}

	start := time.Now()
	tick := time.NewTicker(interval)
	for i := 0; i < total; i++ {
		<-tick.C
		select {
		case work <- payloads[i%len(payloads)]:
			sent.Add(1)
		default:
			// all workers busy and the hand-off buffer is full: the target
			// can't absorb the offered rate; count it against the generator
			shed.Add(1)
		}
	}
	tick.Stop()
	close(work)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := benchReport{
		Target:      base,
		TargetRPS:   o.rps,
		DurationSec: o.duration.Seconds(),
		Distinct:    o.distinct,
		Sent:        sent.Load(),
		OK:          ok.Load(),
		Cached:      cached.Load(),
		Shed:        shed.Load(),
		Errors:      errs.Load(),
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(ok.Load()) / elapsed
	}
	sort.Float64s(lats)
	if n := len(lats); n > 0 {
		var sum float64
		for _, l := range lats {
			sum += l
		}
		rep.Latency.MeanSec = sum / float64(n)
		rep.Latency.P50Sec = lats[n/2]
		rep.Latency.P90Sec = lats[min(n-1, n*90/100)]
		rep.Latency.P99Sec = lats[min(n-1, n*99/100)]
		rep.Latency.MaxSec = lats[n-1]
	}
	rep.Histogram = make([]benchBucket, len(telemetry.LatencyBuckets))
	for i, le := range telemetry.LatencyBuckets {
		rep.Histogram[i].LE = le
	}
	for _, l := range lats {
		for i, le := range telemetry.LatencyBuckets {
			if l <= le {
				rep.Histogram[i].Count++
				break
			}
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if o.out == "" {
		_, err = stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(o.out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dfserved: loadgen: %d ok (%d cached, %.0f rps achieved), %d shed, %d errors; p50=%.2gs p99=%.2gs -> %s\n",
		rep.OK, rep.Cached, rep.AchievedRPS, rep.Shed, rep.Errors,
		rep.Latency.P50Sec, rep.Latency.P99Sec, o.out)
	if rep.OK == 0 {
		return fmt.Errorf("no request succeeded")
	}
	return nil
}
