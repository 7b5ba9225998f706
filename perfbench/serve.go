package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"dragonvar/internal/advisor"
	"dragonvar/internal/cluster"
	"dragonvar/internal/core"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
	"dragonvar/internal/serve"
	"dragonvar/internal/telemetry"
)

const (
	// serveDataset and serveSpec are dfserved's defaults.
	serveDataset = "AMG-128"
	// baseRate is the fixed rate of the latency phases and the first rung
	// of the throughput ladder.
	baseRate = 500.0
	// p99Limit is the latency limit a ladder rung must meet.
	p99Limit = 10.0 // ms
	// maxRate ends the ladder should every rung pass.
	maxRate = 256000.0
	// poolSize is the window pool of the cached phase.
	poolSize = 64
	// sampleEvery picks the responses checked against a direct Predict.
	sampleEvery = 50
	// serveSetups is how many times the untraced run sets up.
	serveSetups = 3
)

var serveSpec = core.ForecastSpec{M: 5, K: 2}

// serveModels is the serve workload's set-up product.
type serveModels struct {
	cfg  serve.Config
	m, h int
	hash string
}

// setupServe generates the anchor campaign and trains the three served
// models on it with the workload seed.
func setupServe(o options) (*serveModels, error) {
	spec := campaignSpec{routing: "adaptive"}
	c, err := cluster.New(spec.config(anchorSeed, simWorkers))
	if err != nil {
		return nil, err
	}
	camp, err := c.RunCampaign()
	if err != nil {
		return nil, err
	}
	want, _ := spec.anchor(anchorSeed)
	if got := contentHash(camp); got != want {
		return nil, fmt.Errorf("serve campaign content hash %s, anchor %s", got, want)
	}
	ds := camp.Get(serveDataset)
	if ds == nil {
		return nil, fmt.Errorf("campaign has no %s dataset", serveDataset)
	}
	fc, _, err := core.TrainServingForecaster(ds, serveSpec, core.ForecastOptions{}, o.seed)
	if err != nil {
		return nil, err
	}
	dev, _, err := core.TrainServingDeviation(ds, core.DeviationOptions{}, o.seed)
	if err != nil {
		return nil, err
	}
	sm := &serveModels{hash: gobHash(camp)}
	sm.m, sm.h = fc.WindowShape()
	sm.cfg = serve.Config{
		Forecaster: fc,
		ForecastMeta: modelstore.Meta{Dataset: serveDataset, Seed: o.seed, Spec: serveSpec.String(),
			M: serveSpec.M, K: serveSpec.K, FeatureNames: serveSpec.Features.Names()},
		GBR:     dev,
		GBRMeta: modelstore.Meta{Dataset: serveDataset, Seed: o.seed, FeatureNames: core.DeviationFeatureNames()},
		Adv:     advisor.Train(camp, advisor.Options{}),
	}
	return sm, nil
}

// server is one in-process serve.Server on a loopback listener that
// speaks HTTP/1.1 and unencrypted HTTP/2.
type server struct {
	srv   *serve.Server
	http  *http.Server
	base  string
	done  chan error
	model *nn.Forecaster
}

// startServer builds the server; enable telemetry first for its metrics.
func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	s := &server{srv: serve.New(cfg), base: "http://" + ln.Addr().String(), done: make(chan error, 1), model: cfg.Forecaster}
	s.http = &http.Server{Handler: s.srv.Handler(), Protocols: &protos}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the service, closes the listener and waits for Serve.
func (s *server) stop() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// windows draws n request windows from the stream named label: every
// phase has its own stream, so no phase can hit another's cache entries.
func windows(seed int64, label string, n, m, h int) ([][][]float64, [][]byte) {
	s := rng.NewLabeled(seed, "perfbench-"+label)
	ws := make([][][]float64, n)
	payloads := make([][]byte, n)
	for i := range ws {
		w := make([][]float64, m)
		for st := range w {
			row := make([]float64, h)
			for j := range row {
				row[j] = s.Float64() * 4
			}
			w[st] = row
		}
		ws[i] = w
		blob, err := json.Marshal(map[string]any{"window": w})
		if err != nil {
			panic(err) // finite floats always encode
		}
		payloads[i] = blob
	}
	return ws, payloads
}

// servePlan is the run's phase schedule; durations scale with --seconds.
type servePlan struct {
	seed                            int64
	m, h                            int
	distinctDur, pooledDur, rungDur time.Duration
}

// newServePlan splits the timed region: 30% each for the distinct and the
// pooled phase, 10% per ladder rung (the ladder usually climbs two to four
// rungs).
func newServePlan(o options, m, h int) servePlan {
	unit := time.Duration(o.seconds * float64(time.Second) / 10)
	return servePlan{seed: o.seed, m: m, h: h, distinctDur: 3 * unit, pooledDur: 3 * unit, rungDur: unit}
}

// serveRun is everything one pass over the phases observed.
type serveRun struct {
	distinct, pooled *phaseResult
	rungs            []*phaseResult
	rates            []float64 // rate of each rung
	maxRPS           float64
	wall             time.Duration
	cacheHitRatio    float64 // pooled phase, from the server's counters
}

// passes reports whether a phase met the ladder's limit: every request
// answered, none shed, no growing backlog and p99 within the limit.
func passes(r *phaseResult) bool {
	return !r.aborted && r.shed == 0 && r.errs == 0 && r.ok == r.sent && r.p99() <= p99Limit
}

// runPhases drives the distinct phase, the pooled phase and the rate
// ladder. With ladder nil the ladder doubles from baseRate until a rung
// fails; otherwise it replays exactly those rates.
func (p servePlan) runPhases(s *server, tr *tracer, parent int64, ladder []float64, reg *telemetry.Registry, out *outcome) (*serveRun, error) {
	g := newGenerator(s.base, tr)
	defer g.close()
	run := &serveRun{}
	t0 := time.Now()

	ws, payloads := windows(p.seed, "distinct", int(baseRate*p.distinctDur.Seconds())+1, p.m, p.h)
	run.distinct = g.run(phase{name: "distinct", rate: baseRate, dur: p.distinctDur, payloads: payloads, sampleAt: sampleEvery}, parent)
	verify("distinct", run.distinct, ws, s.model, false, out)

	// the pool is primed before its phase so every timed request takes the
	// cache path
	pool, poolPayloads := windows(p.seed, "pooled", poolSize, p.m, p.h)
	prime := g.run(phase{name: "prime", rate: baseRate, dur: time.Duration(float64(poolSize) / baseRate * float64(time.Second)), payloads: poolPayloads}, parent)
	if prime.ok != prime.sent || prime.sent != poolSize {
		return nil, fmt.Errorf("priming the pool: %d of %d answered", prime.ok, poolSize)
	}
	hits0, miss0 := counter(reg, telemetry.MServeCacheHits), counter(reg, telemetry.MServeCacheMisses)
	run.pooled = g.run(phase{name: "pooled", rate: baseRate, dur: p.pooledDur, payloads: poolPayloads, sampleAt: sampleEvery}, parent)
	if hits, misses := counter(reg, telemetry.MServeCacheHits)-hits0, counter(reg, telemetry.MServeCacheMisses)-miss0; hits+misses > 0 {
		run.cacheHitRatio = float64(hits) / float64(hits+misses)
	}
	verify("pooled", run.pooled, pool, s.model, true, out)

	// the distinct phase is the ladder's first rung; the ladder's result is
	// the last rung of the unbroken run of passing rungs from the first
	climbing := passes(run.distinct)
	if climbing {
		run.maxRPS = achieved(run.distinct)
	}
	replay := ladder != nil
	rate := baseRate
	for i := 0; ; i++ {
		if replay {
			if i == len(ladder) {
				break
			}
			rate = ladder[i]
		} else if rate *= 2; rate > maxRate {
			break
		}
		label := fmt.Sprintf("rung-%g", rate)
		ws, payloads := windows(p.seed, label, int(rate*p.rungDur.Seconds())+1, p.m, p.h)
		r := g.run(phase{name: "rung", rate: rate, dur: p.rungDur, payloads: payloads, sampleAt: sampleEvery}, parent)
		verify(label, r, ws, s.model, false, out)
		run.rungs = append(run.rungs, r)
		run.rates = append(run.rates, rate)
		ok := passes(r)
		if climbing = climbing && ok; climbing {
			run.maxRPS = achieved(r)
		}
		if !replay && !ok {
			break
		}
	}
	run.wall = time.Since(t0)
	return run, nil
}

// achieved is a phase's answered requests per second of wall time.
func achieved(r *phaseResult) float64 { return float64(r.ok) / r.wall.Seconds() }

// verify checks the sampled responses against the model called directly
// and that the cache was (or was not) used, and counts the phase's
// requests.
func verify(label string, r *phaseResult, ws [][][]float64, model *nn.Forecaster, wantCached bool, out *outcome) {
	out.attempted += r.sent
	out.failed += r.sent - r.ok
	for i, got := range r.samples {
		want := model.Predict(ws[i%len(ws)])
		out.check(got == want, "%s request %d: served %v, direct Predict %v", label, i, got, want)
	}
	if wantCached {
		out.check(r.cached == r.ok, "%s: %d of %d responses came from the cache, want all", label, r.cached, r.ok)
	} else {
		out.check(r.cached == 0, "%s: %d responses came from the cache, want none", label, r.cached)
	}
}

func counter(reg *telemetry.Registry, name string) int64 {
	if reg == nil {
		return 0
	}
	return reg.Counter(name).Value()
}

func runServe(o options) (*outcome, error) {
	out := newOutcome()
	// set-up: the untraced run trains the models serveSetups times, each
	// from a fresh campaign, and serves the last; setup_s is the median
	// training set-up plus the server start
	setups := serveSetups
	if o.trace {
		setups = 1
	}
	var sm *serveModels
	var times []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		next, err := setupServe(o)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if sm != nil {
			out.check(next.hash == sm.hash, "set-up %d: campaign hash %s, earlier %s", i, next.hash, sm.hash)
		}
		sm = next
	}
	out.prov["campaign_hashes"] = []string{sm.hash}
	out.prov["campaign_seeds"] = []int64{anchorSeed}
	plan := newServePlan(o, sm.m, sm.h)
	// the campaign the models were trained on is garbage now; collect it so
	// its collection does not land in the timed phases
	runtime.GC()
	if o.trace {
		return out, traceServe(sm, plan, out)
	}
	t0 := time.Now()
	s, err := startServer(sm.cfg)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", median(times)+time.Since(t0).Seconds())
	run, err := plan.runPhases(s, nil, 0, nil, nil, out)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	out.set("op_ms", median(run.distinct.lat))
	out.prov["ladder_rps"] = run.rates
	return out, nil
}

func traceServe(sm *serveModels, plan servePlan, out *outcome) error {
	s, err := startServer(sm.cfg)
	if err != nil {
		return err
	}
	plain, err := plan.runPhases(s, nil, 0, nil, nil, out)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	reg, disable := enableRegistry()
	defer disable()
	tr := newTracer()
	s, err = startServer(sm.cfg)
	if err != nil {
		return err
	}
	root := tr.begin(0, "serve")
	traced, err := plan.runPhases(s, tr, root.id, plain.rates, reg, out)
	root.finish()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	snap := reg.Snapshot()

	// the model alone, no HTTP: one window, and a full batch
	ws, _ := windows(plan.seed, "direct", 64, plan.m, plan.h)
	batch := make([]nn.Sample, len(ws))
	for i, w := range ws {
		batch[i] = nn.Sample{Steps: w}
	}
	out.set("nn.predict_b1_ms", timePredict(sm.cfg.Forecaster, batch[:1]))
	out.set("nn.predict_b64_ms", timePredict(sm.cfg.Forecaster, batch))

	spans := tr.records()
	layers := byLayer(spans)
	var phases []string
	for name := range layers {
		if strings.HasPrefix(name, "loadgen.") {
			phases = append(phases, name)
		}
	}
	out.set("serve.request_s", selfSeconds(layers, "serve.request"))
	out.set("loadgen.idle_s", selfSeconds(layers, phases...))
	out.set("trace.overhead_s", (traced.wall - plain.wall).Seconds())
	out.set("trace.coverage", coverage(spans, "serve"))
	var lag []float64
	for _, r := range append([]*phaseResult{traced.distinct, traced.pooled}, traced.rungs...) {
		lag = append(lag, r.lag...)
	}
	out.set("loadgen.lag_p99_ms", quantile(lag, 0.99))
	// the tail metrics spread too widely between runs on the benchmark host
	// to carry a bound, so they are reported here, from the untraced pass
	out.set("serve.p99_ms", plain.distinct.p99())
	out.set("serve.cached_p99_ms", plain.pooled.p99())
	out.set("serve.max_rps", plain.maxRPS)
	if h, ok := snap.Histograms[telemetry.MServeBatchSize]; ok && h.Count > 0 {
		out.set("serve.batch_size_mean", h.Sum/float64(h.Count))
	}
	out.set("serve.cache_hit_ratio", traced.cacheHitRatio)
	out.set("serve.shed", float64(snap.Counters[telemetry.MServeShed]))
	out.set("serve.errors", float64(snap.Counters[telemetry.MServeErrors]))
	return nil
}

// timePredict is the median time of Forecaster.PredictAll on samples.
func timePredict(f *nn.Forecaster, samples []nn.Sample) float64 {
	var ms []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		f.PredictAll(samples)
		ms = append(ms, millis(time.Since(t0)))
	}
	return median(ms)
}
