// Package daemon implements dfvard's continuous-operation loop: an
// endless sequence of seeded campaign epochs whose completed runs stream
// into an append-only windowed dataset, with models retrained on a seal
// schedule (or early, on forecast drift) and published to a modelstore
// for live dfserved replicas to hot-reload.
//
// The loop is crash-safe and byte-deterministic: all durable state (the
// run stream's WAL and sealed segments, the CRC-framed progress
// checkpoint, the publish log) is a pure function of the seed and the
// configuration, and every step is either idempotent or replayed from
// the checkpoint on resume. A daemon SIGKILL'd at any instant and
// restarted produces byte-identical segments, publish log, and model
// refs to one that was never interrupted.
package daemon

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"dragonvar/internal/advisor"
	"dragonvar/internal/apps"
	"dragonvar/internal/cluster"
	"dragonvar/internal/core"
	"dragonvar/internal/counters"
	"dragonvar/internal/dataset"
	"dragonvar/internal/framelog"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/monitor"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// Config parameterizes a Daemon. StateDir and Store are required; every
// other field has a default. All fields except Workers, Monitor, and
// Logf are part of the daemon's identity digest — resuming a StateDir
// with a different identity is refused rather than silently diverging.
type Config struct {
	// StateDir holds the run stream (stream/), the progress checkpoint
	// (checkpoint.gob), and the publish log (published.json).
	StateDir string
	// Store is the modelstore retrained models are published to.
	Store *modelstore.Store

	// Campaign parameters, applied to every epoch. Each epoch e is an
	// independent campaign seeded from (Seed, e), so the endless workload
	// is reproducible from Seed alone.
	Seed      int64
	Machine   topology.Config // zero value: topology.Cori()
	Routing   string          // cluster routing policy name ("" = default)
	Placement string          // placement policy name ("" = "firstfit")
	FaultSpec string          // faults.Parse spec ("" = perfect machine)
	EpochDays float64         // simulated days per epoch (default 7)

	// Ingest window bounds (dataset.StreamMeta): a window seals at
	// WindowRuns runs, or earlier when WindowSpan campaign-clock seconds
	// would be exceeded (0 disables the span bound).
	WindowRuns int // default 16
	WindowSpan float64

	// RetrainEvery schedules a retrain every N sealed windows (default
	// 4). DriftFactor triggers an early retrain when the rolling mean of
	// the last DriftWindow per-segment forecast MAPEs exceeds
	// DriftFactor× the serving model's training MAPE (defaults 1.5 and
	// 3; DriftFactor <= 0 disables drift detection).
	RetrainEvery int
	DriftFactor  float64
	DriftWindow  int

	// Serving spec: which dataset's forecaster to train and the window
	// shape it serves, matching dfserved's flags so the published ref
	// names line up.
	Dataset  string              // default "AMG-128"
	M, K     int                 // defaults 5, 2
	Features counters.FeatureSet // zero value: app counters only
	// Fast selects the reduced training knobs (-fast in the CLIs).
	Fast bool

	// MaxEpochs stops the daemon after N epochs; 0 means run until the
	// context is cancelled.
	MaxEpochs int

	// Workers is the per-epoch campaign worker count (0 = automatic).
	// Not part of the identity digest: every worker count produces
	// byte-identical output.
	Workers int
	// Monitor, when non-nil, receives the live counter feed of every
	// epoch (and the daemon's own drift events).
	Monitor *monitor.Monitor
	// Logf, when non-nil, receives human-readable progress lines.
	Logf func(format string, args ...any)

	// afterIngest is a test hook called after every ingested run with
	// the stream's new total; tests use it to cancel mid-window.
	afterIngest func(total int64)
}

func (c Config) withDefaults() Config {
	if c.EpochDays <= 0 {
		c.EpochDays = 7
	}
	if c.WindowRuns <= 0 {
		c.WindowRuns = 16
	}
	if c.RetrainEvery <= 0 {
		c.RetrainEvery = 4
	}
	if c.DriftFactor == 0 {
		c.DriftFactor = 1.5
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = 3
	}
	if c.Dataset == "" {
		c.Dataset = "AMG-128"
	}
	if c.M <= 0 {
		c.M = 5
	}
	if c.K <= 0 {
		c.K = 2
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// streamMeta derives the run stream identity from the campaign
// parameters. The dataset skeleton comes from the same registry every
// epoch's cluster uses.
func (c Config) streamMeta() dataset.StreamMeta {
	ccfg := cluster.Config{Machine: c.Machine, Days: c.EpochDays, Seed: c.Seed,
		FaultSpec: c.FaultSpec, Placement: c.Placement}
	ccfg.Net.Routing = c.Routing
	routing, placement := ccfg.EffectivePolicies()
	meta := dataset.StreamMeta{
		Seed:       c.Seed,
		Days:       c.EpochDays,
		Faults:     c.FaultSpec,
		Routing:    routing,
		Placement:  placement,
		WindowRuns: c.WindowRuns,
		WindowSpan: c.WindowSpan,
	}
	for _, m := range apps.Registry() {
		meta.Datasets = append(meta.Datasets, dataset.DatasetInfo{
			Name: m.Name(), App: m.App.String(), Nodes: m.Nodes,
		})
	}
	return meta
}

// identityDigest binds the checkpoint to everything that shapes the
// daemon's deterministic output: the stream identity plus the machine,
// serving spec, and retraining schedule.
func (c Config) identityDigest(meta dataset.StreamMeta) string {
	// Fixed-order rendering, not gob: gob wire bytes embed process-global
	// type ids, so a resumed process (which decodes the WAL before
	// digesting) would hash different bytes than the process that wrote
	// the checkpoint header.
	h := sha256.New()
	fmt.Fprintf(h, "daemon-v1 stream=%s machine=%+v dataset=%q m=%d k=%d features=%q fast=%t retrain=%d driftf=%v driftw=%d",
		meta.Digest(), c.Machine, c.Dataset, c.M, c.K, c.Features.String(),
		c.Fast, c.RetrainEvery, c.DriftFactor, c.DriftWindow)
	return hex.EncodeToString(h.Sum(nil))
}

// RefNames derives the modelstore ref names the daemon publishes under —
// the exact scheme dfserved resolves, so a daemon and a serving replica
// pointed at the same store and spec meet on the same refs.
func RefNames(ds string, seed int64, spec core.ForecastSpec) (forecast, deviation, adv string) {
	slug := strings.ReplaceAll(spec.Features.String(), " + ", "+")
	forecast = fmt.Sprintf("forecast/%s/m%d-k%d-%s", ds, spec.M, spec.K, slug)
	deviation = fmt.Sprintf("deviation/%s", ds)
	adv = fmt.Sprintf("advisor/seed%d", seed)
	return
}

// daemonMetrics bundles the daemon's telemetry handles, captured once in
// New (nil/no-op when telemetry is disabled). Observation-only.
type daemonMetrics struct {
	runs          *telemetry.Counter
	retrains      *telemetry.Counter
	driftRetrains *telemetry.Counter
}

func newDaemonMetrics() daemonMetrics {
	return daemonMetrics{
		runs:          telemetry.C(telemetry.MDaemonRunsIngested),
		retrains:      telemetry.C(telemetry.MDaemonRetrains),
		driftRetrains: telemetry.C(telemetry.MDaemonDriftRetrains),
	}
}

// Daemon is the continuous-operation loop. Not safe for concurrent use;
// Run drives everything from one goroutine.
type Daemon struct {
	cfg  Config
	spec core.ForecastSpec
	fo   core.ForecastOptions
	do   core.DeviationOptions

	fRef, dRef, aRef string

	stream *dataset.StreamWriter
	ck     *checkpoint
	p      progress

	// cur is the serving forecaster of retrain p.Retrains (nil before
	// the first retrain); the drift detector scores live segments with
	// it.
	cur *nn.Forecaster

	tm daemonMetrics
}

// New opens (or creates) the daemon state under cfg.StateDir, replays
// whatever a previous process left behind, and returns a Daemon ready to
// Run. Resuming after a kill is the same call as starting fresh.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("daemon: Config.StateDir is required")
	}
	if cfg.Store == nil {
		return nil, errors.New("daemon: Config.Store is required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	meta := cfg.streamMeta()
	stream, err := dataset.OpenStream(filepath.Join(cfg.StateDir, "stream"), meta)
	if err != nil {
		return nil, err
	}
	ck, p, err := openCheckpoint(filepath.Join(cfg.StateDir, "checkpoint.gob"), cfg.identityDigest(meta))
	if err != nil {
		stream.Close()
		return nil, err
	}

	d := &Daemon{cfg: cfg, stream: stream, ck: ck, p: p, tm: newDaemonMetrics()}
	d.spec = core.ForecastSpec{M: cfg.M, K: cfg.K, Features: cfg.Features}
	if cfg.Fast {
		d.fo.NN = nn.Config{EmbedDim: 8, HiddenDim: 16, Epochs: 10, BatchSize: 16,
			LearningRate: 0.01, UseAttention: true, MaxSamples: 400}
		d.do.MaxSamples = 800
	}
	d.fRef, d.dRef, d.aRef = RefNames(cfg.Dataset, cfg.Seed, d.spec)

	if p.Retrains > 0 {
		// Reload the serving forecaster the checkpoint says we published
		// last. If the process died between a publish and its checkpoint
		// record, the ref may briefly be one retrain ahead; reconcile()
		// re-runs that retrain deterministically and overwrites cur
		// before anything reads it.
		f, _, err := cfg.Store.GetForecaster(d.fRef)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("daemon: resume: serving forecaster %s: %w", d.fRef, err)
		}
		d.cur = f
	}
	return d, nil
}

// Close releases the stream and checkpoint handles. The state directory
// can be reopened later.
func (d *Daemon) Close() error {
	err := d.stream.Close()
	if cerr := d.ck.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stream exposes the underlying run stream (read-only use: totals,
// segment counts). Tests and the CLI status line read it.
func (d *Daemon) Stream() *dataset.StreamWriter { return d.stream }

// Progress returns a snapshot of the daemon's checkpointed counters.
func (d *Daemon) Progress() (epoch, sealed, retrains, driftRetrains int) {
	return d.p.Epoch, d.p.Sealed, d.p.Retrains, d.p.DriftRetrains
}

// reconcile replays whatever the last process observed durably but never
// checkpointed: a retrain the predicate still demands, and seal events
// the stream persisted that the checkpoint hasn't seen. Both replays are
// deterministic, and the publishes they repeat are idempotent under
// compare-and-swap, so reconciling after a crash converges on exactly
// the uninterrupted history.
func (d *Daemon) reconcile(ctx context.Context) error {
	if err := d.maybeRetrain(ctx); err != nil {
		return err
	}
	for i := d.p.Sealed; i < d.stream.SealedSegments(); i++ {
		seg, err := d.stream.Segment(i)
		if err != nil {
			return err
		}
		d.cfg.Logf("daemon: reconcile: replaying seal of segment %d", i)
		if err := d.onSeal(ctx, seg); err != nil {
			return err
		}
	}
	return nil
}

// Run drives the loop: reconcile, then epochs until MaxEpochs or context
// cancellation. Returns the context error on cancellation — state is
// durable either way, and a later Run continues where this one stopped.
func (d *Daemon) Run(ctx context.Context) error {
	if err := d.reconcile(ctx); err != nil {
		return err
	}
	for d.cfg.MaxEpochs == 0 || d.p.Epoch < d.cfg.MaxEpochs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := d.runEpoch(ctx); err != nil {
			return err
		}
	}
	d.cfg.Logf("daemon: reached max epochs (%d), stopping", d.cfg.MaxEpochs)
	return nil
}

// epochSeed derives epoch e's campaign seed from the daemon seed.
func (d *Daemon) epochSeed(e int) int64 {
	return rng.NewLabeled(d.cfg.Seed, fmt.Sprintf("dfvard-epoch-%d", e)).Int63()
}

// runEpoch simulates the current epoch's campaign, streaming every
// merged run into the ingest window. On resume the first runs of the
// epoch were already ingested before the kill; they re-simulate
// byte-identically and are skipped by count.
func (d *Daemon) runEpoch(ctx context.Context) error {
	e := d.p.Epoch
	ctx, span := telemetry.Start(ctx, telemetry.SpanDaemonEpoch)
	defer span.End()

	skip := d.stream.TotalRuns() - d.p.RunsBefore
	if skip > 0 {
		d.cfg.Logf("daemon: epoch %d: resuming, skipping %d already-ingested runs", e, skip)
	}
	d.cfg.Logf("daemon: epoch %d: simulating %g days (seed %d)", e, d.cfg.EpochDays, d.cfg.Seed)

	var seen int64
	var ingestErr error
	ccfg := cluster.Config{
		Machine:   d.cfg.Machine,
		Days:      d.cfg.EpochDays,
		Seed:      d.epochSeed(e),
		FaultSpec: d.cfg.FaultSpec,
		Placement: d.cfg.Placement,
		Workers:   d.cfg.Workers,
		OnRunMerged: func(run *dataset.Run) {
			if ingestErr != nil {
				return
			}
			seen++
			if seen <= skip {
				return
			}
			sealed, err := d.stream.Append(run)
			if err != nil {
				ingestErr = err
				return
			}
			d.tm.runs.Inc()
			for _, seg := range sealed {
				if err := d.onSeal(ctx, seg); err != nil {
					ingestErr = err
					return
				}
			}
			if d.cfg.afterIngest != nil {
				d.cfg.afterIngest(d.stream.TotalRuns())
			}
		},
	}
	ccfg.Net.Routing = d.cfg.Routing
	if d.cfg.Monitor != nil {
		ccfg.Monitor = d.cfg.Monitor
	}

	cl, err := cluster.New(ccfg)
	if err != nil {
		return fmt.Errorf("daemon: epoch %d: %w", e, err)
	}
	_, runErr := cl.RunCampaignCtx(ctx)
	if ingestErr != nil {
		return fmt.Errorf("daemon: epoch %d ingest: %w", e, ingestErr)
	}
	if runErr != nil {
		return fmt.Errorf("daemon: epoch %d: %w", e, runErr)
	}

	d.p.Epoch = e + 1
	d.p.RunsBefore = d.stream.TotalRuns()
	if err := d.ck.append(d.p); err != nil {
		return err
	}
	d.cfg.Logf("daemon: epoch %d done: %d runs total, %d segments sealed", e, d.p.RunsBefore, d.p.Sealed)
	return nil
}

// onSeal processes one sealed window: score it for drift, checkpoint,
// and retrain if the schedule (or a drift breach) demands it. The
// checkpoint append is the commit point — a crash before it replays this
// seal on resume, a crash after it doesn't.
func (d *Daemon) onSeal(ctx context.Context, seg *dataset.Segment) error {
	d.p.Sealed++
	if d.cur != nil && d.cfg.DriftFactor > 0 {
		if mape := d.liveMAPE(seg); !math.IsNaN(mape) {
			d.p.LiveMAPEs = append(d.p.LiveMAPEs, mape)
			if len(d.p.LiveMAPEs) > d.cfg.DriftWindow {
				d.p.LiveMAPEs = d.p.LiveMAPEs[len(d.p.LiveMAPEs)-d.cfg.DriftWindow:]
			}
			live := mean(d.p.LiveMAPEs)
			if !d.p.DriftPending && len(d.p.LiveMAPEs) >= d.cfg.DriftWindow &&
				d.p.TrainMAPE > 0 && live > d.cfg.DriftFactor*d.p.TrainMAPE {
				d.p.DriftPending = true
				d.cfg.Logf("daemon: drift detected at segment %d: live MAPE %.4f > %.2f x train MAPE %.4f",
					seg.Index, live, d.cfg.DriftFactor, d.p.TrainMAPE)
				if d.cfg.Monitor != nil {
					t := 0.0
					if n := len(seg.Runs); n > 0 {
						t = seg.Runs[n-1].Start
					}
					d.cfg.Monitor.Emit(monitor.Event{
						T: t, Type: monitor.EventModelDrift, Router: -1, Group: -1,
						LiveMAPE: live, TrainMAPE: d.p.TrainMAPE,
					})
				}
			}
		}
	}
	if err := d.ck.append(d.p); err != nil {
		return err
	}
	return d.maybeRetrain(ctx)
}

// maybeRetrain evaluates the retraining predicate on checkpointed state
// only — the same decision falls out on replay as fell out live.
func (d *Daemon) maybeRetrain(ctx context.Context) error {
	if d.p.Sealed == 0 {
		return nil
	}
	scheduled := d.p.Sealed-d.p.LastRetrainSeal >= d.cfg.RetrainEvery
	if !scheduled && !d.p.DriftPending {
		return nil
	}
	reason := "scheduled"
	if d.p.DriftPending {
		reason = "drift"
	}
	return d.retrain(ctx, reason)
}

// retrain trains forecaster, deviation model, and advisor on every
// sealed window, publishes all three under compare-and-swap, and
// advances the checkpoint. Training input is AssembleSealed — never the
// open window — so an interrupted and an uninterrupted daemon train on
// identical bytes.
func (d *Daemon) retrain(ctx context.Context, reason string) error {
	_, span := telemetry.Start(ctx, telemetry.SpanDaemonRetrain)
	defer span.End()
	span.SetAttr("reason", reason)
	span.SetAttr("retrain", fmt.Sprintf("%d", d.p.Retrains))

	camp, err := d.stream.AssembleSealed()
	if err != nil {
		return err
	}
	ds := camp.Get(d.cfg.Dataset)
	if ds == nil {
		return fmt.Errorf("daemon: dataset %q not in stream (have %d datasets)", d.cfg.Dataset, len(camp.Datasets))
	}
	windows := ds.BuildWindowsGap(d.spec.Features, d.spec.M, d.spec.K, d.fo.Gaps)
	if len(ds.Runs) == 0 || len(windows) == 0 {
		// Not enough sealed data for this dataset yet: postpone. The
		// predicate stays armed, so the retrain fires on the first seal
		// that provides windows — deterministically, since this check is
		// a pure function of the sealed segments.
		d.cfg.Logf("daemon: retrain postponed at seal %d: no %s windows sealed yet", d.p.Sealed, d.cfg.Dataset)
		return nil
	}

	k := d.p.Retrains
	tseed := rng.NewLabeled(d.cfg.Seed, fmt.Sprintf("dfvard-retrain-%d", k)).Int63()
	d.cfg.Logf("daemon: retrain %d (%s) at seal %d: %d runs, %d windows",
		k, reason, d.p.Sealed, len(ds.Runs), len(windows))

	model, nwin, err := core.TrainServingForecaster(ds, d.spec, d.fo, tseed)
	if err != nil {
		return fmt.Errorf("daemon: retrain %d: %w", k, err)
	}
	trainMAPE := model.MAPE(forecastSamples(windows))
	gm, _, err := core.TrainServingDeviation(ds, d.do, tseed)
	if err != nil {
		return fmt.Errorf("daemon: retrain %d: %w", k, err)
	}
	adv := advisor.Train(camp, advisor.Options{})

	_, pubSpan := telemetry.Start(ctx, telemetry.SpanDaemonPublish)
	fid, err := d.cfg.Store.PutForecasterCAS(d.fRef, modelstore.Meta{
		Dataset: d.cfg.Dataset, Seed: d.cfg.Seed, Spec: d.spec.String(),
		M: d.spec.M, K: d.spec.K, FeatureNames: d.spec.Features.Names(),
	}, model, d.p.RefForecast)
	if err == nil {
		var did string
		did, err = d.cfg.Store.PutGBRCAS(d.dRef, modelstore.Meta{
			Dataset: d.cfg.Dataset, Seed: d.cfg.Seed,
			FeatureNames: core.DeviationFeatureNames(),
		}, gm, d.p.RefDeviation)
		if err == nil {
			var aid string
			aid, err = d.cfg.Store.PutAdvisorCAS(d.aRef, modelstore.Meta{Seed: d.cfg.Seed}, adv, d.p.RefAdvisor)
			if err == nil {
				d.p.RefForecast, d.p.RefDeviation, d.p.RefAdvisor = fid, did, aid
			}
		}
	}
	pubSpan.End()
	if err != nil {
		var moved *modelstore.RefMovedError
		if errors.As(err, &moved) {
			return fmt.Errorf("daemon: retrain %d: %w (another publisher owns this store; refusing to clobber)", k, err)
		}
		return fmt.Errorf("daemon: retrain %d publish: %w", k, err)
	}

	wasDrift := d.p.DriftPending
	d.p.Retrains = k + 1
	d.p.LastRetrainSeal = d.p.Sealed
	d.p.DriftPending = false
	if wasDrift {
		d.p.DriftRetrains++
	}
	d.p.TrainMAPE = trainMAPE
	d.p.LiveMAPEs = nil
	d.p.Published = append(d.p.Published, publication{
		Retrain: k, Seal: d.p.Sealed, Reason: reason, TrainMAPE: trainMAPE,
		Windows: nwin, Forecast: d.p.RefForecast, Deviation: d.p.RefDeviation,
		Advisor: d.p.RefAdvisor,
	})
	if err := d.writePublishLog(); err != nil {
		return err
	}
	if err := d.ck.append(d.p); err != nil {
		return err
	}
	d.cur = model
	d.tm.retrains.Inc()
	if wasDrift {
		d.tm.driftRetrains.Inc()
	}
	d.cfg.Logf("daemon: retrain %d published: forecast=%s train MAPE %.4f (%d windows, blamed %d users)",
		k, short(d.p.RefForecast), trainMAPE, nwin, len(adv.Blamed()))
	return nil
}

// writePublishLog re-renders published.json from the checkpointed
// publish history. Atomic and byte-deterministic (no timestamps).
func (d *Daemon) writePublishLog() error {
	err := framelog.AtomicWrite(filepath.Join(d.cfg.StateDir, "published.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(d.p.Published)
	})
	if err != nil {
		return fmt.Errorf("daemon: publish log: %w", err)
	}
	return nil
}

// liveMAPE scores the serving forecaster on the windows of one freshly
// sealed segment — the live half of the drift comparison. NaN when the
// segment holds no scorable windows of the serving dataset.
func (d *Daemon) liveMAPE(seg *dataset.Segment) float64 {
	var runs []*dataset.Run
	for _, r := range seg.Runs {
		if r.Dataset == d.cfg.Dataset {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return math.NaN()
	}
	tmp := &dataset.Dataset{Name: d.cfg.Dataset, Runs: runs}
	windows := tmp.BuildWindowsGap(d.spec.Features, d.spec.M, d.spec.K, d.fo.Gaps)
	if len(windows) == 0 {
		return math.NaN()
	}
	return d.cur.MAPE(forecastSamples(windows))
}

func forecastSamples(windows []dataset.Window) []nn.Sample {
	samples := make([]nn.Sample, len(windows))
	for i, w := range windows {
		samples[i] = nn.Sample{Steps: w.Steps, Target: w.Target}
	}
	return samples
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
