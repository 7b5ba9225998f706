package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dragonvar/internal/cluster"
	"dragonvar/internal/engine"
	"dragonvar/internal/telemetry"
)

// WorkerConfig parameterizes a worker process.
type WorkerConfig struct {
	// Coord is the coordinator base URL, e.g. "http://127.0.0.1:9631".
	Coord string

	// Name is an informational label sent at join (hostname, pid).
	Name string

	// Log receives human-oriented progress lines; nil discards them.
	Log io.Writer

	// afterLease, when set (tests only), runs after a lease is granted
	// and before the unit simulates — the seam chaos tests use to hang or
	// kill a worker while it provably holds a lease.
	afterLease func(unit, round int)
}

// Worker joins a coordinator, leases units, simulates them on a local
// deterministically re-derived plan list, and reports outcomes.
type Worker struct {
	cfg    WorkerConfig
	client *client
	log    io.Writer

	id   string
	join JoinResponse
	sim  *cluster.UnitSim

	// session is the worker's dist/worker span, rooted under the campaign
	// trace via the traceparent handed back at join or with the first
	// lease (nil when telemetry is off). sessionCtx carries it so lease
	// RPCs propagate the session's identity to the coordinator.
	session    *telemetry.Span
	sessionCtx context.Context
}

// NewWorker validates the config; the coordinator is first contacted in
// Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coord == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	return &Worker{cfg: cfg, client: newClient(cfg.Coord, 8), log: log}, nil
}

// Run executes the worker loop until the campaign completes or ctx is
// cancelled. Cancellation means graceful drain: the in-flight unit is
// finished and its result delivered (with retries, on a fresh context),
// but no new lease is taken. Transient coordinator failures are retried
// with capped exponential backoff and jitter; a coordinator that forgot
// this worker (restart) is rejoined transparently.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.joinAndPrepare(ctx); err != nil {
		return err
	}
	defer w.endSession()
	if w.join.Traceparent != "" {
		w.startSession(w.join.Traceparent)
	}
	units := 0
	for {
		if ctx.Err() != nil {
			fmt.Fprintf(w.log, "dist: worker %s draining after %d units\n", w.id, units)
			return nil
		}
		var lease LeaseResponse
		err := w.client.post(w.withSession(ctx), "/v1/lease", LeaseRequest{WorkerID: w.id}, &lease)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(w.log, "dist: worker %s draining after %d units\n", w.id, units)
				return nil
			}
			var he *HTTPError
			if errors.As(err, &he) && he.Status == http.StatusNotFound {
				// coordinator restarted and forgot us: rejoin
				if err := w.rejoin(ctx); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("dist: lease: %w", err)
		}
		switch lease.Status {
		case StatusDone:
			fmt.Fprintf(w.log, "dist: worker %s done after %d units\n", w.id, units)
			return nil
		case StatusWait:
			d := time.Duration(lease.RetryAfterSeconds * float64(time.Second))
			if d <= 0 {
				d = 500 * time.Millisecond
			}
			if engine.SleepFor(ctx, d) != nil {
				continue // top of loop handles the drain message
			}
			continue
		case StatusLease:
			if err := w.execute(ctx, lease); err != nil {
				return err
			}
			units++
		default:
			return fmt.Errorf("dist: lease: unknown status %q", lease.Status)
		}
	}
}

// joinAndPrepare registers with the coordinator and builds the local
// simulation state, verifying both processes derived the same plan list.
func (w *Worker) joinAndPrepare(ctx context.Context) error {
	var join JoinResponse
	err := w.client.post(ctx, "/v1/join", JoinRequest{ProtocolVersion: ProtocolVersion, Name: w.cfg.Name}, &join)
	if err != nil {
		return fmt.Errorf("dist: join: %w", err)
	}
	sim, err := cluster.NewUnitSim(join.Cluster)
	if err != nil {
		return fmt.Errorf("dist: build simulation from the coordinator's config: %w", err)
	}
	if sim.PlanDigest() != join.PlanDigest {
		return fmt.Errorf("dist: plan digest mismatch: coordinator %.12s…, worker %.12s… (differing binaries or configs)",
			join.PlanDigest, sim.PlanDigest())
	}
	if sim.NumUnits() != join.NumUnits {
		return fmt.Errorf("dist: unit count mismatch: coordinator %d, worker %d", join.NumUnits, sim.NumUnits())
	}
	w.id, w.join, w.sim = join.WorkerID, join, sim
	fmt.Fprintf(w.log, "dist: joined %s as %s: %d units, plan %.12s…\n", w.cfg.Coord, w.id, join.NumUnits, join.PlanDigest)
	return nil
}

// startSession opens the worker's dist/worker session span, parented into
// the campaign trace when tp parses and as a fresh root otherwise (the
// malformed-header fallback). Idempotent; no-op when telemetry is off.
func (w *Worker) startSession(tp string) {
	if w.session != nil || !telemetry.Enabled() {
		return
	}
	ctx := context.Background()
	if sc, err := telemetry.ParseTraceparent(tp); err == nil {
		ctx = telemetry.ContextWithRemote(ctx, sc)
	}
	sctx, sp := telemetry.Start(ctx, telemetry.SpanDistWorker)
	if sp == nil {
		return
	}
	sp.SetAttr("worker", w.id)
	w.session, w.sessionCtx = sp, sctx
}

// withSession grafts the session span's identity onto ctx so RPCs made
// under it carry a traceparent header. Returns ctx unchanged before the
// session starts.
func (w *Worker) withSession(ctx context.Context) context.Context {
	if w.sessionCtx == nil {
		return ctx
	}
	return telemetry.WithSpanFrom(ctx, w.sessionCtx)
}

// endSession closes the session span (nil-safe).
func (w *Worker) endSession() {
	w.session.End()
}

// rejoin re-registers after a coordinator restart, keeping the existing
// simulation state (the digest check guards against a different campaign).
func (w *Worker) rejoin(ctx context.Context) error {
	var join JoinResponse
	if err := w.client.post(ctx, "/v1/join", JoinRequest{ProtocolVersion: ProtocolVersion, Name: w.cfg.Name}, &join); err != nil {
		return fmt.Errorf("dist: rejoin: %w", err)
	}
	if join.PlanDigest != w.join.PlanDigest {
		return fmt.Errorf("dist: rejoin: coordinator now runs a different campaign (plan %.12s…, had %.12s…)",
			join.PlanDigest, w.join.PlanDigest)
	}
	w.id, w.join = join.WorkerID, join
	fmt.Fprintf(w.log, "dist: rejoined as %s\n", w.id)
	return nil
}

// execute simulates one leased unit and delivers its outcome. The unit is
// finished and reported even when ctx is cancelled mid-simulation — that
// is the graceful-drain contract — so result delivery runs on a fresh
// context with its own timeout.
func (w *Worker) execute(ctx context.Context, lease LeaseResponse) error {
	if w.cfg.afterLease != nil {
		w.cfg.afterLease(lease.Unit, lease.Round)
	}
	// a worker that joined before the first round roots its session span
	// off the campaign traceparent delivered with the grant
	w.startSession(lease.CampaignTraceparent)
	// the unit's spans parent to the coordinator's dist/unit lease span;
	// a missing or malformed traceparent degrades to a local root
	execCtx := context.Background()
	if sc, perr := telemetry.ParseTraceparent(lease.Traceparent); perr == nil {
		execCtx = telemetry.ContextWithRemote(execCtx, sc)
	}
	execCtx, execSpan := telemetry.Start(execCtx, telemetry.SpanDistUnitExec)
	execSpan.SetAttr("worker", w.id)
	execSpan.SetAttr("unit", fmt.Sprint(lease.Unit))
	execSpan.SetAttr("round", fmt.Sprint(lease.Round))
	execSpan.SetAttr("attempt", fmt.Sprint(lease.Attempt))
	defer execSpan.End()
	// heartbeat while the (possibly long) simulation runs, so the
	// coordinator can tell "slow" from "dead"
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		interval := time.Duration(w.join.HeartbeatSeconds * float64(time.Second))
		if interval <= 0 {
			interval = 5 * time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				hbCtx, cancel := context.WithTimeout(context.Background(), interval)
				w.client.once(hbCtx, "/v1/heartbeat", mustJSON(HeartbeatRequest{WorkerID: w.id, LeaseID: lease.LeaseID}), nil)
				cancel()
			}
		}
	}()

	res := ResultRequest{WorkerID: w.id, LeaseID: lease.LeaseID, Unit: lease.Unit, Round: lease.Round}
	_, simSpan := telemetry.Start(execCtx, telemetry.SpanDistSimulate)
	err := w.sim.Apply(lease.Overrides)
	if err == nil {
		var out cluster.UnitOutcome
		out, err = w.sim.Simulate(lease.Unit)
		if err == nil {
			if out.Drained {
				res.Drained = true
				res.DrainAt = out.DrainAt
			} else {
				res.RunGob, err = EncodeRun(out.Run)
			}
		}
	}
	simSpan.End()
	if err != nil {
		// report the failure so the coordinator can abort loudly instead
		// of waiting out the lease
		res.Error = err.Error()
	}
	close(hbStop)
	hbWG.Wait()

	deliverCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// the deliver span parents to the unit-exec span but rides the fresh
	// delivery context, covering the RPC including its retries
	dctx, deliverSpan := telemetry.Start(execCtx, telemetry.SpanDistDeliver)
	deliverCtx = telemetry.WithSpanFrom(deliverCtx, dctx)
	var ack ResultResponse
	derr := w.client.post(deliverCtx, "/v1/result", res, &ack)
	deliverSpan.End()
	if derr != nil {
		var he *HTTPError
		if errors.As(derr, &he) && he.Status == http.StatusNotFound {
			return nil // coordinator restarted; next lease rejoins
		}
		return fmt.Errorf("dist: deliver unit %d: %w", lease.Unit, derr)
	}
	if ack.Status == StatusStale {
		fmt.Fprintf(w.log, "dist: unit %d result was stale (re-dispatched elsewhere)\n", lease.Unit)
	}
	if err != nil {
		return fmt.Errorf("dist: unit %d: %w", lease.Unit, err)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the protocol types always marshal
	}
	return b
}
