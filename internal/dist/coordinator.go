package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/engine"
	"dragonvar/internal/telemetry"
)

// Config parameterizes a coordinator. The zero value of every optional
// field gets a sensible default.
type Config struct {
	// Cluster is the campaign to run. Custom model registries or user
	// rosters are rejected (they cannot travel to remote workers);
	// Progress, if set, stays local and works as in RunCampaignCtx.
	Cluster cluster.Config

	// Addr is the listen address, e.g. ":9631" or "127.0.0.1:0".
	Addr string

	// CheckpointPath, when non-empty, enables crash recovery: completed
	// unit outcomes are spilled there (append-only, fsynced) and replayed
	// by a restarted coordinator. Removed automatically on campaign
	// success.
	CheckpointPath string

	// Lease is how long a worker holds a unit before the coordinator
	// re-dispatches it (default 2m). Heartbeats do NOT extend leases —
	// the deadline is absolute, so a hung worker that dutifully
	// heartbeats cannot stall the campaign.
	Lease time.Duration

	// Heartbeat is the cadence workers are told to report at; a worker
	// silent for 3 heartbeat intervals (plus slack) is declared dead and
	// its lease re-queued immediately (default 5s).
	Heartbeat time.Duration

	// MaxAttempts caps dispatches per unit; a unit that cannot complete
	// in MaxAttempts leases aborts the campaign (default 8).
	MaxAttempts int

	// Grace is how long the coordinator keeps answering requests after
	// the campaign completes, so workers hear StatusDone and exit
	// cleanly instead of logging connection errors (default 2s).
	Grace time.Duration

	// Log receives human-oriented progress lines; nil discards them.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 2 * time.Minute
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.Grace < 0 {
		c.Grace = 0
	} else if c.Grace == 0 {
		c.Grace = 2 * time.Second
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// unitState tracks one pending unit of the current round.
type unitState struct {
	k         int // index into the round's pending slice
	leased    bool
	leaseID   string
	worker    string
	deadline  time.Time // absolute; expiry re-dispatches
	notBefore time.Time // re-dispatch backoff gate
	attempts  int       // leases granted for this unit this round
	done      bool
	out       cluster.UnitOutcome
	// span covers the current lease, grant → result/requeue, as a child of
	// the round span (nil when telemetry is off). Its context rides to the
	// worker in LeaseResponse.Traceparent; its outcome attr records how the
	// lease ended (ok, drained, error, lease expired, worker died, …).
	span *telemetry.Span
}

// endLeaseSpanLocked closes the unit's current lease span with an outcome
// attribute. Nil-safe; caller holds co.mu.
func (st *unitState) endLeaseSpanLocked(outcome string) {
	if st.span == nil {
		return
	}
	st.span.SetAttr("outcome", outcome)
	st.span.End()
	st.span = nil
}

// workerState tracks one registered worker.
type workerState struct {
	id       string
	name     string
	lastSeen time.Time
}

// Coordinator owns a distributed campaign: it runs the deterministic
// campaign driver in-process (via cluster.RunCampaignWith) and serves the
// lease/result/heartbeat protocol that ships units to worker processes.
// It implements cluster.UnitExecutor.
type Coordinator struct {
	cfg      Config
	cl       *cluster.Cluster
	spec     CampaignSpec
	digest   string
	numUnits int
	ln       net.Listener
	backoff  engine.Backoff

	mu        sync.Mutex
	round     int // 1-based during a round; 0 before the first
	units     map[int]*unitState
	overrides []cluster.PlanOverride
	tick      func() // driver's progress callback for the current round
	unitErr   error  // a worker-reported simulation failure (aborts)
	campDone  bool
	workers   map[string]*workerState
	seq       int64 // worker/lease id source
	// roundCtx carries the driver's campaign→round span chain during a
	// round (nil between rounds); per-lease spans are started from it.
	// campTP is the campaign span's traceparent, handed to joining workers
	// so their session spans land in the campaign trace.
	roundCtx context.Context
	campTP   string

	cp     *checkpoint
	replay map[int]map[int]cluster.UnitOutcome

	// telemetry (nil-safe no-op handles when telemetry is off)
	expired, redisp, malformed *telemetry.Counter
	deaths, resumed            *telemetry.Counter
	gLease                     *telemetry.Gauge
}

// NewCoordinator validates the campaign, binds the listen address, and
// opens (or resumes) the checkpoint. Call Run to serve and execute; Close
// releases the listener if Run is never reached.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	spec, err := SpecFromCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	numUnits, digest, err := cl.PlanInfo()
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:      cfg,
		cl:       cl,
		spec:     spec,
		digest:   digest,
		numUnits: numUnits,
		backoff:  engine.Backoff{Base: 250 * time.Millisecond, Max: 15 * time.Second, Factor: 2, Jitter: 0.2},
		workers:  map[string]*workerState{},

		expired:   telemetry.C(telemetry.MDistLeaseExpired),
		redisp:    telemetry.C(telemetry.MDistLeaseRedispatch),
		malformed: telemetry.C(telemetry.MDistResultsMalformed),
		deaths:    telemetry.C(telemetry.MDistWorkerDeaths),
		resumed:   telemetry.C(telemetry.MDistResumedUnits),
		gLease:    telemetry.G(telemetry.GDistLeasedUnits),
	}
	if cfg.CheckpointPath != "" {
		cp, replay, err := openCheckpoint(cfg.CheckpointPath, digest, numUnits)
		if err != nil {
			return nil, err
		}
		co.cp, co.replay = cp, replay
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if co.cp != nil {
			co.cp.close()
		}
		return nil, fmt.Errorf("dist: listen %s: %w", cfg.Addr, err)
	}
	co.ln = ln
	return co, nil
}

// Addr returns the bound listen address (useful with ":0").
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// NumUnits returns the campaign's work-unit count.
func (co *Coordinator) NumUnits() int { return co.numUnits }

// PlanDigest returns the campaign's plan-list digest.
func (co *Coordinator) PlanDigest() string { return co.digest }

// Close releases the listener and checkpoint without running. Run performs
// its own cleanup; Close is for abandoning a constructed coordinator.
func (co *Coordinator) Close() error {
	err := co.ln.Close()
	if co.cp != nil {
		co.cp.close()
	}
	return err
}

// Run serves the worker protocol and executes the campaign, returning the
// merged result — byte-identical to an in-process RunCampaignCtx with the
// same config. On success the checkpoint file is removed; on failure or
// cancellation it is kept for a resumed coordinator to pick up.
func (co *Coordinator) Run(ctx context.Context) (*dataset.Campaign, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		telemetry.Active().Snapshot().WriteOpenMetrics(w)
	})
	mux.HandleFunc("/v1/join", co.handleJoin)
	mux.HandleFunc("/v1/lease", co.handleLease)
	mux.HandleFunc("/v1/result", co.handleResult)
	mux.HandleFunc("/v1/heartbeat", co.handleHeartbeat)
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(co.ln) }()
	fmt.Fprintf(co.cfg.Log, "dist: coordinating %d units on %s (plan %.12s…)\n", co.numUnits, co.Addr(), co.digest)

	camp, err := co.cl.RunCampaignWith(ctx, co)

	co.mu.Lock()
	co.campDone = true
	co.gLease.Set(0)
	co.mu.Unlock()

	// let polling workers hear StatusDone before tearing the server down
	if err == nil && co.cfg.Grace > 0 {
		engine.SleepFor(context.Background(), co.cfg.Grace)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	srv.Shutdown(shutCtx)
	cancel()
	<-serveErr // always http.ErrServerClosed after Shutdown

	if co.cp != nil {
		if err == nil {
			if rerr := co.cp.remove(); rerr != nil {
				fmt.Fprintf(co.cfg.Log, "dist: remove checkpoint: %v\n", rerr)
			}
		} else {
			co.cp.close()
		}
	}
	return camp, err
}

// ExecuteRound implements cluster.UnitExecutor: it exposes the round's
// units for leasing, re-dispatches expired leases and dead workers'
// units, and returns when every unit has an outcome (or ctx/unit failure
// aborts). Partial outcomes are returned on abort so completed work is
// still merged by the driver.
func (co *Coordinator) ExecuteRound(ctx context.Context, pending []int, overrides []cluster.PlanOverride, completed func()) ([]cluster.UnitOutcome, error) {
	co.mu.Lock()
	co.round++
	round := co.round
	co.roundCtx = ctx
	if rs := telemetry.FromContext(ctx); rs != nil {
		if psc, ok := rs.ParentSpanContext(); ok {
			co.campTP = telemetry.FormatTraceparent(psc)
		}
	}
	co.units = make(map[int]*unitState, len(pending))
	co.overrides = append([]cluster.PlanOverride(nil), overrides...)
	co.tick = completed
	co.unitErr = nil
	remaining := 0
	for k, i := range pending {
		st := &unitState{k: k}
		co.units[i] = st
		if out, ok := co.replay[round][i]; ok {
			st.done = true
			st.out = out
			co.resumed.Add(1)
			if out.Run != nil {
				completed()
			}
			continue
		}
		remaining++
	}
	co.mu.Unlock()
	if remaining < len(pending) {
		fmt.Fprintf(co.cfg.Log, "dist: round %d: %d/%d units resumed from checkpoint\n", round, len(pending)-remaining, len(pending))
	}

	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	var roundErr error
	for {
		select {
		case <-ctx.Done():
			roundErr = ctx.Err()
		case <-ticker.C:
			co.sweep()
		}
		co.mu.Lock()
		if co.unitErr != nil && roundErr == nil {
			roundErr = co.unitErr
		}
		allDone := true
		for _, st := range co.units {
			if !st.done {
				allDone = false
				break
			}
		}
		if allDone || roundErr != nil {
			outs := make([]cluster.UnitOutcome, len(pending))
			for _, st := range co.units {
				if st.done {
					outs[st.k] = st.out
				}
				// leases still open at round teardown (abort paths) close
				// with an explicit outcome so no span dangles unrecorded
				st.endLeaseSpanLocked("round over")
			}
			co.units = nil
			co.roundCtx = nil
			co.gLease.Set(0)
			co.mu.Unlock()
			return outs, roundErr
		}
		co.mu.Unlock()
	}
}

// sweep re-dispatches expired leases and requeues units held by workers
// that stopped heartbeating. Runs every 25ms off ExecuteRound's ticker.
func (co *Coordinator) sweep() {
	now := time.Now()
	deadAfter := 3*co.cfg.Heartbeat + co.cfg.Heartbeat/2
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.units == nil {
		return
	}

	// workers first, so their leases requeue without waiting for expiry
	for id, w := range co.workers {
		if now.Sub(w.lastSeen) <= deadAfter {
			continue
		}
		fmt.Fprintf(co.cfg.Log, "dist: worker %s (%s) silent for %.1fs, declaring dead\n", id, w.name, now.Sub(w.lastSeen).Seconds())
		delete(co.workers, id)
		co.deaths.Add(1)
		for i, st := range co.units {
			if st.leased && !st.done && st.worker == id {
				co.requeueLocked(i, st, now, "worker died")
			}
		}
	}
	for i, st := range co.units {
		if st.leased && !st.done && now.After(st.deadline) {
			co.expired.Add(1)
			co.requeueLocked(i, st, now, "lease expired")
		}
	}
}

// requeueLocked returns a unit to the grantable pool with capped
// exponential backoff (jittered — re-dispatch timing is not output), or
// aborts the campaign once the unit has burned MaxAttempts leases without
// completing: at that point the failure is systemic, not transient.
// Caller holds co.mu.
func (co *Coordinator) requeueLocked(i int, st *unitState, now time.Time, why string) {
	st.endLeaseSpanLocked(why)
	st.leased = false
	st.leaseID = ""
	st.worker = ""
	if st.attempts >= co.cfg.MaxAttempts {
		if co.unitErr == nil {
			co.unitErr = fmt.Errorf("dist: unit %d failed %d leases (last: %s); giving up", i, st.attempts, why)
		}
		co.gLease.Add(-1)
		return
	}
	st.notBefore = now.Add(co.backoff.Delay(st.attempts - 1))
	co.redisp.Add(1)
	co.gLease.Add(-1)
	fmt.Fprintf(co.cfg.Log, "dist: unit %d re-dispatched (%s, attempt %d)\n", i, why, st.attempts)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "decode body: %v", err)
		return false
	}
	return true
}

// rpcSpan opens a coordinator-side RPC span when the request carries a
// valid traceparent header (worker calls made under a span propagate one).
// Requests without a header — heartbeats on a background context, plain
// curl — get no span, so the merged trace grows no extra roots. Returns a
// nil-safe handle.
func rpcSpan(r *http.Request, endpoint string) *telemetry.Span {
	sc, err := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader))
	if err != nil {
		return nil
	}
	_, sp := telemetry.Start(telemetry.ContextWithRemote(context.Background(), sc), telemetry.SpanDistRPCPrefix+endpoint)
	return sp
}

func (co *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	defer rpcSpan(r, "join").End()
	var req JoinRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.ProtocolVersion != ProtocolVersion {
		writeError(w, http.StatusBadRequest, "protocol version %d, coordinator speaks %d", req.ProtocolVersion, ProtocolVersion)
		return
	}
	co.mu.Lock()
	if co.campDone {
		co.mu.Unlock()
		writeError(w, http.StatusConflict, "campaign complete")
		return
	}
	co.seq++
	id := fmt.Sprintf("w%d", co.seq)
	co.workers[id] = &workerState{id: id, name: req.Name, lastSeen: time.Now()}
	n := len(co.workers)
	campTP := co.campTP
	co.mu.Unlock()
	fmt.Fprintf(co.cfg.Log, "dist: worker %s joined (%s), %d alive\n", id, req.Name, n)
	writeJSON(w, http.StatusOK, JoinResponse{
		WorkerID:         id,
		Spec:             co.spec,
		PlanDigest:       co.digest,
		NumUnits:         co.numUnits,
		LeaseSeconds:     co.cfg.Lease.Seconds(),
		HeartbeatSeconds: co.cfg.Heartbeat.Seconds(),
		Traceparent:      campTP,
	})
}

// touchLocked records a sign of life from worker id. Caller holds co.mu.
func (co *Coordinator) touchLocked(id string) bool {
	wk, ok := co.workers[id]
	if ok {
		wk.lastSeen = time.Now()
	}
	return ok
}

func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	defer rpcSpan(r, "lease").End()
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.campDone {
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusDone})
		return
	}
	if !co.touchLocked(req.WorkerID) {
		writeError(w, http.StatusNotFound, "unknown worker %q (rejoin)", req.WorkerID)
		return
	}
	now := time.Now()
	best := -1
	for i, st := range co.units {
		if st.done || st.leased || now.Before(st.notBefore) {
			continue
		}
		if best == -1 || i < best {
			best = i
		}
	}
	if best == -1 {
		// nothing grantable: between rounds, backoff gates, or all leased
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusWait, RetryAfterSeconds: 0.5})
		return
	}
	st := co.units[best]
	st.attempts++
	co.seq++
	st.leased = true
	st.leaseID = fmt.Sprintf("L%d", co.seq)
	st.worker = req.WorkerID
	st.deadline = now.Add(co.cfg.Lease)
	co.gLease.Add(1)
	// open the lease span under the round span; its context rides to the
	// worker so the unit's execution spans parent to it cross-process
	var leaseTP string
	if co.roundCtx != nil {
		_, sp := telemetry.Start(co.roundCtx, telemetry.SpanDistUnit)
		sp.SetAttr("unit", fmt.Sprint(best))
		sp.SetAttr("round", fmt.Sprint(co.round))
		sp.SetAttr("worker", req.WorkerID)
		sp.SetAttr("attempt", fmt.Sprint(st.attempts))
		st.span = sp
		if sc, ok := sp.SpanContext(); ok {
			leaseTP = telemetry.FormatTraceparent(sc)
		}
	}
	writeJSON(w, http.StatusOK, LeaseResponse{
		Status:              StatusLease,
		LeaseID:             st.leaseID,
		Unit:                best,
		Round:               co.round,
		Attempt:             st.attempts,
		Overrides:           co.overrides,
		LeaseSeconds:        co.cfg.Lease.Seconds(),
		Traceparent:         leaseTP,
		CampaignTraceparent: co.campTP,
	})
}

func (co *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	defer rpcSpan(r, "result").End()
	var req ResultRequest
	if !readJSON(w, r, &req) {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.touchLocked(req.WorkerID)
	st, current := co.units[req.Unit]
	if co.campDone || !current || req.Round != co.round || st.done {
		// determinism makes duplicates harmless; acknowledge and move on
		writeJSON(w, http.StatusOK, ResultResponse{Status: StatusStale})
		return
	}
	if req.Error != "" {
		// a genuine (non-drain) simulation failure aborts the campaign,
		// mirroring the in-process executor
		co.unitErr = fmt.Errorf("dist: worker %s, unit %d: %s", req.WorkerID, req.Unit, req.Error)
		st.endLeaseSpanLocked("error")
		writeJSON(w, http.StatusOK, ResultResponse{Status: StatusOK})
		return
	}
	var out cluster.UnitOutcome
	if req.Drained {
		out = cluster.UnitOutcome{Drained: true, DrainAt: req.DrainAt}
	} else {
		run, err := DecodeRun(req.RunGob)
		if err != nil {
			// a corrupt result must not poison the campaign: reject it
			// and put the unit straight back in the pool
			co.malformed.Add(1)
			if st.leased {
				co.requeueLocked(req.Unit, st, time.Now(), "malformed result")
			}
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		out = cluster.UnitOutcome{Run: run}
	}
	if st.leased {
		st.leased = false
		co.gLease.Add(-1)
	}
	if out.Drained {
		st.endLeaseSpanLocked("drained")
	} else {
		st.endLeaseSpanLocked("ok")
	}
	st.done = true
	st.out = out
	if co.cp != nil {
		if err := co.cp.append(co.round, req.Unit, out); err != nil {
			// a dead checkpoint disk must not kill the campaign; resume
			// just gets less help
			fmt.Fprintf(co.cfg.Log, "dist: checkpoint append failed: %v\n", err)
		}
	}
	if out.Run != nil && co.tick != nil {
		co.tick()
	}
	writeJSON(w, http.StatusOK, ResultResponse{Status: StatusOK})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	defer rpcSpan(r, "heartbeat").End()
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.campDone {
		writeJSON(w, http.StatusOK, HeartbeatResponse{Status: StatusDone})
		return
	}
	if !co.touchLocked(req.WorkerID) {
		writeError(w, http.StatusNotFound, "unknown worker %q (rejoin)", req.WorkerID)
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Status: StatusOK})
}
