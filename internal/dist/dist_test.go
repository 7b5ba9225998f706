package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonvar/internal/apps"
	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
	"dragonvar/internal/framelog"
	"dragonvar/internal/netsim"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
)

// testConfig is a small default-registry campaign (the spec cannot carry a
// custom model registry): ~15 units, under a second on a few cores.
func testConfig(seed int64) cluster.Config {
	return cluster.Config{
		Machine:        topology.Small(),
		Net:            netsim.DefaultConfig(),
		Days:           4,
		Seed:           seed,
		MeanRunsPerDay: 2,
	}
}

// faultedTestConfig adds faults so runs drain mid-campaign and requeue —
// exercising the override path that ships plan mutations to workers.
func faultedTestConfig(t *testing.T, seed int64) cluster.Config {
	t.Helper()
	cfg := testConfig(seed)
	topo, err := topology.New(cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	clauses := []string{"links=2", "degraded=3", "dropout@86400-172800"}
	for r := 0; r < topo.Cfg.NumRouters(); r++ {
		clauses = append(clauses, "drain:"+strconv.Itoa(r)+"@216000-237600")
	}
	cfg.FaultSpec = strings.Join(clauses, ",")
	return cfg
}

func campaignHash(t *testing.T, camp *dataset.Campaign) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(camp); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

func serialHash(t *testing.T, cfg cluster.Config) [32]byte {
	t.Helper()
	cfg.Workers = 1
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.RunCampaignCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return campaignHash(t, camp)
}

// startWorker runs a worker against the coordinator in a goroutine and
// returns a channel with its terminal error.
func startWorker(ctx context.Context, t *testing.T, coordAddr, name string, hook func(unit, round int)) chan error {
	t.Helper()
	w, err := NewWorker(WorkerConfig{Coord: "http://" + coordAddr, Name: name, afterLease: hook})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return done
}

// TestSpecRejectsCustomModels: a custom model registry is an in-process
// pointer no worker can rebuild from the join response.
func TestSpecRejectsCustomModels(t *testing.T) {
	cfg := testConfig(1)
	amg := *apps.Find(apps.AMG, 128)
	cfg.Models = []*apps.Model{&amg}
	if _, err := NewCoordinator(Config{Cluster: cfg, Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("coordinator accepted a custom model registry")
	}
}

// TestSpecRoundTripsPlanDigest: a worker rebuilding the cluster from the
// JSON join response derives the coordinator's plan digest under every
// placement policy, blame list included.
func TestSpecRoundTripsPlanDigest(t *testing.T) {
	for _, placement := range []string{"firstfit", "compact", "interference"} {
		t.Run(placement, func(t *testing.T) {
			cfg := faultedTestConfig(t, 11)
			cfg.Placement = placement
			if placement == "interference" {
				cfg.BlamedUsers = []string{"User-3", "User-11"}
			}
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n, digest, err := c.PlanInfo()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(JoinResponse{Cluster: cfg.Resolved()})
			if err != nil {
				t.Fatal(err)
			}
			var join JoinResponse
			if err := json.Unmarshal(blob, &join); err != nil {
				t.Fatal(err)
			}
			sim, err := cluster.NewUnitSim(join.Cluster)
			if err != nil {
				t.Fatal(err)
			}
			if sim.PlanDigest() != digest || sim.NumUnits() != n {
				t.Fatalf("worker derived (%d units, %.12s), coordinator (%d units, %.12s)",
					sim.NumUnits(), sim.PlanDigest(), n, digest)
			}
		})
	}
}

func TestDecodeRunRejectsDamage(t *testing.T) {
	if _, err := DecodeRun([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded")
	}
	// a run missing its counter observations must fail the sanity check
	// (full round-trips of real runs are covered by the integration tests)
	run := &dataset.Run{Dataset: "x", StepTimes: []float64{1, 2}, Compute: []float64{0.5, 0.6}}
	blob, err := EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRun(blob); err == nil {
		t.Fatal("run with missing observations passed validation")
	}
}

// TestDistributedMatchesSerial is the core contract: a faulted campaign
// executed by a coordinator and two worker loops is byte-identical to the
// serial in-process campaign.
func TestDistributedMatchesSerial(t *testing.T) {
	cfg := faultedTestConfig(t, 41)
	if distributedHash(t, cfg, 2) != serialHash(t, cfg) {
		t.Fatal("distributed campaign differs from serial campaign")
	}
}

// TestDistributedCompactMatchesSerial: the placement policy reaches the
// workers, so a compact campaign runs distributed and matches the serial
// one byte for byte.
func TestDistributedCompactMatchesSerial(t *testing.T) {
	cfg := testConfig(47)
	cfg.Placement = "compact"
	if distributedHash(t, cfg, 1) != serialHash(t, cfg) {
		t.Fatal("distributed compact campaign differs from serial campaign")
	}
}

// distributedHash runs cfg through a coordinator and n worker loops and
// returns the merged campaign's hash. Workers are waited for first, so one
// that fails (a refused join, say) fails the test instead of leaving the
// coordinator waiting for work nobody takes.
func distributedHash(t *testing.T, cfg cluster.Config, n int) [32]byte {
	t.Helper()
	co, err := NewCoordinator(Config{Cluster: cfg, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var camp *dataset.Campaign
	var runErr error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		camp, runErr = co.Run(ctx)
	}()
	workers := make([]chan error, n)
	for i := range workers {
		workers[i] = startWorker(ctx, t, co.Addr(), fmt.Sprintf("w%d", i+1), nil)
	}
	for i, done := range workers {
		select {
		case err = <-done:
		case <-time.After(2 * time.Minute):
			err = errors.New("did not exit")
		}
		if err != nil {
			cancel()
			<-ran
			t.Fatalf("worker %d: %v (coordinator: %v)", i+1, err, runErr)
		}
	}
	<-ran
	if runErr != nil {
		t.Fatal(runErr)
	}
	if err := camp.Validate(); err != nil {
		t.Fatalf("distributed campaign invalid: %v", err)
	}
	return campaignHash(t, camp)
}

// TestLeaseExpiryRedispatch wedges a fake worker on a lease it never
// serves; the short lease expires and the unit is re-dispatched to a real
// worker, still yielding the serial bytes.
func TestLeaseExpiryRedispatch(t *testing.T) {
	r := telemetry.New()
	telemetry.Enable(r)
	defer telemetry.Disable()

	cfg := testConfig(43)
	serial := serialHash(t, cfg)

	co, err := NewCoordinator(Config{
		Cluster: cfg, Addr: "127.0.0.1:0",
		Lease: 300 * time.Millisecond, Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	campDone := make(chan struct{})
	var camp *dataset.Campaign
	var runErr error
	go func() { camp, runErr = co.Run(context.Background()); close(campDone) }()

	// the wedged worker: joins, takes one lease, heartbeats forever
	// (alive but hung — only lease expiry can recover the unit)
	cl := newClient("http://"+co.Addr(), 4)
	var join JoinResponse
	if err := cl.post(context.Background(), "/v1/join", JoinRequest{ProtocolVersion: ProtocolVersion, Name: "wedged"}, &join); err != nil {
		t.Fatal(err)
	}
	var lease LeaseResponse
	for {
		if err := cl.post(context.Background(), "/v1/lease", LeaseRequest{WorkerID: join.WorkerID}, &lease); err != nil {
			t.Fatal(err)
		}
		if lease.Status == StatusLease {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer hbCancel()
	go func() {
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tk.C:
				cl.post(hbCtx, "/v1/heartbeat", HeartbeatRequest{WorkerID: join.WorkerID}, nil)
			}
		}
	}()

	// real worker finishes the campaign, including the wedged unit
	w := startWorker(context.Background(), t, co.Addr(), "real", nil)
	<-campDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got := campaignHash(t, camp); got != serial {
		t.Fatal("campaign with an expired lease differs from serial")
	}
	if err := <-w; err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap.Counters[telemetry.MDistLeaseExpired] == 0 {
		t.Error("no lease expiry recorded")
	}
	if snap.Counters[telemetry.MDistLeaseRedispatch] == 0 {
		t.Error("no re-dispatch recorded")
	}
}

// TestMalformedResultRedispatch posts garbage for a leased unit: the
// coordinator must reject it, requeue the unit, and the campaign must
// still finish byte-identical.
func TestMalformedResultRedispatch(t *testing.T) {
	r := telemetry.New()
	telemetry.Enable(r)
	defer telemetry.Disable()

	cfg := testConfig(47)
	serial := serialHash(t, cfg)

	co, err := NewCoordinator(Config{Cluster: cfg, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	campDone := make(chan struct{})
	var camp *dataset.Campaign
	var runErr error
	go func() { camp, runErr = co.Run(context.Background()); close(campDone) }()

	cl := newClient("http://"+co.Addr(), 4)
	var join JoinResponse
	if err := cl.post(context.Background(), "/v1/join", JoinRequest{ProtocolVersion: ProtocolVersion, Name: "corrupt"}, &join); err != nil {
		t.Fatal(err)
	}
	var lease LeaseResponse
	for {
		if err := cl.post(context.Background(), "/v1/lease", LeaseRequest{WorkerID: join.WorkerID}, &lease); err != nil {
			t.Fatal(err)
		}
		if lease.Status == StatusLease {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	err = cl.post(context.Background(), "/v1/result", ResultRequest{
		WorkerID: join.WorkerID, LeaseID: lease.LeaseID,
		Unit: lease.Unit, Round: lease.Round, RunGob: []byte("not a gob"),
	}, nil)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
		t.Fatalf("malformed result: got %v, want HTTP 400", err)
	}

	w := startWorker(context.Background(), t, co.Addr(), "real", nil)
	<-campDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got := campaignHash(t, camp); got != serial {
		t.Fatal("campaign with a malformed result differs from serial")
	}
	if err := <-w; err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap.Counters[telemetry.MDistResultsMalformed] == 0 {
		t.Error("no malformed result recorded")
	}
	if snap.Counters[telemetry.MDistLeaseRedispatch] == 0 {
		t.Error("malformed result did not re-dispatch the unit")
	}
}

// TestWorkerDeathRequeues has a worker take a lease and go silent: missed
// heartbeats must declare it dead and requeue its unit well before the
// (long) lease deadline.
func TestWorkerDeathRequeues(t *testing.T) {
	r := telemetry.New()
	telemetry.Enable(r)
	defer telemetry.Disable()

	cfg := testConfig(53)
	serial := serialHash(t, cfg)

	co, err := NewCoordinator(Config{
		Cluster: cfg, Addr: "127.0.0.1:0",
		Lease: time.Hour, Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	campDone := make(chan struct{})
	var camp *dataset.Campaign
	var runErr error
	start := time.Now()
	go func() { camp, runErr = co.Run(context.Background()); close(campDone) }()

	cl := newClient("http://"+co.Addr(), 4)
	var join JoinResponse
	if err := cl.post(context.Background(), "/v1/join", JoinRequest{ProtocolVersion: ProtocolVersion, Name: "doomed"}, &join); err != nil {
		t.Fatal(err)
	}
	var lease LeaseResponse
	for {
		if err := cl.post(context.Background(), "/v1/lease", LeaseRequest{WorkerID: join.WorkerID}, &lease); err != nil {
			t.Fatal(err)
		}
		if lease.Status == StatusLease {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// ... and never speak again

	w := startWorker(context.Background(), t, co.Addr(), "real", nil)
	<-campDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("campaign took %v; death detection did not beat the 1h lease", elapsed)
	}
	if got := campaignHash(t, camp); got != serial {
		t.Fatal("campaign with a dead worker differs from serial")
	}
	if err := <-w; err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap.Counters[telemetry.MDistWorkerDeaths] == 0 {
		t.Error("no worker death recorded")
	}
	if snap.Counters[telemetry.MDistLeaseRedispatch] == 0 {
		t.Error("dead worker's unit was not re-dispatched")
	}
}

// TestMaxAttemptsAborts: a unit that burns its lease budget without ever
// completing must abort the campaign loudly instead of re-dispatching
// forever.
func TestMaxAttemptsAborts(t *testing.T) {
	cfg := testConfig(71)
	co, err := NewCoordinator(Config{
		Cluster: cfg, Addr: "127.0.0.1:0",
		Lease: 100 * time.Millisecond, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	campDone := make(chan error, 1)
	go func() { _, err := co.Run(context.Background()); campDone <- err }()

	// the only worker keeps taking leases and never serves one; its lease
	// polls keep it alive, so only the attempt cap can end the campaign
	cl := newClient("http://"+co.Addr(), 4)
	var join JoinResponse
	if err := cl.post(context.Background(), "/v1/join", JoinRequest{ProtocolVersion: ProtocolVersion, Name: "wedged"}, &join); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			var lease LeaseResponse
			if err := cl.post(context.Background(), "/v1/lease", LeaseRequest{WorkerID: join.WorkerID}, &lease); err != nil || lease.Status == StatusDone {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	select {
	case err := <-campDone:
		if err == nil || !strings.Contains(err.Error(), "giving up") {
			t.Fatalf("campaign ended with %v, want a max-attempts abort", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not abort on exhausted attempts")
	}
}

// TestCoordinatorResume cancels a coordinator mid-campaign and restarts it
// from the checkpoint: completed units replay instead of re-running, and
// the final campaign is byte-identical to serial.
func TestCoordinatorResume(t *testing.T) {
	r := telemetry.New()
	telemetry.Enable(r)
	defer telemetry.Disable()

	cfg := faultedTestConfig(t, 59)
	serial := serialHash(t, cfg)
	cpPath := filepath.Join(t.TempDir(), "campaign.ckpt")

	co1, err := NewCoordinator(Config{Cluster: cfg, Addr: "127.0.0.1:0", CheckpointPath: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	campDone := make(chan error, 1)
	go func() { _, err := co1.Run(ctx1); campDone <- err }()

	// a throttled worker: cancel the coordinator after its third unit so
	// the checkpoint holds a strict subset of the campaign
	var mu sync.Mutex
	unitsDone := 0
	hook := func(_, _ int) {
		mu.Lock()
		unitsDone++
		n := unitsDone
		mu.Unlock()
		if n == 4 {
			cancel1()
		}
	}
	wCtx, wCancel := context.WithCancel(context.Background())
	startWorker(wCtx, t, co1.Addr(), "w1", hook) // its terminal error is irrelevant: the coordinator dies under it
	if err := <-campDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled coordinator returned %v", err)
	}
	wCancel()
	if _, err := os.Stat(cpPath); err != nil {
		t.Fatalf("checkpoint not kept after cancel: %v", err)
	}

	// scar the tail: simulate a crash mid-append; the loader must drop
	// the damaged record and keep the valid prefix
	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	co2, err := NewCoordinator(Config{Cluster: cfg, Addr: "127.0.0.1:0", CheckpointPath: cpPath})
	if err != nil {
		t.Fatal(err)
	}
	w2 := startWorker(context.Background(), t, co2.Addr(), "w2", nil)
	camp, err := co2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignHash(t, camp); got != serial {
		t.Fatal("resumed campaign differs from serial")
	}
	if err := <-w2; err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap.Counters[telemetry.MDistResumedUnits] == 0 {
		t.Error("no units resumed from checkpoint")
	}
	if _, err := os.Stat(cpPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not removed after success: %v", err)
	}
}

// TestCheckpointRejectsOtherCampaign: resuming with a different config
// must fail loudly, not silently merge two campaigns.
func TestCheckpointRejectsOtherCampaign(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "c.ckpt")
	cp, _, err := openCheckpoint(cpPath, "digest-a", 10)
	if err != nil {
		t.Fatal(err)
	}
	cp.close()
	if _, _, err := openCheckpoint(cpPath, "digest-b", 10); err == nil {
		t.Fatal("checkpoint for a different digest accepted")
	}
	if _, _, err := openCheckpoint(cpPath, "digest-a", 11); err == nil {
		t.Fatal("checkpoint for a different unit count accepted")
	}
	if _, _, err := openCheckpoint(cpPath, "digest-a", 10); err != nil {
		t.Fatalf("matching reopen failed: %v", err)
	}
}

// TestCheckpointRefusesDamage: damage a crash cannot leave — a header
// that fails its checksum or does not decode, a checksum-valid record that
// does not decode, a unit out of range — is refused, and the file keeps
// its bytes so no completed unit is silently discarded.
func TestCheckpointRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	cp, _, err := openCheckpoint(filepath.Join(dir, "intact.ckpt"), "d", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.append(1, 2, cluster.UnitOutcome{Drained: true, DrainAt: 7}); err != nil {
		t.Fatal(err)
	}
	cp.close()
	intact, err := os.ReadFile(filepath.Join(dir, "intact.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	frame := func(v any) []byte {
		var buf bytes.Buffer
		if err := framelog.Encode(&buf, v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	flipped := append([]byte{}, intact...)
	flipped[len(frame(checkpointHeader{Version: 1, PlanDigest: "d", NumUnits: 5}))-1] ^= 0xff // last header byte
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"header checksum", flipped},
		{"header undecodable", frame("not a header")},
		{"empty", nil},
		{"record undecodable", append(append([]byte{}, intact...), frame(42)...)},
		{"unit out of range", append(append([]byte{}, intact...), frame(checkpointRecord{Round: 1, Unit: 5, Drained: true})...)},
	} {
		path := filepath.Join(dir, tc.name+".ckpt")
		if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openCheckpoint(path, "d", 5); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: open = %v, want a refusal naming %s", tc.name, err, path)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.raw) {
			t.Errorf("%s: refused checkpoint was rewritten (%d bytes, want %d; %v)", tc.name, len(got), len(tc.raw), err)
		}
	}
}

// TestCheckpointReplayRoundTrip exercises append/replay including drained
// outcomes and tail healing at every truncation point.
func TestCheckpointReplayRoundTrip(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "c.ckpt")
	cp, replay, err := openCheckpoint(cpPath, "d", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh checkpoint replays %d rounds", len(replay))
	}
	header, err := os.ReadFile(cpPath) // a fresh checkpoint is its header alone
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.append(1, 2, cluster.UnitOutcome{Drained: true, DrainAt: 123.5}); err != nil {
		t.Fatal(err)
	}
	if err := cp.append(2, 0, cluster.UnitOutcome{Drained: true, DrainAt: 9}); err != nil {
		t.Fatal(err)
	}
	cp.close()

	_, replay, err = openCheckpoint(cpPath, "d", 5)
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := replay[1][2]; !ok || !out.Drained || out.DrainAt != 123.5 {
		t.Fatalf("replay[1][2] = %+v, %v", replay[1][2], ok)
	}
	if out, ok := replay[2][0]; !ok || out.DrainAt != 9 {
		t.Fatalf("replay[2][0] = %+v, %v", out, ok)
	}

	// every truncation after the header must load without error and
	// replay a prefix of the records; a torn header, which a crash cannot
	// leave because the file is created whole, is refused untouched
	full, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		p := filepath.Join(t.TempDir(), fmt.Sprintf("cut%d.ckpt", cut))
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cp, replay, err := openCheckpoint(p, "d", 5)
		if cut < len(header) {
			if err == nil {
				t.Fatalf("cut=%d: torn header accepted", cut)
			}
			if got, _ := os.ReadFile(p); !bytes.Equal(got, full[:cut]) {
				t.Fatalf("cut=%d: refused checkpoint was rewritten", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		// healing must leave a file a follow-up open fully accepts
		if err := cp.append(3, 3, cluster.UnitOutcome{Drained: true, DrainAt: 1}); err != nil {
			t.Fatalf("cut=%d append: %v", cut, err)
		}
		cp.close()
		_, replay2, err := openCheckpoint(p, "d", 5)
		if err != nil {
			t.Fatalf("cut=%d reopen: %v", cut, err)
		}
		if out, ok := replay2[3][3]; !ok || out.DrainAt != 1 {
			t.Fatalf("cut=%d: healed file lost the appended record", cut)
		}
		if len(replay2) < len(replay) {
			t.Fatalf("cut=%d: reopen lost records the heal kept", cut)
		}
	}
}

// TestClientHonorsRetryAfter: a 429 with Retry-After must delay at least
// that long before the retry, and transient errors must be retried while
// contract errors must not.
func TestClientHonorsRetryAfter(t *testing.T) {
	r := telemetry.New()
	telemetry.Enable(r)
	defer telemetry.Disable()

	var mu sync.Mutex
	calls := 0
	var gap time.Duration
	var last time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		now := time.Now()
		if calls == 1 {
			last = now
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded"}`)
			return
		}
		gap = now.Sub(last)
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer srv.Close()

	cl := newClient(srv.URL, 4)
	var resp ResultResponse
	if err := cl.post(context.Background(), "/v1/result", ResultRequest{}, &resp); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if gap < time.Second {
		t.Fatalf("retry after %v, want >= 1s (Retry-After honored)", gap)
	}
	if r.Snapshot().Counters[telemetry.MDistClientRetries] == 0 {
		t.Error("client retry not recorded")
	}
}

func TestClientDoesNotRetryContractErrors(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown worker"}`)
	}))
	defer srv.Close()

	cl := newClient(srv.URL, 4)
	err := cl.post(context.Background(), "/v1/lease", LeaseRequest{}, nil)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusNotFound {
		t.Fatalf("got %v, want HTTP 404", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("404 was retried (%d calls)", calls)
	}
}

func TestClientRetriesServerFaults(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		n := calls
		calls++
		mu.Unlock()
		if n < 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer srv.Close()

	cl := newClient(srv.URL, 4)
	cl.backoff.Base = time.Millisecond
	cl.backoff.Jitter = 0
	if err := cl.post(context.Background(), "/v1/result", ResultRequest{}, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestProtocolVersionMismatchRejected(t *testing.T) {
	cfg := testConfig(61)
	co, err := NewCoordinator(Config{Cluster: cfg, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srvDone := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { co.Run(ctx); close(srvDone) }()
	defer func() { cancel(); <-srvDone }()

	cl := newClient("http://"+co.Addr(), 0)
	err = cl.post(context.Background(), "/v1/join", JoinRequest{ProtocolVersion: ProtocolVersion + 1}, nil)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
		t.Fatalf("got %v, want HTTP 400", err)
	}
}
