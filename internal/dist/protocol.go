// Package dist shards a controlled-experiment campaign across processes: a
// coordinator owns the deterministic schedule, requeue decisions, and the
// merge, while workers — on the same machine or across a cluster — lease
// work units (single plan indices) over HTTP/JSON and stream results back.
//
// The headline is not the RPC plumbing but the fault-tolerance contract,
// because workers on a shared cluster die, hang, and get preempted:
//
//   - every unit is handed out under a lease (unit + deadline); a lease
//     that expires — worker crashed, hung, or was preempted mid-unit — is
//     re-dispatched to another worker with capped exponential backoff;
//   - workers heartbeat; a silent worker is declared dead early and its
//     leases are re-queued without waiting for the full deadline;
//   - malformed or inconsistent results are rejected and the unit is
//     re-dispatched — one corrupt worker cannot poison the campaign;
//   - workers retry transient coordinator errors with backoff and jitter
//     (honoring Retry-After), and drain gracefully on SIGTERM: the
//     in-flight unit is finished and reported, no new lease is taken;
//   - the coordinator spills every completed unit to an append-only
//     checkpoint, so a killed coordinator resumes without re-running
//     finished units — and resumes byte-identically.
//
// Determinism: a run's result depends only on its plan, so duplicated
// execution (an expired lease whose original worker later answers too) is
// harmless — first result wins, the rest are dropped as stale. Results are
// merged in plan order by the campaign driver (cluster.RunCampaignWith),
// extending the serial ≡ parallel byte-identity contract of
// internal/engine across process boundaries; the chaos test in this
// package SIGKILLs a worker mid-campaign, restarts the coordinator from
// its checkpoint, and still requires the merged campaign to hash
// identically to a serial in-process run.
package dist

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dragonvar/internal/cluster"
	"dragonvar/internal/dataset"
)

// ProtocolVersion guards against mixed deployments: join requests carrying
// a different version are refused. Version 2 hands workers the resolved
// cluster.Config instead of a partial campaign spec.
const ProtocolVersion = 2

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	ProtocolVersion int    `json:"protocol_version"`
	Name            string `json:"name,omitempty"` // informational (hostname, pid)
}

// JoinResponse hands the worker its identity and the campaign contract.
type JoinResponse struct {
	WorkerID string `json:"worker_id"`
	// Cluster is the coordinator's resolved campaign config, less the
	// fields cluster.Config keeps out of JSON: the worker rebuilds the
	// cluster from it and must derive PlanDigest.
	Cluster          cluster.Config `json:"cluster"`
	PlanDigest       string         `json:"plan_digest"`
	NumUnits         int            `json:"num_units"`
	HeartbeatSeconds float64        `json:"heartbeat_seconds"` // expected heartbeat cadence while holding a lease
	// Traceparent carries the coordinator's campaign span context (W3C
	// traceparent format) so the worker's session span joins the campaign
	// trace. Empty when the coordinator runs without telemetry; malformed
	// values make the worker start a fresh root (observation-only either
	// way — tracing never alters scheduling or results).
	Traceparent string `json:"traceparent,omitempty"`
}

// Lease statuses.
const (
	StatusLease = "lease" // a unit is attached; simulate it
	StatusWait  = "wait"  // nothing grantable right now; retry after RetryAfterSeconds
	StatusDone  = "done"  // the campaign is complete; exit cleanly
	StatusOK    = "ok"    // generic success
	StatusStale = "stale" // result for a unit no longer wanted; drop and move on
)

// LeaseRequest asks for the next work unit.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse grants a unit (StatusLease), asks the worker to poll again
// later (StatusWait), or ends the session (StatusDone). Overrides is the
// accumulated requeue state of the campaign so far; the worker applies it
// before simulating (cluster.UnitSim.Apply is idempotent).
type LeaseResponse struct {
	Status            string                 `json:"status"`
	LeaseID           string                 `json:"lease_id,omitempty"`
	Unit              int                    `json:"unit"`
	Round             int                    `json:"round"`
	Attempt           int                    `json:"attempt,omitempty"` // 1-based dispatch count for this unit this round
	Overrides         []cluster.PlanOverride `json:"overrides,omitempty"`
	RetryAfterSeconds float64                `json:"retry_after_seconds,omitempty"`
	// Traceparent carries the coordinator's per-lease dist/unit span
	// context; the worker parents its unit-execution span under it so the
	// stitched trace shows grant → simulate → deliver across processes.
	Traceparent string `json:"traceparent,omitempty"`
	// CampaignTraceparent carries the campaign span context on grants, so
	// a worker whose join raced ahead of the first round can still root
	// its session span under the campaign instead of starting a second
	// tree.
	CampaignTraceparent string `json:"campaign_traceparent,omitempty"`
}

// ResultRequest reports a unit outcome. RunGob carries the completed
// dataset.Run as gob bytes (base64 in JSON): gob is the repository's
// byte-exact float64 transport, and the run data contains NaN missing-value
// markers that JSON cannot carry. Error reports a non-drain simulation
// failure, which aborts the campaign (mirroring the in-process executor).
type ResultRequest struct {
	WorkerID string  `json:"worker_id"`
	LeaseID  string  `json:"lease_id"`
	Unit     int     `json:"unit"`
	Round    int     `json:"round"`
	Drained  bool    `json:"drained,omitempty"`
	DrainAt  float64 `json:"drain_at,omitempty"`
	RunGob   []byte  `json:"run_gob,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// ResultResponse acknowledges a result (StatusOK) or tells the worker the
// unit was no longer wanted (StatusStale — not an error; the unit was
// re-dispatched and answered by someone else, or the round moved on).
type ResultResponse struct {
	Status string `json:"status"`
}

// HeartbeatRequest is the periodic sign of life a worker sends while
// holding a lease (and while simulating a long unit in particular).
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id,omitempty"`
}

// HeartbeatResponse tells the worker whether the campaign still wants it.
type HeartbeatResponse struct {
	Status string `json:"status"` // StatusOK or StatusDone
}

// errorResponse is the JSON error body on non-2xx responses.
type errorResponse struct {
	Error string `json:"error"`
}

// EncodeRun serializes a completed run for the wire.
func EncodeRun(run *dataset.Run) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(run); err != nil {
		return nil, fmt.Errorf("dist: encode run: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRun deserializes and sanity-checks a wire run with the check
// dataset.Campaign.Validate applies to every run (dataset.Run.Validate),
// plus a refusal of runs with no steps, so a truncated or corrupt payload
// is rejected here — and the unit re-dispatched — instead of poisoning the
// merged campaign.
func DecodeRun(blob []byte) (*dataset.Run, error) {
	var run dataset.Run
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&run); err != nil {
		return nil, fmt.Errorf("dist: decode run: %w", err)
	}
	if run.Steps() == 0 {
		return nil, fmt.Errorf("dist: decoded run has no steps")
	}
	if err := run.Validate(); err != nil {
		return nil, fmt.Errorf("dist: decoded run: %w", err)
	}
	return &run, nil
}
