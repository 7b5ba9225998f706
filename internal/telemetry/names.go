package telemetry

// Canonical metric and span names emitted across the repository. Every
// instrumented package refers to these constants instead of string
// literals, and the doc-lint tests (lint_docs_test.go at the repo root)
// check that each name is documented in docs/OBSERVABILITY.md and that
// each metric has a reader — so the registry below is the single source
// of truth for what the system emits, and holds only what is read.
const (
	// internal/engine — the shared execution engine.
	MEngineMaps     = "engine/maps_total"        // counter: Map/MapOrdered invocations
	MEngineShardRun = "engine/shard_run_seconds" // histogram: per-shard fn wall time

	// internal/netsim — the flow-level congestion simulator.
	MNetsimCacheHits   = "netsim/path_cache_hits"          // counter: candidate-path lookups the path cache answered (own or shared entries)
	MNetsimCacheMisses = "netsim/path_cache_misses"        // counter: candidate-path recomputations; hits + misses = lookups
	MNetsimCacheInval  = "netsim/path_cache_invalidations" // counter: dead-link-set switches
	MNetsimRounds      = "netsim/rounds_total"             // counter: simulation rounds run
	MNetsimRoundFlits  = "netsim/round_flits"              // histogram: offered flits per round

	// internal/routing + internal/slurm — pluggable policy decisions.
	MRoutingCandidateSets = "routing/candidate_sets_total" // counter: candidate sets built (one per path-cache miss)
	MSlurmPlacements      = "slurm/placements_total"       // counter: successful policy placements
	MSlurmFootprints      = "slurm/footprints_built_total" // counter: background-job footprints built (each on its first read)

	// internal/cluster — the campaign driver.
	MClusterRuns     = "cluster/runs_total"     // counter: controlled runs completed
	MClusterRequeues = "cluster/requeues_total" // counter: fault requeues issued
	MClusterRounds   = "cluster/rounds_total"   // counter: campaign simulation rounds
	MClusterRunSecs  = "cluster/run_seconds"    // histogram: per-run simulation wall time

	// the ML stack (internal/gbr, internal/nn, internal/rfe).
	MGBRFits   = "ml/gbr_fits_total"   // counter: boosted models fitted
	MNNFits    = "ml/nn_fits_total"    // counter: forecaster trainings
	MRFERounds = "ml/rfe_rounds_total" // counter: RFE elimination iterations across folds

	// internal/serve — the forecast-serving daemon (cmd/dfserved).
	MServeRequests      = "serve/requests_total"           // counter: API requests admitted past the limiter
	MServeErrors        = "serve/errors_total"             // counter: 4xx/5xx API responses (bad payloads, internal errors)
	MServeShed          = "serve/shed_total"               // counter: requests shed with 429 (queue full) or 503 (draining)
	MServeForecastReqs  = "serve/forecast_requests_total"  // counter: /v1/forecast requests admitted
	MServeDeviationReqs = "serve/deviation_requests_total" // counter: /v1/deviation requests admitted
	MServeBlameReqs     = "serve/blame_requests_total"     // counter: /v1/advisor/blame requests admitted
	MServeSpecReqs      = "serve/spec_requests_total"      // counter: /v1/spec requests served
	MServeForecastSecs  = "serve/forecast_seconds"         // histogram: /v1/forecast end-to-end latency
	MServeDeviationSecs = "serve/deviation_seconds"        // histogram: /v1/deviation end-to-end latency
	MServeBlameSecs     = "serve/blame_seconds"            // histogram: /v1/advisor/blame end-to-end latency
	MServeSpecSecs      = "serve/spec_seconds"             // histogram: /v1/spec end-to-end latency
	MServeCacheHits     = "serve/cache_hits"               // counter: forecast LRU prediction-cache hits
	MServeCacheMisses   = "serve/cache_misses"             // counter: forecast LRU prediction-cache misses
	MServeBatches       = "serve/batches_total"            // counter: coalesced model batch calls
	MServeBatchSize     = "serve/batch_size"               // histogram: forecast requests coalesced per batch call
	MServeModelReloads  = "serve/model_reloads_total"      // counter: hot model swaps (ref advance or SIGHUP)

	// internal/dist — the distributed campaign layer (coordinator unless
	// noted; the client-retry counter is recorded by worker processes).
	MDistLeaseExpired     = "dist/lease_expired_total"      // counter: leases that hit their deadline unanswered
	MDistLeaseRedispatch  = "dist/lease_redispatched_total" // counter: units re-queued after expiry, worker death, or a malformed result
	MDistResultsMalformed = "dist/results_malformed_total"  // counter: results rejected as undecodable or inconsistent
	MDistWorkerDeaths     = "dist/worker_deaths_total"      // counter: workers declared dead after missed heartbeats
	MDistResumedUnits     = "dist/resumed_units_total"      // counter: units satisfied from the checkpoint on resume
	MDistClientRetries    = "dist/client_retries_total"     // counter: worker-side RPC retries (transient coordinator errors)
	GDistLeasedUnits      = "dist/leased_units"             // gauge: units currently out on a lease

	// internal/daemon — the continuous-operation daemon (cmd/dfvard).
	MDaemonRunsIngested  = "daemon/runs_ingested_total"  // counter: runs streamed into the windowed dataset
	MDaemonRetrains      = "daemon/retrains_total"       // counter: retraining passes (scheduled + drift)
	MDaemonDriftRetrains = "daemon/drift_retrains_total" // counter: retrains triggered by drift breaches
)

// LatencyBuckets is the serving latency layout: 50 µs … 10 s with ~2.5×
// steps — tight enough to read p99 on a sub-millisecond cache hit and wide
// enough for a cold batched model call under queueing. Like the layouts in
// telemetry.go it is fixed, so snapshots from different daemons aggregate
// bucket-by-bucket.
var LatencyBuckets = []float64{5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
	2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Span names. Dynamic suffixes are limited to the documented artifact
// names ("report/fig9", …); everything else is a fixed string.
const (
	SpanClusterNew       = "cluster/new"         // cluster.New before a local campaign: machine, faults, background timeline
	SpanCampaign         = "campaign"            // one controlled-experiment campaign
	SpanCampaignSchedule = "campaign/schedule"   // child: placement of all submissions
	SpanCampaignRound    = "campaign/round"      // child: one parallel simulation round
	SpanMLForecast       = "ml/forecast"         // one forecasting grid: every cell's cross-validated training+eval
	SpanMLDeviation      = "ml/deviation"        // GBR+RFE deviation analysis
	SpanMLImportances    = "ml/importances"      // permutation-importance pass
	SpanMLForecastLong   = "ml/forecast_longrun" // long-run segment forecasting
	SpanLDMSRecord       = "ldms/record"         // system-wide counter recording
	SpanReportPrefix     = "report/"             // + artifact name (report/fig9, report/table1, …)

	// internal/dist — cross-process campaign spans. The coordinator opens
	// one dist/unit span per lease (attrs: unit, round, worker, attempt;
	// outcome on close); the worker roots its session span under the
	// campaign trace and parents each unit execution to the coordinator's
	// lease span via the traceparent handed back in the lease response.
	SpanDistUnit      = "dist/unit"      // coordinator: one lease lifetime (grant → result/requeue)
	SpanDistWorker    = "dist/worker"    // worker: one join→drain session, child of the campaign span
	SpanDistUnitExec  = "dist/unit_exec" // worker: one leased unit execution, child of dist/unit
	SpanDistSimulate  = "dist/simulate"  // worker: the simulation itself (compute)
	SpanDistDeliver   = "dist/deliver"   // worker: result delivery RPC including retries (network)
	SpanDistRPCPrefix = "dist/rpc/"      // coordinator: + endpoint (dist/rpc/lease, dist/rpc/result); only for requests carrying a traceparent

	// internal/serve — per-request spans in the forecast daemon. Each
	// request gets a root span (or joins the client's trace when the
	// request carries a traceparent header); the span context is returned
	// in the response's traceparent header for client correlation.
	SpanServeRequest = "serve/request" // one API request, admission → response (attrs: endpoint, outcome)
	SpanServeAdmit   = "serve/admit"   // child: admission queue wait
	SpanServePredict = "serve/predict" // child: batched model call on a forecast cache miss

	// internal/daemon — the continuous-operation loop in cmd/dfvard.
	SpanDaemonEpoch   = "daemon/epoch"   // one campaign epoch: simulate + ingest
	SpanDaemonRetrain = "daemon/retrain" // one retraining pass (attrs: reason, retrain index)
	SpanDaemonPublish = "daemon/publish" // one modelstore publish of a retrained model set
)

// AllMetricNames lists every metric name the repository emits. The
// doc-lint tests (lint_docs_test.go) require each to appear in
// docs/OBSERVABILITY.md and to be read by a test outside this package or
// by perfbench: a metric nobody reads is not kept.
var AllMetricNames = []string{
	MEngineMaps, MEngineShardRun,
	MNetsimCacheHits, MNetsimCacheMisses, MNetsimCacheInval, MNetsimRounds, MNetsimRoundFlits,
	MRoutingCandidateSets, MSlurmPlacements, MSlurmFootprints,
	MClusterRuns, MClusterRequeues, MClusterRounds, MClusterRunSecs,
	MGBRFits, MNNFits, MRFERounds,
	MServeRequests, MServeErrors, MServeShed,
	MServeForecastReqs, MServeDeviationReqs, MServeBlameReqs, MServeSpecReqs,
	MServeForecastSecs, MServeDeviationSecs, MServeBlameSecs, MServeSpecSecs,
	MServeCacheHits, MServeCacheMisses, MServeBatches, MServeBatchSize, MServeModelReloads,
	MDistLeaseExpired, MDistLeaseRedispatch, MDistResultsMalformed,
	MDistWorkerDeaths, MDistResumedUnits, MDistClientRetries, GDistLeasedUnits,
	MDaemonRunsIngested, MDaemonRetrains, MDaemonDriftRetrains,
}

// AllSpanNames lists every fixed span name plus the report prefix.
var AllSpanNames = []string{
	SpanClusterNew, SpanCampaign, SpanCampaignSchedule, SpanCampaignRound,
	SpanMLForecast, SpanMLDeviation, SpanMLImportances, SpanMLForecastLong,
	SpanLDMSRecord, SpanReportPrefix,
	SpanDistUnit, SpanDistWorker, SpanDistUnitExec, SpanDistSimulate, SpanDistDeliver, SpanDistRPCPrefix,
	SpanServeRequest, SpanServeAdmit, SpanServePredict,
	SpanDaemonEpoch, SpanDaemonRetrain, SpanDaemonPublish,
}
