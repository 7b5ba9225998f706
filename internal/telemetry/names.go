package telemetry

// Canonical metric and span names emitted across the repository. Every
// instrumented package refers to these constants instead of string
// literals, and the doc-lint test (lint_docs_test.go at the repo root)
// checks that each name is documented in docs/OBSERVABILITY.md — so the
// registry below is the single source of truth for what the system emits.
const (
	// internal/engine — the shared execution engine.
	MEngineMaps       = "engine/maps_total"         // counter: Map/MapOrdered invocations
	MEngineShards     = "engine/shards_total"       // counter: shards dispatched
	MEngineShardWait  = "engine/shard_wait_seconds" // histogram: Map entry → shard pickup
	MEngineShardRun   = "engine/shard_run_seconds"  // histogram: per-shard fn wall time
	MEngineMapSeconds = "engine/map_seconds"        // histogram: whole Map invocation
	GEngineWorkers    = "engine/workers"            // gauge: last resolved worker count

	// internal/netsim — the flow-level congestion simulator.
	MNetsimCacheHits   = "netsim/path_cache_hits"          // counter: candidate-path cache hits (local, per-network)
	MNetsimCacheMisses = "netsim/path_cache_misses"        // counter: candidate-path recomputations
	MNetsimCacheShared = "netsim/path_cache_shared_hits"   // counter: misses satisfied by the shared cross-worker cache
	MNetsimCacheInval  = "netsim/path_cache_invalidations" // counter: cache-epoch switches (dead-set changes, ResetCache)
	MNetsimRounds      = "netsim/rounds_total"             // counter: simulation rounds run
	MNetsimRoundFlits  = "netsim/round_flits"              // histogram: offered flits per round
	MNetsimRoundSecs   = "netsim/round_seconds"            // histogram: wall time per round
	GNetsimMaxUtil     = "netsim/max_link_utilization"     // gauge: max link utilization of the last routed round

	// internal/routing — pluggable routing-policy decisions.
	MRoutingCandidateSets = "routing/candidate_sets_total"        // counter: candidate sets built (one per path-cache miss)
	MRoutingMinimal       = "routing/minimal_candidates_total"    // counter: minimal candidates returned across all sets
	MRoutingNonMinimal    = "routing/nonminimal_candidates_total" // counter: non-minimal (Valiant/BFS) candidates returned
	MRoutingBFSFallback   = "routing/bfs_fallbacks_total"         // counter: faults blocked every structured candidate; healthy-BFS route used

	// internal/slurm + internal/cluster — pluggable placement-policy decisions.
	MSlurmPlacements      = "slurm/placements_total"         // counter: successful policy placements
	MSlurmPlacementNodes  = "slurm/placement_nodes"          // histogram: nodes handed out per placement
	MSlurmPlacementGroups = "slurm/placement_groups"         // histogram: groups spanned per placement
	MSlurmHotGroupAvoided = "slurm/hot_groups_avoided_total" // counter: hot groups excluded by interference-aware placement
	MSlurmAdviceFallback  = "slurm/advice_fallbacks_total"   // counter: interference-aware placements that had to ignore the advice to fit

	// internal/monitor — the streaming network-weather monitor.
	MMonitorSamples   = "monitor/samples_total"         // counter: healthy observations consumed
	MMonitorEvents    = "monitor/events_total"          // counter: anomaly events emitted
	GMonitorHot       = "monitor/hot_routers"           // gauge: routers currently flagged hot
	GMonitorCongested = "monitor/congested_groups"      // gauge: groups currently over the stall threshold
	GMonitorMaxStall  = "monitor/max_group_stall_ratio" // gauge: max smoothed per-group stall ratio
	GMonitorGapFrac   = "monitor/gap_fraction"          // gauge: missing / (missing+healthy) observations
	GMonitorLastT     = "monitor/last_sample_t"         // gauge: simulated time of the last healthy observation

	// internal/cluster — the campaign driver.
	MClusterRuns      = "cluster/runs_total"               // counter: controlled runs completed
	MClusterDrained   = "cluster/runs_drained_total"       // counter: runs killed by a fault mid-flight
	MClusterRequeues  = "cluster/requeues_total"           // counter: fault requeues issued
	MClusterAbandoned = "cluster/requeues_abandoned_total" // counter: submissions given up after requeueLimit
	MClusterRounds    = "cluster/rounds_total"             // counter: campaign simulation rounds
	MClusterRunSecs   = "cluster/run_seconds"              // histogram: per-run simulation wall time
	MClusterMergeSecs = "cluster/merge_seconds"            // histogram: serial merge+requeue phase per round
	MLDMSSamples      = "ldms/samples_total"               // counter: LDMS samples recorded

	// internal/dataset + internal/core — the campaign gob cache.
	MCacheHits       = "dataset/cache_hits"         // counter: cache satisfied a campaign request
	MCacheMisses     = "dataset/cache_misses"       // counter: cache absent/stale → regeneration
	MCacheReadBytes  = "dataset/cache_read_bytes"   // counter: gob bytes read
	MCacheWriteBytes = "dataset/cache_write_bytes"  // counter: gob bytes written
	MCacheLoadSecs   = "dataset/cache_load_seconds" // histogram: Load wall time
	MCacheSaveSecs   = "dataset/cache_save_seconds" // histogram: Save wall time

	// internal/dataset — the streaming ingest path (daemon mode).
	MSegmentsSealed    = "dataset/segments_sealed_total" // counter: ingest windows sealed into segment files
	MSegmentWriteBytes = "dataset/segment_write_bytes"   // counter: segment bytes written (CRC-framed gob)

	// the ML stack (internal/gbr, internal/nn, internal/rfe).
	MGBRFits    = "ml/gbr_fits_total"   // counter: boosted models fitted
	MGBRFitSecs = "ml/gbr_fit_seconds"  // histogram: per-fit wall time
	MNNFits     = "ml/nn_fits_total"    // counter: forecaster trainings
	MNNFitSecs  = "ml/nn_fit_seconds"   // histogram: per-training wall time
	MRFEFolds   = "ml/rfe_folds_total"  // counter: RFE cross-validation folds run
	MRFERounds  = "ml/rfe_rounds_total" // counter: RFE elimination iterations across folds

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
	MServeQueueDepth    = "serve/queue_depth"              // histogram: waiting requests sampled at each admission
	GServeInflight      = "serve/inflight"                 // gauge: requests currently holding an execution slot
	GServeDraining      = "serve/draining"                 // gauge: 1 while graceful drain is in progress
	MServeCacheHits     = "serve/cache_hits"               // counter: forecast LRU prediction-cache hits
	MServeCacheMisses   = "serve/cache_misses"             // counter: forecast LRU prediction-cache misses
	MServeBatches       = "serve/batches_total"            // counter: coalesced model batch calls
	MServeBatchSize     = "serve/batch_size"               // histogram: forecast requests coalesced per batch call
	MServeModelReloads  = "serve/model_reloads_total"      // counter: hot model swaps (ref advance or SIGHUP)

	// internal/dist — the distributed campaign layer (coordinator unless
	// noted; the client-retry counter is recorded by worker processes).
	MDistLeasesGranted    = "dist/leases_granted_total"     // counter: work-unit leases handed to workers
	MDistLeaseExpired     = "dist/lease_expired_total"      // counter: leases that hit their deadline unanswered
	MDistLeaseRedispatch  = "dist/lease_redispatched_total" // counter: units re-queued after expiry, worker death, or a malformed result
	MDistResults          = "dist/results_total"            // counter: unit results accepted
	MDistResultsMalformed = "dist/results_malformed_total"  // counter: results rejected as undecodable or inconsistent
	MDistResultsStale     = "dist/results_stale_total"      // counter: results for already-completed or out-of-round units
	MDistWorkerDeaths     = "dist/worker_deaths_total"      // counter: workers declared dead after missed heartbeats
	MDistCheckpointRecs   = "dist/checkpoint_records_total" // counter: outcome records appended to the spill file
	MDistResumedUnits     = "dist/resumed_units_total"      // counter: units satisfied from the checkpoint on resume
	MDistClientRetries    = "dist/client_retries_total"     // counter: worker-side RPC retries (transient coordinator errors)
	MDistHeartbeatGap     = "dist/heartbeat_gap_seconds"    // histogram: gap between consecutive signs of life per worker
	MDistWorkerUnits      = "dist/worker_units"             // histogram: units completed per worker, observed at campaign end
	GDistWorkers          = "dist/workers"                  // gauge: workers currently considered alive
	GDistPendingUnits     = "dist/pending_units"            // gauge: units of the current round not yet completed
	GDistLeasedUnits      = "dist/leased_units"             // gauge: units currently out on a lease

	// internal/monitor — event-stream rotation (daemon mode).
	MMonitorRotations = "monitor/rotations_total" // counter: JSONL event files rotated out

	// internal/daemon — the continuous-operation daemon (cmd/dfvard).
	MDaemonEpochs        = "daemon/epochs_total"         // counter: campaign epochs completed
	MDaemonRunsIngested  = "daemon/runs_ingested_total"  // counter: runs streamed into the windowed dataset
	MDaemonResumedRuns   = "daemon/resumed_runs_total"   // counter: runs skipped on resume (already ingested pre-kill)
	MDaemonRetrains      = "daemon/retrains_total"       // counter: retraining passes (scheduled + drift)
	MDaemonDriftRetrains = "daemon/drift_retrains_total" // counter: retrains triggered by drift breaches
	MDaemonPublishes     = "daemon/publishes_total"      // counter: model refs advanced in the modelstore
	MDaemonEpochSecs     = "daemon/epoch_seconds"        // histogram: wall time per campaign epoch
	MDaemonRetrainSecs   = "daemon/retrain_seconds"      // histogram: wall time per retraining pass
	GDaemonLiveMAPE      = "daemon/live_mape"            // gauge: rolling forecast MAPE over recent sealed windows
	GDaemonTrainMAPE     = "daemon/train_mape"           // gauge: training-time MAPE of the serving forecaster
)

// Serving bucket layouts. Like the layouts in telemetry.go these are fixed
// so snapshots from different daemons aggregate bucket-by-bucket.
var (
	// LatencyBuckets spans 50 µs … 10 s with ~2.5× steps — tight enough to
	// read p99 on a sub-millisecond cache hit and wide enough for a cold
	// batched model call under queueing.
	LatencyBuckets = []float64{5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
		2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// QueueDepthBuckets spans 0 … 4096 in powers of two (0 gets its own
	// bucket: an empty queue is the common, healthy case).
	QueueDepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
)

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

// AllMetricNames lists every metric name the repository emits; the doc-lint
// test requires each to appear in docs/OBSERVABILITY.md.
var AllMetricNames = []string{
	MEngineMaps, MEngineShards, MEngineShardWait, MEngineShardRun, MEngineMapSeconds, GEngineWorkers,
	MNetsimCacheHits, MNetsimCacheMisses, MNetsimCacheShared, MNetsimCacheInval, MNetsimRounds, MNetsimRoundFlits, MNetsimRoundSecs, GNetsimMaxUtil,
	MRoutingCandidateSets, MRoutingMinimal, MRoutingNonMinimal, MRoutingBFSFallback,
	MSlurmPlacements, MSlurmPlacementNodes, MSlurmPlacementGroups, MSlurmHotGroupAvoided, MSlurmAdviceFallback,
	MMonitorSamples, MMonitorEvents, GMonitorHot, GMonitorCongested, GMonitorMaxStall, GMonitorGapFrac, GMonitorLastT,
	MClusterRuns, MClusterDrained, MClusterRequeues, MClusterAbandoned, MClusterRounds, MClusterRunSecs, MClusterMergeSecs,
	MLDMSSamples,
	MCacheHits, MCacheMisses, MCacheReadBytes, MCacheWriteBytes, MCacheLoadSecs, MCacheSaveSecs,
	MSegmentsSealed, MSegmentWriteBytes,
	MGBRFits, MGBRFitSecs, MNNFits, MNNFitSecs, MRFEFolds, MRFERounds,
	MServeRequests, MServeErrors, MServeShed,
	MServeForecastReqs, MServeDeviationReqs, MServeBlameReqs, MServeSpecReqs,
	MServeForecastSecs, MServeDeviationSecs, MServeBlameSecs, MServeSpecSecs, MServeQueueDepth,
	GServeInflight, GServeDraining,
	MServeCacheHits, MServeCacheMisses, MServeBatches, MServeBatchSize, MServeModelReloads,
	MDistLeasesGranted, MDistLeaseExpired, MDistLeaseRedispatch,
	MDistResults, MDistResultsMalformed, MDistResultsStale,
	MDistWorkerDeaths, MDistCheckpointRecs, MDistResumedUnits, MDistClientRetries,
	MDistHeartbeatGap, MDistWorkerUnits,
	GDistWorkers, GDistPendingUnits, GDistLeasedUnits,
	MMonitorRotations,
	MDaemonEpochs, MDaemonRunsIngested, MDaemonResumedRuns,
	MDaemonRetrains, MDaemonDriftRetrains, MDaemonPublishes,
	MDaemonEpochSecs, MDaemonRetrainSecs, GDaemonLiveMAPE, GDaemonTrainMAPE,
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
