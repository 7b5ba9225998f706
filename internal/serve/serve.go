// Package serve is the online inference layer of the reproduction: an
// HTTP/JSON service that answers forecast, deviation, and advisor queries
// from models trained on campaign data and persisted in a modelstore
// (internal/modelstore). It is the operational end the paper argues for
// (§V, §VII): counter-driven predictions served to a resource manager from
// live monitoring data, rather than recomputed inside one-shot CLI runs.
//
// The serving path is built for sustained traffic:
//
//   - a request-batching loop coalesces concurrent forecast requests into
//     single matrix-sized model calls (batch.go);
//   - an LRU prediction cache short-circuits repeated queries for the same
//     input window (lru.go);
//   - a concurrency limiter with a bounded wait queue sheds overload with
//     429 (queue full) and 503 (draining) instead of collapsing;
//   - every endpoint reports request, latency, shed and cache metrics
//     through the internal/telemetry registry, exposed in
//     OpenMetrics form on /metrics (docs/OBSERVABILITY.md);
//   - Drain stops intake and waits for every admitted request to finish,
//     so a SIGTERM never drops an in-flight response.
//
// Inference is read-only on the loaded models, so responses are
// byte-identical at any concurrency, batch size, or cache state — the
// serving-time extension of the repository's determinism contract.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dragonvar/internal/advisor"
	"dragonvar/internal/gbr"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/nn"
	"dragonvar/internal/telemetry"
)

// maxBodyBytes bounds request payloads; a forecast window is a few
// thousand floats, so 8 MiB is generous.
const maxBodyBytes = 8 << 20

// Config assembles a server from loaded models. Any model may be nil; its
// endpoints then answer 503 so a partially provisioned daemon still serves
// what it has.
type Config struct {
	Forecaster   *nn.Forecaster
	ForecastMeta modelstore.Meta // schema of the forecaster (M, K, FeatureNames)
	ForecastID   string          // modelstore content id, surfaced on /v1/spec

	GBR       *gbr.Model
	GBRMeta   modelstore.Meta
	GBRID     string
	Adv       *advisor.Advisor
	AdvisorID string

	MaxInflight int           // concurrent executing requests; default 64
	MaxQueue    int           // waiting requests beyond MaxInflight before 429; default 256
	MaxBatch    int           // forecast requests per coalesced model call; default 64
	BatchWindow time.Duration // batch collection window; default 2ms
	CacheSize   int           // LRU prediction-cache entries; default 4096
}

// Models is the hot-swappable part of a Config: the loaded models with
// their schemas and content ids. Swap installs a new set atomically while
// requests are in flight.
type Models struct {
	Forecaster   *nn.Forecaster
	ForecastMeta modelstore.Meta
	ForecastID   string

	GBR       *gbr.Model
	GBRMeta   modelstore.Meta
	GBRID     string
	Adv       *advisor.Advisor
	AdvisorID string
}

func (c Config) models() Models {
	return Models{
		Forecaster: c.Forecaster, ForecastMeta: c.ForecastMeta, ForecastID: c.ForecastID,
		GBR: c.GBR, GBRMeta: c.GBRMeta, GBRID: c.GBRID,
		Adv: c.Adv, AdvisorID: c.AdvisorID,
	}
}

// modelSet is one immutable generation of serving state: the models plus
// the per-generation machinery whose contents are model-dependent (the
// batching loop bound to the forecaster, the prediction cache, the window
// shape). Requests pin a generation for their lifetime under modelsMu's
// read lock, so a swap can never mix predictions across generations.
type modelSet struct {
	Models
	m, h    int // forecaster window shape (0 when no forecaster)
	batcher *batcher
	cache   *lru
}

func newModelSet(m Models, cfg Config) *modelSet {
	ms := &modelSet{Models: m, cache: newLRU(cfg.CacheSize)}
	if m.Forecaster != nil {
		ms.m, ms.h = m.Forecaster.WindowShape()
		ms.batcher = newBatcher(m.Forecaster, cfg.MaxBatch, cfg.BatchWindow)
	}
	return ms
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	return c
}

// Server is the inference service. Create with New, expose with Handler,
// stop with Drain.
type Server struct {
	cfg Config

	// models is the current serving generation; modelsMu is held shared
	// for the duration of any model access, so Swap (write lock) installs
	// a new generation only between requests and can safely stop the old
	// generation's batcher afterwards.
	modelsMu sync.RWMutex
	models   *modelSet

	sem     chan struct{}
	waiting atomic.Int64

	draining atomic.Bool
	drainMu  sync.RWMutex // held shared by every admitted request

	mux *http.ServeMux

	reqs, errs, shed       *telemetry.Counter
	cacheHits, cacheMisses *telemetry.Counter
	reloads                *telemetry.Counter
	latForecast            *telemetry.Histogram
	latDeviation           *telemetry.Histogram
	latBlame               *telemetry.Histogram
	latSpec                *telemetry.Histogram

	// per-endpoint request counters, split out from the aggregate
	// serve/requests_total so a traffic mix is readable off /metrics
	reqForecast, reqDeviation *telemetry.Counter
	reqBlame, reqSpec         *telemetry.Counter
}

// New builds the server and starts its batching loop. Enable telemetry
// before calling New: metric handles are captured here, at construction
// time, like every other instrumented component.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		sem:          make(chan struct{}, cfg.MaxInflight),
		reqs:         telemetry.C(telemetry.MServeRequests),
		errs:         telemetry.C(telemetry.MServeErrors),
		shed:         telemetry.C(telemetry.MServeShed),
		cacheHits:    telemetry.C(telemetry.MServeCacheHits),
		cacheMisses:  telemetry.C(telemetry.MServeCacheMisses),
		reloads:      telemetry.C(telemetry.MServeModelReloads),
		latForecast:  telemetry.H(telemetry.MServeForecastSecs, telemetry.LatencyBuckets),
		latDeviation: telemetry.H(telemetry.MServeDeviationSecs, telemetry.LatencyBuckets),
		latBlame:     telemetry.H(telemetry.MServeBlameSecs, telemetry.LatencyBuckets),
		latSpec:      telemetry.H(telemetry.MServeSpecSecs, telemetry.LatencyBuckets),
		reqForecast:  telemetry.C(telemetry.MServeForecastReqs),
		reqDeviation: telemetry.C(telemetry.MServeDeviationReqs),
		reqBlame:     telemetry.C(telemetry.MServeBlameReqs),
		reqSpec:      telemetry.C(telemetry.MServeSpecReqs),
	}
	s.models = newModelSet(cfg.models(), cfg)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/spec", s.handleSpec)
	s.mux.HandleFunc("/v1/forecast", s.limited("forecast", s.latForecast, s.reqForecast, s.handleForecast))
	s.mux.HandleFunc("/v1/deviation", s.limited("deviation", s.latDeviation, s.reqDeviation, s.handleDeviation))
	s.mux.HandleFunc("/v1/advisor/blame", s.limited("blame", s.latBlame, s.reqBlame, s.handleBlame))
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether a drain is in progress or complete.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain makes the server stop admitting API requests (new arrivals get
// 503, /readyz flips to 503), waits until every already-admitted request
// has finished, then stops the batching loop. Safe to call once; the
// daemon calls it on SIGTERM before http.Server.Shutdown.
func (s *Server) Drain() {
	if s.draining.Swap(true) {
		return
	}
	// every admitted request holds drainMu.RLock for its lifetime; taking
	// the write lock therefore blocks until the last one completes
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	// modelsMu excludes a concurrent Swap, whose freshly-built batcher
	// would otherwise escape this stop
	s.modelsMu.Lock()
	defer s.modelsMu.Unlock()
	if s.models.batcher != nil {
		s.models.batcher.stop()
	}
}

// acquire pins the current model generation for the caller's lifetime;
// the returned release must be called when done with the models.
func (s *Server) acquire() (*modelSet, func()) {
	s.modelsMu.RLock()
	return s.models, s.modelsMu.RUnlock
}

// Swap atomically installs a new model set: in-flight requests finish on
// the generation they pinned, new arrivals see the new models, the old
// batching loop is stopped after its last request completes, and the
// prediction cache starts cold (its entries belong to the old model).
// Refused once a drain has begun. This is the hot-reload path dfserved
// takes when a published ref advances (or on SIGHUP).
func (s *Server) Swap(m Models) error {
	next := newModelSet(m, s.cfg)
	s.modelsMu.Lock()
	if s.draining.Load() {
		s.modelsMu.Unlock()
		if next.batcher != nil {
			next.batcher.stop()
		}
		return fmt.Errorf("serve: swap refused: draining")
	}
	old := s.models
	s.models = next
	s.modelsMu.Unlock()
	// the write lock excluded every reader of the old generation, so its
	// batcher has no callers left; stop flushes nothing and exits cleanly
	if old.batcher != nil {
		old.batcher.stop()
	}
	s.reloads.Inc()
	return nil
}

// CacheLen returns the current prediction-cache entry count (for tests
// and the spec endpoint).
func (s *Server) CacheLen() int {
	ms, release := s.acquire()
	defer release()
	return ms.cache.len()
}

// ModelIDs returns the content ids of the currently served models — what
// a reloader compares against the store's refs to decide whether to Swap.
func (s *Server) ModelIDs() (forecast, gbr, advisor string) {
	ms, release := s.acquire()
	defer release()
	return ms.ForecastID, ms.GBRID, ms.AdvisorID
}

// apiError is the JSON error body every non-2xx API response carries.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON renders a 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// traced opens the per-request serve/request root span: it joins the
// caller's trace when the request carries a W3C traceparent header (a
// malformed header degrades to a fresh root), and echoes the span's own
// identity back in the response traceparent header so clients can
// correlate server-side spans with their request. Tracing is
// observation-only; with telemetry off this is a no-op returning a nil
// (no-op) span handle.
func (s *Server) traced(w http.ResponseWriter, r *http.Request, endpoint string) (*http.Request, *telemetry.Span) {
	ctx := telemetry.ExtractTraceparent(r.Context(), r.Header)
	ctx, span := telemetry.Start(ctx, telemetry.SpanServeRequest)
	span.SetAttr("endpoint", endpoint)
	if sc, ok := span.SpanContext(); ok {
		w.Header().Set(telemetry.TraceparentHeader, telemetry.FormatTraceparent(sc))
	}
	return r.WithContext(ctx), span
}

// limited wraps an API handler with the admission pipeline: drain check,
// bounded wait queue, concurrency semaphore, per-endpoint request
// accounting, and the per-request trace span.
func (s *Server) limited(endpoint string, lat *telemetry.Histogram, cnt *telemetry.Counter, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r, span := s.traced(w, r, endpoint)
		defer span.End()

		// the admit span covers everything between arrival and holding an
		// execution slot: drain check, queue wait, semaphore acquire
		_, admit := telemetry.Start(r.Context(), telemetry.SpanServeAdmit)

		// admission: a shared drain lock held for the request's lifetime.
		// TryRLock fails only while Drain holds (or waits for) the write
		// lock, at which point refusing is exactly the intent.
		if s.draining.Load() || !s.drainMu.TryRLock() {
			s.shed.Inc()
			admit.SetAttr("outcome", "shed-draining")
			admit.End()
			// a drain usually precedes a restart: tell well-behaved clients
			// when it is worth trying again instead of hammering the drain
			w.Header().Set("Retry-After", "5")
			apiError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		defer s.drainMu.RUnlock()

		// bounded queue: waiting counts requests parked on the semaphore
		depth := s.waiting.Add(1)
		if int(depth) > s.cfg.MaxQueue {
			s.waiting.Add(-1)
			s.shed.Inc()
			admit.SetAttr("outcome", "shed-queue-full")
			admit.End()
			// queue-full overload is transient at request timescales
			w.Header().Set("Retry-After", "1")
			apiError(w, http.StatusTooManyRequests, "overloaded: %d requests queued", depth-1)
			return
		}
		select {
		case s.sem <- struct{}{}:
		case <-r.Context().Done():
			s.waiting.Add(-1)
			admit.SetAttr("outcome", "cancelled")
			admit.End()
			return // client went away while queued; nothing to answer
		}
		s.waiting.Add(-1)
		admit.SetAttr("outcome", "admitted")
		admit.End()
		s.reqs.Inc()
		cnt.Inc()
		defer func() {
			<-s.sem
			lat.ObserveSince(start)
		}()

		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		fn(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the process's telemetry snapshot in the
// Prometheus/OpenMetrics text exposition format — the same path the other
// CLIs expose via -pprof.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.Active().Snapshot().WriteOpenMetrics(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// specResponse tells clients (and the load generator) what the daemon is
// serving: the forecast window geometry and feature schemas.
type specResponse struct {
	Dataset           string   `json:"dataset,omitempty"`
	Spec              string   `json:"spec,omitempty"`
	M                 int      `json:"m"`
	K                 int      `json:"k"`
	WindowFeatures    []string `json:"window_features,omitempty"`
	DeviationFeatures []string `json:"deviation_features,omitempty"`
	ForecastModel     string   `json:"forecast_model,omitempty"`
	DeviationModel    string   `json:"deviation_model,omitempty"`
	AdvisorModel      string   `json:"advisor_model,omitempty"`
	CacheEntries      int      `json:"cache_entries"`
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	_, span := s.traced(w, r, "spec")
	defer span.End()
	s.reqSpec.Inc()
	defer s.latSpec.ObserveSince(start)
	ms, release := s.acquire()
	defer release()
	writeJSON(w, specResponse{
		Dataset:           ms.ForecastMeta.Dataset,
		Spec:              ms.ForecastMeta.Spec,
		M:                 ms.m,
		K:                 ms.ForecastMeta.K,
		WindowFeatures:    ms.ForecastMeta.FeatureNames,
		DeviationFeatures: ms.GBRMeta.FeatureNames,
		ForecastModel:     ms.ForecastID,
		DeviationModel:    ms.GBRID,
		AdvisorModel:      ms.AdvisorID,
		CacheEntries:      ms.cache.len(),
	})
}

// forecastRequest is the /v1/forecast payload: the per-step feature rows
// of the last m steps, in the model's column order (see /v1/spec).
type forecastRequest struct {
	Window [][]float64 `json:"window"`
}

type forecastResponse struct {
	Prediction float64 `json:"prediction"`
	Cached     bool    `json:"cached"`
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.errs.Inc()
		apiError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ms, release := s.acquire()
	defer release()
	if ms.Forecaster == nil {
		s.errs.Inc()
		apiError(w, http.StatusServiceUnavailable, "no forecaster loaded")
		return
	}
	var req forecastRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.errs.Inc()
		apiError(w, http.StatusBadRequest, "bad payload: %v", err)
		return
	}
	if len(req.Window) != ms.m {
		s.errs.Inc()
		apiError(w, http.StatusBadRequest, "window has %d steps, model wants %d", len(req.Window), ms.m)
		return
	}
	for i, row := range req.Window {
		if len(row) != ms.h {
			s.errs.Inc()
			apiError(w, http.StatusBadRequest, "window step %d has %d features, model wants %d", i, len(row), ms.h)
			return
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.errs.Inc()
				apiError(w, http.StatusBadRequest, "window[%d][%d] is not finite", i, j)
				return
			}
		}
	}

	key := windowHash(req.Window)
	if pred, ok := ms.cache.get(key); ok {
		s.cacheHits.Inc()
		telemetry.FromContext(r.Context()).SetAttr("cached", "true")
		writeJSON(w, forecastResponse{Prediction: pred, Cached: true})
		return
	}
	s.cacheMisses.Inc()
	telemetry.FromContext(r.Context()).SetAttr("cached", "false")
	pctx, predictSpan := telemetry.Start(r.Context(), telemetry.SpanServePredict)
	pred, err := ms.batcher.predict(pctx, req.Window)
	predictSpan.End()
	if err != nil {
		s.errs.Inc()
		apiError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	ms.cache.put(key, pred)
	writeJSON(w, forecastResponse{Prediction: pred, Cached: false})
}

// deviationRequest is the /v1/deviation payload: one step's mean-centered
// counter deltas in Table II order (see /v1/spec deviation_features).
type deviationRequest struct {
	Features []float64 `json:"features"`
}

type deviationResponse struct {
	Deviation float64 `json:"deviation"`
}

func (s *Server) handleDeviation(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.errs.Inc()
		apiError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ms, release := s.acquire()
	defer release()
	if ms.GBR == nil {
		s.errs.Inc()
		apiError(w, http.StatusServiceUnavailable, "no deviation model loaded")
		return
	}
	var req deviationRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.errs.Inc()
		apiError(w, http.StatusBadRequest, "bad payload: %v", err)
		return
	}
	want := len(ms.GBRMeta.FeatureNames)
	if want == 0 {
		want = len(ms.GBR.Importance())
	}
	if len(req.Features) != want {
		s.errs.Inc()
		apiError(w, http.StatusBadRequest, "%d features, model wants %d", len(req.Features), want)
		return
	}
	for j, v := range req.Features {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s.errs.Inc()
			apiError(w, http.StatusBadRequest, "features[%d] is not finite", j)
			return
		}
	}
	writeJSON(w, deviationResponse{Deviation: ms.GBR.Predict(req.Features)})
}

// blameRequest is the /v1/advisor/blame payload: the users currently
// running on the system. A GET with no body returns the full blame list.
type blameRequest struct {
	RunningUsers []string `json:"running_users"`
}

type blameResponse struct {
	Delay         bool     `json:"delay"`
	BlamedPresent []string `json:"blamed_present"`
	BlameListSize int      `json:"blame_list_size"`
	Blamed        []string `json:"blamed,omitempty"` // full list, GET only
}

func (s *Server) handleBlame(w http.ResponseWriter, r *http.Request) {
	ms, release := s.acquire()
	defer release()
	if ms.Adv == nil {
		s.errs.Inc()
		apiError(w, http.StatusServiceUnavailable, "no advisor loaded")
		return
	}
	blamed := ms.Adv.Blamed()
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, blameResponse{BlameListSize: len(blamed), Blamed: blamed})
	case http.MethodPost:
		var req blameRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.errs.Inc()
			apiError(w, http.StatusBadRequest, "bad payload: %v", err)
			return
		}
		delay, present := ms.Adv.ShouldDelay(req.RunningUsers)
		if present == nil {
			present = []string{}
		}
		writeJSON(w, blameResponse{Delay: delay, BlamedPresent: present, BlameListSize: len(blamed)})
	default:
		s.errs.Inc()
		apiError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}
