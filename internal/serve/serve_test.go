package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonvar/internal/gbr"
	"dragonvar/internal/linalg"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
)

const (
	testM = 5 // window steps
	testH = 3 // features per step
)

func trainForecaster(t *testing.T) *nn.Forecaster {
	t.Helper()
	s := rng.New(7)
	samples := make([]nn.Sample, 60)
	for i := range samples {
		steps := make([][]float64, testM)
		for st := range steps {
			row := make([]float64, testH)
			for j := range row {
				row[j] = s.Float64() * 4
			}
			steps[st] = row
		}
		samples[i] = nn.Sample{Steps: steps, Target: 10 + steps[testM-1][0]*2}
	}
	return nn.Train(samples, nn.Config{Epochs: 3}, s)
}

func trainGBR(t *testing.T) *gbr.Model {
	t.Helper()
	s := rng.New(8)
	x := linalg.NewMatrix(200, 3)
	y := make([]float64, 200)
	for i := 0; i < 200; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, s.Float64())
		}
		y[i] = 3*x.At(i, 0) + x.At(i, 1)
	}
	return gbr.Fit(x, y, nil, nil, gbr.Options{NumTrees: 10}, s)
}

// randomWindow yields a fresh valid forecast window.
func randomWindow(s *rng.Stream) [][]float64 {
	w := make([][]float64, testM)
	for i := range w {
		row := make([]float64, testH)
		for j := range row {
			row[j] = s.Float64() * 4
		}
		w[i] = row
	}
	return w
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestForecastMatchesDirectPrediction: the HTTP path (batching, caching,
// JSON) must return exactly what the in-process model returns.
func TestForecastMatchesDirectPrediction(t *testing.T) {
	f := trainForecaster(t)
	_, ts := newTestServer(t, Config{Forecaster: f})
	s := rng.New(11)
	for i := 0; i < 5; i++ {
		w := randomWindow(s)
		want := f.PredictAll([]nn.Sample{{Steps: w}})[0]
		resp, body := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: w})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got forecastResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Prediction != want {
			t.Fatalf("window %d: served %v, model says %v", i, got.Prediction, want)
		}
		if got.Cached {
			t.Fatalf("window %d: fresh window reported cached", i)
		}
	}
}

// TestForecastCacheHit: the same window served twice must come from the
// LRU on the second request.
func TestForecastCacheHit(t *testing.T) {
	reg := telemetry.New()
	telemetry.Enable(reg)
	defer telemetry.Disable()

	f := trainForecaster(t)
	srv, ts := newTestServer(t, Config{Forecaster: f})
	w := randomWindow(rng.New(12))

	var first forecastResponse
	_, body := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: w})
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	var second forecastResponse
	_, body = postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: w})
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first %v, second %v; want false, true", first.Cached, second.Cached)
	}
	if second.Prediction != first.Prediction {
		t.Fatalf("cache returned %v, model returned %v", second.Prediction, first.Prediction)
	}
	if srv.CacheLen() != 1 {
		t.Fatalf("cache holds %d entries, want 1", srv.CacheLen())
	}
	if hits := reg.Counter(telemetry.MServeCacheHits).Value(); hits != 1 {
		t.Fatalf("cache hit counter = %d, want 1", hits)
	}
}

func TestForecastRejectsBadWindows(t *testing.T) {
	f := trainForecaster(t)
	_, ts := newTestServer(t, Config{Forecaster: f})
	cases := []forecastRequest{
		{Window: nil},
		{Window: make([][]float64, testM)}, // nil rows
		{Window: [][]float64{{1, 2, 3}}},   // wrong step count
	}
	for i, c := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/forecast", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/forecast", "application/json",
		strings.NewReader(`{"window": not-json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/forecast"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET forecast: status %d, want 405", resp.StatusCode)
		}
	}
}

func TestDeviationEndpoint(t *testing.T) {
	m := trainGBR(t)
	_, ts := newTestServer(t, Config{GBR: m,
		GBRMeta: modelstore.Meta{FeatureNames: []string{"f0", "f1", "f2"}}})
	features := []float64{0.3, 0.5, 0.9}
	resp, body := postJSON(t, ts.URL+"/v1/deviation", deviationRequest{Features: features})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got deviationResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if want := m.Predict(features); got.Deviation != want {
		t.Fatalf("served %v, model says %v", got.Deviation, want)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/deviation", deviationRequest{Features: []float64{1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong feature count: status %d, want 400", resp.StatusCode)
	}
	// forecaster not loaded → its endpoint is 503, deviation still works
	if resp, _ := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forecast without model: status %d, want 503", resp.StatusCode)
	}
}

// TestQueueFullSheds429: with one execution slot and a one-deep queue, a
// third concurrent request must be shed with 429 while the first is
// parked inside a long batch window.
func TestQueueFullSheds429(t *testing.T) {
	f := trainForecaster(t)
	_, ts := newTestServer(t, Config{
		Forecaster:  f,
		MaxInflight: 1,
		MaxQueue:    1,
		MaxBatch:    64,
		BatchWindow: 400 * time.Millisecond, // first request parks here
	})
	s := rng.New(13)

	type shedResult struct {
		status     int
		retryAfter string
	}
	statuses := make(chan shedResult, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := randomWindow(s) // distinct windows: no cache short-circuit
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: w})
			statuses <- shedResult{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
		// let request i occupy its slot before launching i+1
		time.Sleep(100 * time.Millisecond)
	}
	wg.Wait()
	close(statuses)
	counts := map[int]int{}
	for r := range statuses {
		counts[r.status]++
		if r.status == http.StatusTooManyRequests && r.retryAfter == "" {
			t.Error("429 shed response carries no Retry-After header")
		}
	}
	if counts[http.StatusOK] != 2 || counts[http.StatusTooManyRequests] != 1 {
		t.Fatalf("status mix %v, want two 200s and one 429", counts)
	}
}

// TestGracefulDrain: during Drain, new requests get 503, /readyz flips,
// and the in-flight request completes with a real prediction.
func TestGracefulDrain(t *testing.T) {
	f := trainForecaster(t)
	srv, ts := newTestServer(t, Config{
		Forecaster:  f,
		BatchWindow: 300 * time.Millisecond,
	})
	s := rng.New(14)

	inflight := make(chan forecastResponse, 1)
	inflightStatus := make(chan int, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: randomWindow(s)})
		inflightStatus <- resp.StatusCode
		var fr forecastResponse
		json.Unmarshal(body, &fr)
		inflight <- fr
	}()
	time.Sleep(100 * time.Millisecond) // request is now parked in the batch window

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	time.Sleep(50 * time.Millisecond) // Drain is now waiting on the in-flight request

	if !srv.Draining() {
		t.Fatal("Draining() = false during drain")
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: status %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: randomWindow(s)}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Error("503 drain response carries no Retry-After header")
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz during drain: status %d, want 200", resp.StatusCode)
		}
	}

	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not finish")
	}
	if st := <-inflightStatus; st != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", st)
	}
	fr := <-inflight
	if fr.Prediction == 0 {
		t.Fatal("in-flight request got no prediction")
	}
	// Drain is idempotent
	srv.Drain()
}

// TestBatchingCoalesces: concurrent distinct requests inside one window
// must be answered by fewer model calls than requests, with every answer
// byte-identical to a direct PredictAll.
func TestBatchingCoalesces(t *testing.T) {
	reg := telemetry.New()
	telemetry.Enable(reg)
	defer telemetry.Disable()

	f := trainForecaster(t)
	_, ts := newTestServer(t, Config{
		Forecaster:  f,
		BatchWindow: 150 * time.Millisecond,
	})
	s := rng.New(15)
	const n = 8
	windows := make([][][]float64, n)
	for i := range windows {
		windows[i] = randomWindow(s)
	}

	preds := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, body := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: windows[i]})
			var fr forecastResponse
			if err := json.Unmarshal(body, &fr); err == nil {
				preds[i] = fr.Prediction
			}
		}()
	}
	wg.Wait()

	samples := make([]nn.Sample, n)
	for i := range samples {
		samples[i] = nn.Sample{Steps: windows[i]}
	}
	want := f.PredictAll(samples)
	for i := range want {
		if preds[i] != want[i] {
			t.Fatalf("request %d: batched %v, direct %v", i, preds[i], want[i])
		}
	}
	if batches := reg.Counter(telemetry.MServeBatches).Value(); batches >= n {
		t.Fatalf("%d model calls for %d concurrent requests: nothing coalesced", batches, n)
	}
}

func TestMetricsAndSpecEndpoints(t *testing.T) {
	reg := telemetry.New()
	telemetry.Enable(reg)
	defer telemetry.Disable()

	f := trainForecaster(t)
	_, ts := newTestServer(t, Config{
		Forecaster:   f,
		ForecastMeta: modelstore.Meta{Dataset: "AMG-128", Spec: "m=5 k=2 app", M: testM, K: 2, FeatureNames: []string{"a", "b", "c"}},
		ForecastID:   "deadbeef",
	})
	postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: randomWindow(rng.New(16))})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	// the four per-endpoint latency histograms are one family: each is
	// registered at construction, so all four are scraped before any but
	// /v1/forecast has seen traffic
	for _, want := range []string{"serve_requests_total", "serve_cache_misses",
		"serve_forecast_seconds", "serve_deviation_seconds", "serve_blame_seconds", "serve_spec_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/spec")
	if err != nil {
		t.Fatal(err)
	}
	var spec specResponse
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if spec.Dataset != "AMG-128" || spec.M != testM || spec.ForecastModel != "deadbeef" {
		t.Fatalf("spec = %+v", spec)
	}
	if fmt.Sprint(spec.WindowFeatures) != "[a b c]" {
		t.Fatalf("window features = %v", spec.WindowFeatures)
	}
	hists := reg.Snapshot().Histograms
	for name, want := range map[string]int64{
		telemetry.MServeForecastSecs: 1, telemetry.MServeSpecSecs: 1,
		telemetry.MServeDeviationSecs: 0, telemetry.MServeBlameSecs: 0,
	} {
		if got := hists[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
}
