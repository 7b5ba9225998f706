package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
	"dragonvar/internal/telemetry"
)

// trainForecasterSeed is trainForecaster with a controllable seed, so a
// swap test can install a model that predicts differently.
func trainForecasterSeed(t *testing.T, seed int64) *nn.Forecaster {
	t.Helper()
	s := rng.New(seed)
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

// TestHotSwap: swapping a new model set in changes predictions, flushes
// the cache, repoints the ids, and bumps the reload counter — all
// without restarting the server.
func TestHotSwap(t *testing.T) {
	reg := telemetry.New()
	telemetry.Enable(reg)
	defer telemetry.Disable()

	a := trainForecasterSeed(t, 7)
	b := trainForecasterSeed(t, 99)
	srv, ts := newTestServer(t, Config{Forecaster: a, ForecastID: "model-a"})
	w := randomWindow(rng.New(12))

	var before forecastResponse
	_, body := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: w})
	json.Unmarshal(body, &before)

	// Warm the cache, then swap.
	_, body = postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: w})
	var cached forecastResponse
	json.Unmarshal(body, &cached)
	if !cached.Cached {
		t.Fatal("second identical request not served from cache")
	}

	if err := srv.Swap(Models{Forecaster: b, ForecastID: "model-b"}); err != nil {
		t.Fatal(err)
	}
	if fid, _, _ := srv.ModelIDs(); fid != "model-b" {
		t.Fatalf("ModelIDs after swap = %q, want model-b", fid)
	}

	var after forecastResponse
	_, body = postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: w})
	json.Unmarshal(body, &after)
	if after.Cached {
		t.Fatal("request after swap served from the old model's cache")
	}
	if after.Prediction == before.Prediction {
		t.Fatalf("prediction unchanged across swap: %v", after.Prediction)
	}
	if got := reg.Counter(telemetry.MServeModelReloads).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", telemetry.MServeModelReloads, got)
	}

	// The spec endpoint reports the new id too.
	resp, err := http.Get(ts.URL + "/v1/spec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spec struct {
		ForecastModel string `json:"forecast_model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.ForecastModel != "model-b" {
		t.Fatalf("/v1/spec forecast_model = %q, want model-b", spec.ForecastModel)
	}
}

// TestSwapDrainSafe: a request inside its model call when Swap lands
// still completes on the model it started with, and the next request is
// served by the new model. The swap never drops or errors in-flight work.
func TestSwapDrainSafe(t *testing.T) {
	a := trainForecasterSeed(t, 7)
	b := trainForecasterSeed(t, 99)
	srv, ts, g := newGatedServer(t, Config{Forecaster: a, ForecastID: "model-a"})
	s := rng.New(14)
	w := randomWindow(s)

	inflightStatus := make(chan int, 1)
	inflight := make(chan forecastResponse, 1)
	go func() {
		resp, body, err := tryPostJSON(ts.URL+"/v1/forecast", forecastRequest{Window: w})
		if err != nil {
			t.Error(err)
			inflightStatus <- 0
			inflight <- forecastResponse{}
			return
		}
		inflightStatus <- resp.StatusCode
		var fr forecastResponse
		json.Unmarshal(body, &fr)
		inflight <- fr
	}()
	<-g.held // the request is now inside model A's call

	swapped := make(chan error, 1)
	go func() { swapped <- srv.Swap(Models{Forecaster: b, ForecastID: "model-b"}) }()
	// Swap installs model B once the in-flight request lets go of model A:
	// wait until it is waiting for the write lock
	waitFor(t, "the swap to wait on the in-flight request", func() bool {
		if srv.modelsMu.TryRLock() {
			srv.modelsMu.RUnlock()
			return false
		}
		return true
	})
	g.open()
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}

	if st := <-inflightStatus; st != http.StatusOK {
		t.Fatalf("in-flight request during swap: status %d, want 200", st)
	}
	if fr, want := <-inflight, a.Predict(w); fr.Prediction != want {
		t.Fatalf("in-flight request got %v, model A predicts %v", fr.Prediction, want)
	}

	next := randomWindow(s)
	var after forecastResponse
	_, body := postJSON(t, ts.URL+"/v1/forecast", forecastRequest{Window: next})
	json.Unmarshal(body, &after)
	if want := b.Predict(next); after.Prediction != want {
		t.Fatalf("post-swap request got %v, model B predicts %v", after.Prediction, want)
	}
	if fid, _, _ := srv.ModelIDs(); fid != "model-b" {
		t.Fatalf("ModelIDs after swap = %q, want model-b", fid)
	}
}

// TestSwapRefusedWhileDraining: a draining server must not accept new
// models — the replica is going away.
func TestSwapRefusedWhileDraining(t *testing.T) {
	a := trainForecasterSeed(t, 7)
	srv, _ := newTestServer(t, Config{Forecaster: a})
	srv.Drain()
	err := srv.Swap(Models{Forecaster: trainForecasterSeed(t, 99)})
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("Swap during drain = %v, want draining refusal", err)
	}
}
