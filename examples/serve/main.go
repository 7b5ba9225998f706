// Serving (the operational end of §V/§VII): train a small forecaster,
// persist it to a content-addressed model store, load it back, serve it
// over HTTP with its prediction cache, and act as a client — forecast
// twice (the second answer comes from the LRU cache), then drain
// gracefully. Everything runs in this one process; point the same client
// code at a long-running `dfserved` daemon in real use.
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"dragonvar/internal/modelstore"
	"dragonvar/internal/nn"
	"dragonvar/internal/rng"
	"dragonvar/internal/serve"
)

func main() {
	log.SetFlags(0)
	const m, h = 5, 3 // window: 5 steps × 3 features

	// 1. train a toy forecaster on synthetic windows
	fmt.Fprintln(os.Stderr, "training a toy forecaster...")
	s := rng.New(42)
	samples := make([]nn.Sample, 80)
	for i := range samples {
		steps := make([][]float64, m)
		for st := range steps {
			row := make([]float64, h)
			for j := range row {
				row[j] = s.Float64() * 4
			}
			steps[st] = row
		}
		samples[i] = nn.Sample{Steps: steps, Target: 10 + 2*steps[m-1][0]}
	}
	model := nn.Train(samples, nn.Config{Epochs: 10}, s)

	// 2. persist it, then load it back — the stored model predicts
	// byte-identically to the in-memory one
	dir, err := os.MkdirTemp("", "modelstore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := modelstore.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	meta := modelstore.Meta{Dataset: "toy", Seed: 42, Spec: "m=5 k=1 app", M: m, K: 1,
		FeatureNames: []string{"f0", "f1", "f2"}}
	id, err := store.Put("forecast/toy", meta, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored forecast/toy -> %s\n", id[:12])
	loaded, meta, _, err := store.GetForecaster("forecast/toy")
	if err != nil {
		log.Fatal(err)
	}

	// 3. serve it
	srv := serve.New(serve.Config{Forecaster: loaded, ForecastMeta: meta, ForecastID: id})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	// 4. be a client: same window twice — the repeat is a cache hit
	window := make([][]float64, m)
	for st := range window {
		window[st] = []float64{1.5, 0.5, 2.5}
	}
	payload, _ := json.Marshal(map[string]any{"window": window})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/forecast", "application/json", bytes.NewReader(payload))
		if err != nil {
			log.Fatal(err)
		}
		var out struct {
			Prediction float64 `json:"prediction"`
			Cached     bool    `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("forecast #%d: prediction=%.6f cached=%v\n", i+1, out.Prediction, out.Cached)
	}
	fmt.Printf("direct model call:          %.6f (identical)\n", loaded.Predict(window))

	// 5. drain: in-flight requests finish, new ones get 503, then stop
	srv.Drain()
	httpSrv.Close()
	fmt.Println("drained cleanly")
}
