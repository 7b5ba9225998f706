package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark owns its load generator instead of reusing
// "dfserved -loadgen", which has two defects: it times each request from
// when a worker sent it rather than from when it was due, so a stall that
// delays sending hides from its latencies (targets of 1000 and 4000 rps
// achieved 948 and 2020 and still reported zero errors), and its
// -distinct windows come from a stream that overlaps a pooled run's, so a
// distinct run after a pooled one against the same daemon hit the cache.
// Here every request is timed from its due time, the generator's own
// lateness is reported, and each phase draws its windows from its own
// stream.

// maxOutstanding bounds the requests in flight. It stays below the
// server's admission capacity (64 executing plus 256 queued by default), so
// an overloaded rung is cut short by the generator, never shed by the
// server.
const maxOutstanding = 256

// phase is one open-loop run: requests go out on a fixed schedule, rate
// per second for dur, whether or not earlier ones have answered.
type phase struct {
	name     string
	rate     float64
	dur      time.Duration
	payloads [][]byte // request i sends payloads[i%len(payloads)]
	sampleAt int      // keep the prediction of every sampleAt-th request
}

// phaseResult is what one phase observed.
type phaseResult struct {
	sent, ok, shed, errs, cached int
	lat                          []float64 // ms from due time to response, successful requests
	latAt                        []int     // request index of each lat entry
	lag                          []float64 // ms from due time to send, every request
	aborted                      bool      // stopped early: maxOutstanding requests in flight
	wall                         time.Duration
	samples                      map[int]float64 // request index -> prediction
}

// p99Window is the number of consecutive requests one p99 is taken over:
// the fewest that leave ten samples beyond the 99th percentile.
const p99Window = 1000

// p99 is the median over consecutive p99Window-request windows of each
// window's 99th-percentile latency. Due-time latency makes one host stall
// delay every request due during it; the median keeps such a stall to the
// window it fell in.
func (r *phaseResult) p99() float64 {
	windows := map[int][]float64{}
	for k, l := range r.lat {
		w := r.latAt[k] / p99Window
		windows[w] = append(windows[w], l)
	}
	var p99s []float64
	for _, ls := range windows {
		p99s = append(p99s, quantile(ls, 0.99))
	}
	return median(p99s)
}

// generator sends /v1/forecast requests to one server.
type generator struct {
	client *http.Client
	url    string
	tr     *tracer
}

// newGenerator returns a generator that multiplexes its requests over at
// most simWorkers unencrypted HTTP/2 connections.
func newGenerator(base string, tr *tracer) *generator {
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	transport := &http.Transport{Protocols: &protos, MaxConnsPerHost: simWorkers}
	return &generator{
		client: &http.Client{Transport: transport, Timeout: 10 * time.Second},
		url:    base + "/v1/forecast",
		tr:     tr,
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// run drives one phase and waits for every request it sent.
func (g *generator) run(p phase, parent int64) *phaseResult {
	sp := g.tr.begin(parent, "loadgen."+p.name)
	defer sp.finish()
	res := &phaseResult{samples: map[int]float64{}}
	n := int(p.rate * p.dur.Seconds())
	interval := time.Duration(float64(time.Second) / p.rate)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if outstanding.Load() >= maxOutstanding {
			res.aborted = true
			break
		}
		outstanding.Add(1)
		wg.Add(1)
		res.sent++
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			req := g.tr.begin(sp.id, "serve.request")
			sent := time.Now()
			pred, cached, status, err := g.post(p.payloads[i%len(p.payloads)])
			done := time.Now()
			req.finish()
			mu.Lock()
			defer mu.Unlock()
			res.lag = append(res.lag, millis(sent.Sub(due)))
			switch {
			case err != nil:
				res.errs++
			case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
				res.shed++
			case status != http.StatusOK:
				res.errs++
			default:
				res.ok++
				res.lat = append(res.lat, millis(done.Sub(due)))
				res.latAt = append(res.latAt, i)
				if cached {
					res.cached++
				}
				if p.sampleAt > 0 && i%p.sampleAt == 0 {
					res.samples[i] = pred
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

func (g *generator) post(payload []byte) (pred float64, cached bool, status int, err error) {
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, false, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, resp.StatusCode, nil
	}
	var fr struct {
		Prediction float64 `json:"prediction"`
		Cached     bool    `json:"cached"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		return 0, false, resp.StatusCode, fmt.Errorf("decode forecast response: %w", err)
	}
	return fr.Prediction, fr.Cached, resp.StatusCode, nil
}
