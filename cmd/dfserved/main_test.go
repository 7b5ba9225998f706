package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dragonvar/internal/cli"
	"dragonvar/internal/daemon"
	"dragonvar/internal/modelstore"
	"dragonvar/internal/topology"
)

func runCLI(args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestExitCodes(t *testing.T) {
	store := filepath.Join(t.TempDir(), "models")
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, cli.ExitOK},
		{[]string{"-bogus"}, cli.ExitUsage},
		{[]string{"stray"}, cli.ExitUsage},
		{[]string{"-store", store, "-features", "bogus"}, cli.ExitUsage},
	} {
		_, _, err := runCLI(c.args...)
		if got := cli.ExitCode(err); got != c.want {
			t.Errorf("dfserved %v: exit %d (%v), want %d", c.args, got, err, c.want)
		}
	}
}

// server is the daemon running in-process on a free port.
type server struct {
	url    string
	stderr *os.File // safe to write from several goroutines
	stop   context.CancelFunc
	done   chan struct{}
	err    error
}

// startServer starts the daemon and waits for /readyz. When the test ends
// the daemon is stopped and waited for.
func startServer(t *testing.T, args ...string) *server {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{url: "http://" + addr, stderr: stderr, stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.err = run(ctx, append(args, "-addr", addr), io.Discard, stderr)
	}()
	t.Cleanup(func() {
		cancel()
		<-s.done
		stderr.Close()
	})
	for deadline := time.Now().Add(3 * time.Minute); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(s.url + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("dfserved not ready:\n%s", s.log())
		}
	}
}

func (s *server) log() string {
	b, _ := os.ReadFile(s.stderr.Name())
	return string(b)
}

// drain stops the daemon the way SIGTERM does and requires a clean exit.
func (s *server) drain(t *testing.T) {
	t.Helper()
	s.stop()
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("dfserved did not drain:\n%s", s.log())
	}
	if s.err != nil {
		t.Fatalf("dfserved exited with %v\n%s", s.err, s.log())
	}
	if !strings.Contains(s.log(), "drained, bye") {
		t.Errorf("no graceful drain in the log:\n%s", s.log())
	}
}

// get fetches url, failing the test unless it answers 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// post sends body to url and decodes the JSON answer, failing the test
// unless it is 200.
func post(t *testing.T, url, body string) (map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", url, resp.Status, blob)
	}
	var v map[string]any
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatalf("POST %s: %v: %s", url, err, blob)
	}
	return v, resp.Header
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(get(t, url), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServeSmoke trains a tiny model set, exercises every endpoint,
// requires a cache hit on a repeated forecast, the per-endpoint counters
// on /metrics and a traceparent header, drains gracefully, and then
// drives a fresh daemon with both load-generator passes.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-small", "-fast", "-days", "2",
		"-cache", filepath.Join(dir, "campaign.gob"), "-store", filepath.Join(dir, "models")}
	srv := startServer(t, base...)
	url := srv.url

	get(t, url+"/healthz")
	getJSON(t, url+"/v1/spec")
	// a valid 5-step × 13-feature window
	rows := make([]string, 5)
	for i := range rows {
		rows[i] = "[" + strings.TrimSuffix(strings.Repeat("1.0,", 13), ",") + "]"
	}
	window := `{"window":[` + strings.Join(rows, ",") + `]}`
	fc1, _ := post(t, url+"/v1/forecast", window)
	if fc1["cached"] != false {
		t.Errorf("first forecast: cached = %v, want false", fc1["cached"])
	}
	fc2, _ := post(t, url+"/v1/forecast", window)
	if fc2["cached"] != true {
		t.Errorf("repeated forecast: cached = %v, want true", fc2["cached"])
	}
	// the cache returns the model's own value
	if fc1["prediction"] != fc2["prediction"] {
		t.Errorf("predictions differ: %v then %v", fc1["prediction"], fc2["prediction"])
	}
	dev, _ := post(t, url+"/v1/deviation", `{"features":[1,2,3,4,5,6,7,8,9,10,11,12,13]}`)
	if _, ok := dev["deviation"].(float64); !ok {
		t.Errorf("deviation answer %v has no numeric deviation", dev)
	}
	blame, _ := post(t, url+"/v1/advisor/blame", `{"running_users":["u1"]}`)
	if _, ok := blame["delay"]; !ok {
		t.Errorf("blame answer %v has no delay", blame)
	}

	metrics := string(get(t, url+"/metrics"))
	for _, prefix := range []string{
		"serve_cache_hits 1",
		"serve_requests_total",
		"serve_batches_total",
		// per-endpoint split: 2 forecasts, 1 deviation, 1 blame, 1 spec so far
		"serve_forecast_requests_total 2",
		"serve_deviation_requests_total 1",
		"serve_blame_requests_total 1",
		"serve_spec_requests_total 1",
	} {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(prefix)).MatchString(metrics) {
			t.Errorf("/metrics lacks a line starting %q:\n%s", prefix, metrics)
		}
	}

	_, hdr := post(t, url+"/v1/forecast", window)
	if tp := hdr.Get("traceparent"); !regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-01`).MatchString(tp) {
		t.Errorf("traceparent header = %q", tp)
	}
	srv.drain(t)

	// load generator against a fresh daemon that loads the stored models
	srv = startServer(t, base...)
	url = srv.url
	for _, distinct := range []bool{false, true} {
		out := filepath.Join(dir, "bench.json")
		args := []string{"-loadgen", "-target", url, "-rps", "500", "-duration", "5s", "-out", out}
		if distinct {
			// cache-busting pass: every window unique, so this measures the
			// uncached model path and must never be answered from the LRU
			args = append(args, "-distinct")
		}
		if _, stderr, err := runCLI(args...); err != nil {
			t.Fatalf("loadgen: %v\n%s", err, stderr)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep benchReport
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || rep.OK != rep.Sent {
			t.Errorf("loadgen (distinct=%t): %d errors, %d ok of %d sent", distinct, rep.Errors, rep.OK, rep.Sent)
		}
		if distinct && (rep.Cached != 0 || !rep.Distinct) {
			t.Errorf("distinct loadgen: cached = %d, distinct = %t", rep.Cached, rep.Distinct)
		}
	}
	srv.drain(t)
}

// TestHotReload: a running replica picks up models a continuous-operation
// daemon publishes to its store, without a restart. The publisher is the
// daemon package dfvard wraps, configured like
// "dfvard -small -fast -seed 7 -days 11 -window-runs 4 -retrain-windows 2
// -drift-factor 0.01 -drift-windows 1".
func TestHotReload(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "models")
	publish := func(epochs int) {
		t.Helper()
		st, err := modelstore.Open(store)
		if err != nil {
			t.Fatal(err)
		}
		d, err := daemon.New(daemon.Config{
			StateDir: filepath.Join(dir, "state"), Store: st, Seed: 7, Machine: topology.Small(), Fast: true,
			EpochDays: 11, MaxEpochs: epochs, WindowRuns: 4, RetrainEvery: 2, DriftFactor: 0.01, DriftWindow: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	publish(2)

	srv := startServer(t, "-small", "-fast", "-seed", "7", "-store", store, "-reload-interval", "500ms")
	url := srv.url
	before := getJSON(t, url+"/v1/spec")["forecast_model"]
	// two more epochs publish fresh models under the same refs
	publish(4)
	reloaded := regexp.MustCompile(`(?m)^serve_model_reloads_total [1-9]`)
	for deadline := time.Now().Add(time.Minute); !reloaded.Match(get(t, url+"/metrics")); {
		if time.Now().After(deadline) {
			t.Fatalf("no hot reload within a minute:\n%s", srv.log())
		}
		time.Sleep(100 * time.Millisecond)
	}
	after := getJSON(t, url+"/v1/spec")["forecast_model"]
	if before == after {
		t.Errorf("served forecast model stayed %v", before)
	}
	srv.drain(t)
	if !strings.Contains(srv.log(), "reloaded models") {
		t.Errorf("no reload in the log:\n%s", srv.log())
	}
}
