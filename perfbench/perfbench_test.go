package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dragonvar/internal/cluster"
)

// benchmarkFile is the benchmark definition at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestNamesMatchBenchmarkFile keeps the metric and workload names the code
// prints equal to the ones BENCHMARK.json declares, with the same units.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for n := range endToEnd {
		names = append(names, n)
	}
	for n := range perLayer {
		names = append(names, n)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
	}

	var listed []workload
	for _, w := range workloads {
		if !w.byHand {
			listed = append(listed, w)
		}
	}
	if len(bf.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, code lists %d", len(bf.Workloads), len(listed))
	}
	for i, w := range bf.Workloads {
		if w.Name != listed[i].name || w.Why != listed[i].why {
			t.Errorf("workload %d: file %q %q, code %q %q", i, w.Name, w.Why, listed[i].name, listed[i].why)
		}
	}
	check := func(kind string, code map[string]string, file map[string]string) {
		for n, u := range code {
			if fu, ok := file[n]; !ok || fu != u {
				t.Errorf("%s metric %s: code unit %q, BENCHMARK.json %q (present %v)", kind, n, u, fu, ok)
			}
		}
		for n := range file {
			if _, ok := code[n]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but never printed", kind, n)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layers)
}

// TestSpecifiedNames pins the workload and metric names the benchmark was
// specified with. Every workload prints every end-to-end metric, so the
// per-workload times (campaign_s, analysis_s, forecast_p50_ms) are the one
// op_ms and the accuracy guards are per-layer metrics of analysis; three
// serve metrics are per-layer because their run-to-run spread exceeds any
// bound (see README.md).
func TestSpecifiedNames(t *testing.T) {
	for _, n := range []string{"campaign", "campaign-faults", "analysis", "serve"} {
		found := false
		for _, w := range workloads {
			found = found || w.name == n
		}
		if !found {
			t.Errorf("workload %s missing", n)
		}
	}
	for _, n := range []string{"setup_s", "peak_rss_mb", "op_ms"} {
		if _, ok := endToEnd[n]; !ok {
			t.Errorf("end-to-end metric %s missing", n)
		}
	}
	for _, n := range []string{"topology.new_s", "cluster.new_s", "cluster.schedule_s",
		"cluster.unit_s", "cluster.unit_p50_ms", "cluster.unit_max_ms", "cluster.units",
		"cluster.rounds", "cluster.requeues", "netsim.rounds", "routing.candidate_sets",
		"netsim.path_cache_hit_ratio", "netsim.path_cache_invalidations", "slurm.placements",
		"dataset.save_s", "dataset.load_s", "experiments.table3_s", "experiments.fig8_s",
		"experiments.fig9_s", "experiments.fig10_s", "experiments.fig11_s", "experiments.fig12_s",
		"experiments.cheap_s", "ml.nn_fits", "ml.gbr_fits", "ml.rfe_rounds",
		"nn.predict_b1_ms", "nn.predict_b64_ms", "serve.batch_size_mean", "serve.cache_hit_ratio",
		"serve.shed", "serve.errors", "loadgen.lag_p99_ms", "trace.overhead_s",
		"serve.p99_ms", "serve.cached_p99_ms", "serve.max_rps",
		"forecast_mape_pct", "deviation_mape_pct"} {
		if _, ok := perLayer[n]; !ok {
			t.Errorf("per-layer metric %s missing", n)
		}
	}
}

// TestCompletePrintsEveryMetric checks the printed metric sets: untraced
// exactly the end-to-end metrics, a missing one an error; traced exactly
// the per-layer metrics, zero for a layer the workload never called.
func TestCompletePrintsEveryMetric(t *testing.T) {
	out := newOutcome()
	out.set("setup_s", 1)
	out.set("op_ms", 2)
	if err := out.complete(false); err == nil {
		t.Error("untraced run without peak_rss_mb completed")
	}
	out.set("peak_rss_mb", 3)
	out.set("cluster.units", 4)
	if err := out.complete(false); err != nil {
		t.Fatal(err)
	}
	if len(out.metrics) != len(endToEnd) {
		t.Errorf("untraced metrics %v, want the %d end-to-end ones", out.metrics, len(endToEnd))
	}

	out = newOutcome()
	out.set("cluster.units", 4)
	out.set("setup_s", 1)
	if err := out.complete(true); err != nil {
		t.Fatal(err)
	}
	if len(out.metrics) != len(perLayer) {
		t.Errorf("traced metrics %v, want the %d per-layer ones", out.metrics, len(perLayer))
	}
	if got := out.metrics["cluster.units"].Value; got != 4 {
		t.Errorf("cluster.units %v, want 4", got)
	}
	if got, ok := out.metrics["serve.shed"]; !ok || got.Value != 0 || got.Unit != "count" {
		t.Errorf("serve.shed %+v (present %v), want 0 count", got, ok)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimeIsSpanMinusChildren checks self time against hand-computed
// values, with overlapping children, a child running past its parent and
// a grandchild.
func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []spanRec{
		{id: 1, name: "root", start: 0, end: ms(100)},
		{id: 2, parent: 1, name: "a", start: ms(10), end: ms(30)},
		{id: 3, parent: 1, name: "a", start: ms(20), end: ms(50)},  // overlaps span 2
		{id: 4, parent: 1, name: "b", start: ms(90), end: ms(120)}, // runs past the root
		{id: 5, parent: 3, name: "c", start: ms(25), end: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: ms(100) - ms(40) - ms(10), // [10,50) and [90,100) covered
		2: ms(20),
		3: ms(30) - ms(10),
		4: ms(30),
		5: ms(10),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	layers := byLayer(spans)
	if got := layers["a"].self; got != ms(40) {
		t.Errorf("layer a self %v, want 40ms", got)
	}
	if got := coverage(spans, "root"); got != 0.5 {
		t.Errorf("coverage %v, want 0.5", got)
	}
}

// TestDueTimeLatencyCarriesStall runs the generator against a handler that
// serves one request at a time and stalls once. Requests due during the
// stall wait behind it, so their latency, timed from when each was due,
// must include the rest of the stall.
func TestDueTimeLatencyCarriesStall(t *testing.T) {
	const stalled, stall = 10, 200 * time.Millisecond
	var mu sync.Mutex
	var seen atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if seen.Add(1) == stalled+1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"prediction": 1.5, "cached": false}`)
	})
	base := startTestServer(t, handler)

	g := newGenerator(base, nil)
	defer g.close()
	p := phase{name: "stall", rate: 200, dur: 500 * time.Millisecond, payloads: [][]byte{[]byte(`{}`)}, sampleAt: 1}
	res := g.run(p, 0)
	if res.ok != res.sent || res.sent != 100 {
		t.Fatalf("answered %d of %d, want 100 of 100", res.ok, res.sent)
	}
	lat := map[int]float64{}
	for k, l := range res.lat {
		lat[res.latAt[k]] = l
	}
	interval := 1000 / p.rate // ms between due times
	// requests are sent in due order but may arrive out of order; the stalled
	// one is whichever arrived 11th, so check every request due within the
	// first half of the stall after the first 20
	for i := 20; i < 30; i++ {
		due := float64(i) * interval
		stallEnd := float64(stalled)*interval + float64(stall/time.Millisecond)
		if want := stallEnd - due - 3*interval; lat[i] < want {
			t.Errorf("request %d: latency %.1fms from due time, want at least %.1fms (stall ends %.0fms after start)", i, lat[i], want, stallEnd)
		}
	}
	if last := lat[res.sent-1]; last > float64(stall/time.Millisecond)/2 {
		t.Errorf("last request latency %.1fms: the stall never drained", last)
	}
	for i, pred := range res.samples {
		if pred != 1.5 {
			t.Errorf("request %d: prediction %v, want 1.5", i, pred)
		}
	}
}

// startTestServer serves handler over HTTP/1.1 and unencrypted HTTP/2 on
// loopback until the test ends.
func startTestServer(t *testing.T, handler http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	srv := &http.Server{Handler: handler, Protocols: &protos}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Error(err)
		}
	})
	return "http://" + ln.Addr().String()
}

// TestTimedExecutorMatchesRunCampaign drives a short faulted campaign
// through the benchmark's executor, two UnitSims at once, and requires the
// in-process executor's campaign and a span per simulated unit.
func TestTimedExecutorMatchesRunCampaign(t *testing.T) {
	spec := campaignSpec{routing: "minimal", faults: faultSpec}
	cfg := spec.config(5, simWorkers)
	cfg.Days = 4
	want, _, err := simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	exec, err := newTimedExecutor(cfg, simWorkers, tr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.run(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := gobHash(got), gobHash(want); g != w {
		t.Fatalf("executor campaign hash %s, RunCampaign %s", g, w)
	}
	layers := byLayer(tr.records())
	units := 0
	if ls := layers["cluster.unit"]; ls != nil {
		units = ls.count
	}
	if runs := got.TotalRuns(); units < runs || runs == 0 {
		t.Errorf("%d unit spans for %d runs", units, runs)
	}
	for _, name := range []string{"cluster.run", "cluster.schedule", "cluster.round", "cluster.merge"} {
		if layers[name] == nil {
			t.Errorf("no %s span", name)
		}
	}
}
