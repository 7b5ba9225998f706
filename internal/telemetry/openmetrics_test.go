package telemetry

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one sample line of the text exposition format:
// name{labels} value — labels optional, value a Go-parseable float.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (\S+)$`)

// parseProm is a minimal exposition-format validator: every line must be a
// # TYPE comment, a valid sample, or the # EOF terminator (which must come
// last). Returns the sample values by full line key and the TYPE by family.
func parseProm(t *testing.T, text string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = map[string]float64{}
	types = map[string]string{}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		switch {
		case line == "# EOF":
			if i != len(lines)-1 {
				t.Fatalf("# EOF at line %d is not last", i)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
		default:
			m := promLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line %q", line)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			samples[m[1]+m[2]] = v
		}
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatal("exposition does not end with # EOF")
	}
	return samples, types
}

func TestWriteOpenMetrics(t *testing.T) {
	r := New()
	r.Counter("cluster/runs_total").Add(42)
	r.Gauge("test/ratio").Set(0.125)
	h := r.Histogram("cluster/run_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Contains(text, "/") {
		t.Errorf("exposition contains unsanitized '/':\n%s", text)
	}
	samples, types := parseProm(t, text)

	if samples["cluster_runs_total"] != 42 {
		t.Errorf("counter sample = %v, want 42", samples["cluster_runs_total"])
	}
	if types["cluster_runs_total"] != "counter" {
		t.Errorf("counter TYPE = %q", types["cluster_runs_total"])
	}
	if samples["test_ratio"] != 0.125 {
		t.Errorf("gauge sample = %v, want 0.125", samples["test_ratio"])
	}
	if types["test_ratio"] != "gauge" {
		t.Errorf("gauge TYPE = %q", types["test_ratio"])
	}
	if types["cluster_run_seconds"] != "histogram" {
		t.Errorf("histogram TYPE = %q", types["cluster_run_seconds"])
	}
	// Cumulative, monotonic buckets ending at +Inf == count.
	want := map[string]float64{
		`cluster_run_seconds_bucket{le="0.1"}`:  1,
		`cluster_run_seconds_bucket{le="1"}`:    3,
		`cluster_run_seconds_bucket{le="10"}`:   4,
		`cluster_run_seconds_bucket{le="+Inf"}`: 5,
		"cluster_run_seconds_count":             5,
		"cluster_run_seconds_sum":               55.55 + 0.5, // 0.05+0.5+0.5+5+50
	}
	for k, v := range want {
		got, ok := samples[k]
		if !ok {
			t.Errorf("missing sample %q", k)
			continue
		}
		if math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
}

func TestOpenMetricsEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	var r *Registry
	if err := r.Snapshot().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Errorf("empty snapshot = %q, want just the EOF terminator", buf.String())
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"cluster/runs_total": "cluster_runs_total",
		"9lives":             "_lives",
		"a-b.c":              "a_b_c",
		"ok_name:sub":        "ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsEndpoint drives the /metrics handler end to end: enable a
// registry with campaign-style metrics and a coordinator-style gauge,
// scrape, and parse what comes back.
func TestMetricsEndpoint(t *testing.T) {
	r := New()
	Enable(r)
	defer Disable()
	C(MClusterRuns).Add(7)
	G(GDistLeasedUnits).Set(2)
	H(MClusterRunSecs, SecondsBuckets).Observe(1.5)
	_, sp := Start(context.Background(), SpanCampaign)
	sp.End()

	srv := httptest.NewServer(newPprofMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := parseProm(t, string(blob))
	if samples["cluster_runs_total"] != 7 {
		t.Errorf("scraped cluster_runs_total = %v, want 7", samples["cluster_runs_total"])
	}
	if samples["dist_leased_units"] != 2 {
		t.Errorf("scraped dist_leased_units = %v, want 2", samples["dist_leased_units"])
	}
	if samples["cluster_run_seconds_count"] != 1 {
		t.Errorf("scraped histogram count = %v, want 1", samples["cluster_run_seconds_count"])
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q", []float64{10, 20, 30})
	// 10 observations uniform in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	snap := r.Snapshot().Histograms["q"]
	// p50: rank 10 lands at the top of the first bucket → 10.
	if got := snap.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Errorf("p50 = %v, want 10", got)
	}
	// p75: rank 15 → halfway through the second bucket → 15.
	if got := snap.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Errorf("p75 = %v, want 15", got)
	}
	// p100 → the largest observation, not the top of its bucket.
	if got := snap.Quantile(1); math.Abs(got-15) > 1e-9 {
		t.Errorf("p100 = %v, want the max 15", got)
	}
	// q clamps.
	if got := snap.Quantile(-1); got > snap.Quantile(0.01) {
		t.Errorf("q<0 not clamped: %v", got)
	}

	// Overflow-bucket estimates interpolate toward the max.
	h2 := r.Histogram("q2", []float64{1, 2})
	h2.Observe(100)
	snap2 := r.Snapshot().Histograms["q2"]
	if got := snap2.Quantile(0.99); got != 100 {
		t.Errorf("overflow quantile = %v, want the observed 100", got)
	}

	// Empty histogram.
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestQuantileOneSample: a histogram holding one observation reports it
// at every quantile, not a value interpolated inside its bucket.
func TestQuantileOneSample(t *testing.T) {
	r := New()
	r.Histogram("merge", SecondsBuckets).Observe(2.8e-6)
	snap := r.Snapshot().Histograms["merge"]
	if snap.Min != 2.8e-6 || snap.Max != 2.8e-6 {
		t.Errorf("min, max = %v, %v, want 2.8e-6 both", snap.Min, snap.Max)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := snap.Quantile(q); got != 2.8e-6 {
			t.Errorf("Quantile(%v) = %v, want the one sample 2.8e-6", q, got)
		}
	}
}

// TestQuantileAllOverflow: when every observation is above the last bound,
// quantiles stay inside the observed range instead of returning the bound.
func TestQuantileAllOverflow(t *testing.T) {
	r := New()
	h := r.Histogram("flits", []float64{1, 10})
	for _, v := range []float64{100, 200, 300, 400} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["flits"]
	if snap.Min != 100 || snap.Max != 400 {
		t.Errorf("min, max = %v, %v, want 100, 400", snap.Min, snap.Max)
	}
	prev := 0.0
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		got := snap.Quantile(q)
		if got < 100 || got > 400 || got < prev {
			t.Errorf("Quantile(%v) = %v, want a non-decreasing value in [100, 400]", q, got)
		}
		prev = got
	}
	if got := snap.Quantile(1); got != 400 {
		t.Errorf("Quantile(1) = %v, want the max 400", got)
	}
}

// TestSummaryQuantiles checks the stderr summary now carries percentile
// columns for histograms.
func TestSummaryQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("work/run_seconds", SecondsBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.01 * float64(i+1))
	}
	sum := r.Snapshot().Summary()
	for _, want := range []string{"p50=", "p95=", "p99="} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestQuantileMatchesExactForPointMasses: when every observation sits on a
// bucket bound the interpolation is exact at the bucket tops.
func TestQuantileMatchesExactForPointMasses(t *testing.T) {
	r := New()
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	h := r.Histogram("exact", bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	snap := r.Snapshot().Histograms["exact"]
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := q * 100
		if got := snap.Quantile(q); math.Abs(got-want) > 1 {
			t.Errorf("Quantile(%v) = %v, want ≈%v (±1 bucket width)", q, got, want)
		}
	}
}
