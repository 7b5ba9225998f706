package monitor

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dragonvar/internal/traceio"
)

// decodeEvents parses a JSONL buffer into events, failing on bad lines.
func decodeEvents(t *testing.T, buf *bytes.Buffer) []Event {
	t.Helper()
	var out []Event
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

func ofType(evs []Event, typ string) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero NumRouters")
	}
	m, err := New(Config{NumRouters: 33, RoutersPerGroup: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3 (ceil 33/16)", m.NumGroups())
	}
}

func TestHotRouterDetection(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{NumRouters: 64, RoutersPerGroup: 16, Events: &buf}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = m.cfg // defaults applied
	deltas := make([]float64, cfg.NumRouters*seriesPerRouter)
	hotRouter := 5
	// Base rates carry a per-router spread (100+r flits/s) so the
	// cross-sectional std has a floor; a lone outlier over identical peers
	// would keep a scale-invariant z forever.
	feed := func(t0 float64, n int, hotRate float64) float64 {
		tt := t0
		for i := 0; i < n; i++ {
			for r := 0; r < cfg.NumRouters; r++ {
				rate := 100.0 + float64(r)
				if r == hotRouter && hotRate > 0 {
					rate = hotRate
				}
				deltas[r*seriesPerRouter+flitSeries] = rate
			}
			m.observe(tt, 1, deltas)
			tt++
		}
		return tt
	}
	tt := feed(0, 10, 0)     // warm-up: spread alone keeps every z below threshold
	tt = feed(tt, 10, 10000) // router 5 runs ~100× hotter
	_ = feed(tt, 40, 0)      // back to baseline: EWMA decays, clears
	if err := m.finish(); err != nil {
		t.Fatal(err)
	}
	evs := decodeEvents(t, &buf)
	hots := ofType(evs, EventHotRouter)
	if len(hots) != 1 {
		t.Fatalf("got %d hot_router events, want 1: %+v", len(hots), evs)
	}
	if hots[0].Router != hotRouter || hots[0].Group != 0 {
		t.Errorf("hot event at router %d group %d, want router %d group 0", hots[0].Router, hots[0].Group, hotRouter)
	}
	if hots[0].Z < hotZ {
		t.Errorf("hot event z = %v below threshold %v", hots[0].Z, hotZ)
	}
	if hots[0].Source != "replay" {
		t.Errorf("event source = %q, want %q", hots[0].Source, "replay")
	}
	clears := ofType(evs, EventHotRouterClear)
	if len(clears) != 1 || clears[0].Router != hotRouter {
		t.Fatalf("got clear events %+v, want exactly one for router %d", clears, hotRouter)
	}
	if s := m.Summary(); s.HotRouters != 0 {
		t.Errorf("summary still reports %d hot routers after clear", s.HotRouters)
	}
}

func TestCongestionOnsetAndClear(t *testing.T) {
	var buf bytes.Buffer
	m, err := New(Config{NumRouters: 8, RoutersPerGroup: 4, Events: &buf})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.cfg
	// Group 0 stalls at ratio 0.5 (above onset 0.25); group 1 stays at 0.01.
	deltas := make([]float64, cfg.NumRouters*seriesPerRouter)
	tt := 0.0
	feedRatio := func(n int, g0 float64) {
		for i := 0; i < n; i++ {
			for r := 0; r < cfg.NumRouters; r++ {
				base := r * seriesPerRouter
				deltas[base+flitSeries] = 1000
				ratio := 0.01
				if r < 4 {
					ratio = g0
				}
				deltas[base+stallSeries] = 1000 * ratio
			}
			m.observe(tt, 1, deltas)
			tt++
		}
	}
	feedRatio(5, 0.5)
	feedRatio(30, 0.001) // EWMA decays below clear threshold
	evs := decodeEvents(t, &buf)
	onsets := ofType(evs, EventCongestionOnset)
	if len(onsets) != 1 || onsets[0].Group != 0 {
		t.Fatalf("onsets = %+v, want exactly one for group 0", onsets)
	}
	if onsets[0].Router != -1 {
		t.Errorf("group event carries router %d, want -1", onsets[0].Router)
	}
	clears := ofType(evs, EventCongestionClear)
	if len(clears) != 1 || clears[0].Group != 0 {
		t.Fatalf("clears = %+v, want exactly one for group 0", clears)
	}
	gr := m.GroupReport()
	if len(gr) != 2 {
		t.Fatalf("GroupReport has %d groups, want 2", len(gr))
	}
	if gr[0].StallRatio <= gr[1].StallRatio {
		t.Errorf("group 0 lifetime ratio %v not above group 1's %v", gr[0].StallRatio, gr[1].StallRatio)
	}
}

func TestGapCoalescing(t *testing.T) {
	var buf bytes.Buffer
	m, err := New(Config{NumRouters: 2, Events: &buf})
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]float64, 2*seriesPerRouter)
	m.observe(1, 1, deltas)
	m.observeMissing(2)
	m.observeMissing(3)
	m.observeMissing(4)
	m.observe(5, 1, deltas) // closes the gap
	evs := ofType(decodeEvents(t, &buf), EventSamplerGap)
	if len(evs) != 1 {
		t.Fatalf("got %d sampler_gap events, want 1", len(evs))
	}
	g := evs[0]
	if g.GapStart != 2 || g.GapEnd != 4 || g.Missed != 3 {
		t.Errorf("gap = [%v, %v] missed %d, want [2, 4] missed 3", g.GapStart, g.GapEnd, g.Missed)
	}
	s := m.Summary()
	if s.Missing != 3 || s.Samples != 2 {
		t.Errorf("summary: %d missing / %d samples, want 3 / 2", s.Missing, s.Samples)
	}
	if want := 3.0 / 5.0; math.Abs(s.GapFraction-want) > 1e-12 {
		t.Errorf("gap fraction = %v, want %v", s.GapFraction, want)
	}

	// A gap still open at finish is emitted then.
	buf.Reset()
	m.observeMissing(6)
	if err := m.finish(); err != nil {
		t.Fatal(err)
	}
	evs = ofType(decodeEvents(t, &buf), EventSamplerGap)
	if len(evs) != 1 || evs[0].Missed != 1 {
		t.Fatalf("open gap at finish: events = %+v, want one with missed=1", evs)
	}
}

// replayLog replays a log of two routers whose counters never move, with
// a healthy sample at each time in ts and a missing marker at each time in
// missing (ts and missing merged in time order), through a new monitor
// writing its events to buf.
func replayLog(t *testing.T, buf *bytes.Buffer, ts, missing []float64) {
	t.Helper()
	const nr = 2
	var logBuf bytes.Buffer
	w, err := traceio.NewWriter(&logBuf, nr*seriesPerRouter)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, nr*seriesPerRouter)
	for len(ts)+len(missing) > 0 {
		if len(missing) > 0 && (len(ts) == 0 || missing[0] < ts[0]) {
			err, missing = w.WriteMissing(missing[0]), missing[1:]
		} else {
			err, ts = w.WriteSample(ts[0], row), ts[1:]
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := traceio.NewReader(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{NumRouters: nr, Events: buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(rd, m); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampJumpGapDetection(t *testing.T) {
	var buf bytes.Buffer
	// the sample at 0 is the delta baseline; the interval is the first dt
	replayLog(t, &buf, []float64{0, 1, 2, 10}, nil) // jump of 8 intervals
	evs := ofType(decodeEvents(t, &buf), EventSamplerGap)
	if len(evs) != 1 {
		t.Fatalf("got %d sampler_gap events, want 1", len(evs))
	}
	if evs[0].Missed != 7 {
		t.Errorf("inferred gap missed = %d, want 7", evs[0].Missed)
	}
}

// TestExplicitGapNotDoubleCounted guards against a gap being reported twice:
// explicit missing markers AND the timestamp jump they
// cause both describe the same outage, which must yield ONE event.
func TestExplicitGapNotDoubleCounted(t *testing.T) {
	var buf bytes.Buffer
	// healthy sample after the marked outage
	replayLog(t, &buf, []float64{0, 1, 2, 6}, []float64{3, 4, 5})
	evs := ofType(decodeEvents(t, &buf), EventSamplerGap)
	if len(evs) != 1 {
		t.Fatalf("got %d sampler_gap events, want 1: %+v", len(evs), evs)
	}
	if evs[0].Missed != 3 {
		t.Errorf("gap missed = %d, want 3", evs[0].Missed)
	}
}

func TestSeriesStatsAndTopRouters(t *testing.T) {
	m, err := New(Config{NumRouters: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Router r receives flit deltas 100·(r+1) per 2-second round → rate 50·(r+1).
	deltas := make([]float64, 4*seriesPerRouter)
	for i := 0; i < 6; i++ {
		for r := 0; r < 4; r++ {
			deltas[r*seriesPerRouter+flitSeries] = 100 * float64(r+1)
		}
		m.observe(float64(i)*2, 2, deltas)
	}
	top := m.TopRouters(2)
	if len(top) != 2 {
		t.Fatalf("TopRouters(2) returned %d entries", len(top))
	}
	if top[0].Router != 3 || top[1].Router != 2 {
		t.Errorf("top routers = %d, %d; want 3, 2", top[0].Router, top[1].Router)
	}
	if math.Abs(top[0].MeanRate-200) > 1e-9 {
		t.Errorf("router 3 mean rate = %v, want 200", top[0].MeanRate)
	}
	if top[0].StdRate != 0 {
		t.Errorf("constant-rate std = %v, want 0", top[0].StdRate)
	}
}

func TestHeatmapData(t *testing.T) {
	m, err := New(Config{NumRouters: 2, RoutersPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Router 0 ratio 0.5, router 1 ratio 0.1, samples every 90 s at
	// t = 0..2610: ten per 900 s bin.
	deltas := []float64{1000, 500, 0, 0, 1000, 100, 0, 0}
	for i := 0; i < 30; i++ {
		m.observe(float64(i)*90, 90, deltas)
	}
	rows, xs, vals := m.HeatmapData()
	if len(rows) != 2 || len(xs) != 3 {
		t.Fatalf("heatmap %d rows × %d bins, want 2 × 3", len(rows), len(xs))
	}
	if xs[0] != 0 || xs[1] != 900 || xs[2] != 1800 {
		t.Errorf("bin starts = %v, want [0 900 1800]", xs)
	}
	for _, v := range vals[0] {
		if math.Abs(v-0.5) > 1e-9 {
			t.Errorf("group 0 bin mean = %v, want 0.5", v)
		}
	}
	for _, v := range vals[1] {
		if math.Abs(v-0.1) > 1e-9 {
			t.Errorf("group 1 bin mean = %v, want 0.1", v)
		}
	}
}

func TestReplayRoundTrip(t *testing.T) {
	// Build a synthetic log: 3 routers, cumulative counters growing at
	// known rates, with a dropout gap in the middle.
	const nr, spr = 3, seriesPerRouter
	var logBuf bytes.Buffer
	w, err := traceio.NewWriter(&logBuf, nr*spr)
	if err != nil {
		t.Fatal(err)
	}
	cum := make([]float64, nr*spr)
	tt := 0.0
	write := func(n int, missing bool) {
		for i := 0; i < n; i++ {
			tt += 1
			if missing {
				if err := w.WriteMissing(tt); err != nil {
					t.Fatal(err)
				}
				// hardware keeps counting through the dropout
				for r := 0; r < nr; r++ {
					cum[r*spr] += 1000 * float64(r+1)
					cum[r*spr+1] += 10
				}
				continue
			}
			for r := 0; r < nr; r++ {
				cum[r*spr] += 1000 * float64(r+1)
				cum[r*spr+1] += 10
			}
			if err := w.WriteSample(tt, cum); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(5, false)
	write(3, true)
	write(5, false)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	rd, err := traceio.NewReader(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	m, err := New(Config{NumRouters: nr, Events: &events})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(rd, m)
	if err != nil {
		t.Fatal(err)
	}
	// 10 healthy rows, first is the delta baseline → 9 observations.
	if st.Samples != 9 || st.Missing != 3 {
		t.Fatalf("replay stats = %+v, want 9 samples / 3 missing", st)
	}
	if st.FirstT != 1 || st.LastT != 13 {
		t.Errorf("replay span [%v, %v], want [1, 13]", st.FirstT, st.LastT)
	}
	gaps := ofType(decodeEvents(t, &events), EventSamplerGap)
	if len(gaps) != 1 || gaps[0].Missed != 3 {
		t.Fatalf("gap events = %+v, want one with missed=3", gaps)
	}
	// Rates survive the gap: the post-gap delta spans the dropout, and the
	// counters kept growing at the same rate, so every observation is
	// 1000·(r+1) flits/s with zero variance.
	for i, rs := range m.TopRouters(nr) {
		wantRate := 1000 * float64(nr-i)
		if math.Abs(rs.MeanRate-wantRate) > 1e-9 || rs.StdRate > 1e-9 {
			t.Errorf("router %d mean=%v std=%v, want mean=%v std=0", rs.Router, rs.MeanRate, rs.StdRate, wantRate)
		}
	}
}

func TestReplaySeriesMismatch(t *testing.T) {
	var logBuf bytes.Buffer
	w, err := traceio.NewWriter(&logBuf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSample(1, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := traceio.NewReader(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{NumRouters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(rd, m); err == nil {
		t.Fatal("Replay accepted a log with the wrong series count")
	}
}

func TestReportRendering(t *testing.T) {
	m, err := New(Config{NumRouters: 4, RoutersPerGroup: 2})
	if err != nil {
		t.Fatal(err)
	}
	deltas := []float64{100, 50, 0, 0, 100, 5, 0, 0, 100, 5, 0, 0, 100, 5, 0, 0}
	for i := 0; i < 4; i++ {
		m.observe(float64(i), 1, deltas)
	}
	rep := m.Report(2)
	for _, want := range []string{"network-weather monitor (replay)", "4 healthy", "top 2 routers", "group congestion"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
