// Package monitor is the streaming network-weather analytics engine: it
// replays a DFLDMS log of per-router counter samples, in the LDMS layout of
// internal/counters (counters.NumLDMS series per router, flits at
// counters.LDMSRTFlitTot, stalls at counters.LDMSRTRBStl), and maintains
// single-pass windowed state over them: Welford online mean/variance of
// each router's flit rate, per-group congestion rollups (stall-ratio from
// RT_RB_STL over RT_FLIT_TOT), EWMA-based anomaly detection emitting
// structured JSONL events (hot router, congestion onset/clear, sampler
// gap), and a per-group × time congestion heatmap.
//
// This is the monitoring half of the paper's measurement stack: LDMS gave
// Cori a 1 Hz system-wide counter feed (§III-C), and the follow-up
// longitudinal-analytics work turns such feeds into queryable aggregates.
// cluster.RecordLDMSCtx records the feed as one time-ordered series, and
// Replay is the monitor's only input. All exported methods are safe for
// concurrent use.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"dragonvar/internal/counters"
	"dragonvar/internal/stats"
)

// Event types emitted to the JSONL stream.
const (
	EventHotRouter       = "hot_router"       // a router's smoothed flit rate crossed hotZ cross-sectional std devs
	EventHotRouterClear  = "hot_router_clear" // a hot router dropped back below hotZ/2
	EventCongestionOnset = "congestion_onset" // a group's smoothed stall ratio crossed stallOnset
	EventCongestionClear = "congestion_clear" // a congested group dropped back below stallClear
	EventSamplerGap      = "sampler_gap"      // a run of missing samples (or a timestamp jump) closed
)

// Event is one structured anomaly record. Router and Group are -1 when not
// applicable (router 0 and group 0 are real locations, so absence needs an
// explicit sentinel rather than omitempty).
type Event struct {
	T          float64 `json:"t"`    // simulated time of emission (seconds)
	Type       string  `json:"type"` // one of the Event* constants
	Router     int     `json:"router"`
	Group      int     `json:"group"`
	FlitRate   float64 `json:"flit_rate,omitempty"`   // smoothed flits/s (hot-router events)
	Z          float64 `json:"z,omitempty"`           // cross-sectional z-score (hot-router events)
	StallRatio float64 `json:"stall_ratio,omitempty"` // smoothed stall ratio (congestion events)
	GapStart   float64 `json:"gap_start,omitempty"`   // first missing timestamp (gap events)
	GapEnd     float64 `json:"gap_end,omitempty"`     // last missing timestamp (gap events)
	Missed     int     `json:"missed,omitempty"`      // samples lost in the gap
	Source     string  `json:"source,omitempty"`      // always "replay", the monitor's one input
}

// Config parameterizes a Monitor. The zero value is not usable: NumRouters
// is required; every other field has a sensible default applied by New.
type Config struct {
	NumRouters      int // required: routers in the machine
	RoutersPerGroup int // dragonfly group size for rollups (default: all routers in one group)

	// Events receives one JSON object per line as anomalies are detected;
	// nil discards them (aggregates are still maintained).
	Events io.Writer
}

const (
	// source tags every event and the report.
	source = "replay"
	// heatmapBin is the heatmap time-bin width in seconds.
	heatmapBin = 900.0
	// gapFactor: a forward timestamp jump beyond gapFactor sampling
	// intervals is a sampler gap.
	gapFactor = 2.5
	// ewmaAlpha smooths the per-router flit rates and the per-group stall
	// ratios (StallFeedback).
	ewmaAlpha = 0.3
	// hotMinSamples is how many observations a router needs before hot
	// detection may fire.
	hotMinSamples = 8
	// hotZ is the hot-router onset threshold in cross-sectional std devs;
	// a hot router clears below hotZ/2 (1.5: hotZ is a float constant).
	hotZ = 3.0
	// stallOnset and stallClear are the group congestion hysteresis
	// thresholds on the smoothed stall ratio.
	stallOnset = 0.25
	stallClear = stallOnset / 2
)

// The per-router series layout of every feed: counters.NumLDMS series,
// flits and stalls at their named indices.
const (
	seriesPerRouter = counters.NumLDMS
	flitSeries      = int(counters.LDMSRTFlitTot)
	stallSeries     = int(counters.LDMSRTRBStl)
)

// heatCell accumulates one group's stall ratio within one time bin.
type heatCell struct {
	sum float64
	n   int
}

// gapState tracks an open run of missing samples.
type gapState struct {
	open   bool
	start  float64
	last   float64
	missed int
}

// Monitor is the streaming analytics engine. Create with New; feed with
// Replay.
type Monitor struct {
	cfg       Config
	numGroups int

	mu sync.Mutex

	// Per-router Welford accumulators over the flit rate (TopRouters).
	flitStats []stats.Welford

	// Hot-router detection state.
	flitEWMA []float64 // smoothed flits/s per router
	seen     []int     // observations per router (warm-up gating)
	hot      []bool

	// Group congestion state.
	groups     *StallFeedback // smoothed stall ratio per group
	congested  []bool
	groupStall []float64 // lifetime Δstall sums per group (for the report)
	groupFlit  []float64 // lifetime Δflit sums per group

	heat map[int64][]heatCell // time bin → per-group cells

	gap      gapState
	lastT    float64
	interval float64 // sampling interval, inferred from the first dt

	samples    int // healthy observations
	missing    int // missing-sample observations
	eventCount map[string]int
	encodeErr  error // first Events-writer failure, surfaced by Finish
}

// New validates cfg, applies defaults, and returns a ready Monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.NumRouters <= 0 {
		return nil, fmt.Errorf("monitor: NumRouters must be positive, got %d", cfg.NumRouters)
	}
	if cfg.RoutersPerGroup <= 0 {
		cfg.RoutersPerGroup = cfg.NumRouters
	}
	ng := (cfg.NumRouters + cfg.RoutersPerGroup - 1) / cfg.RoutersPerGroup
	m := &Monitor{
		cfg:        cfg,
		numGroups:  ng,
		flitStats:  make([]stats.Welford, cfg.NumRouters),
		flitEWMA:   make([]float64, cfg.NumRouters),
		seen:       make([]int, cfg.NumRouters),
		hot:        make([]bool, cfg.NumRouters),
		groups:     NewStallFeedback(ng),
		congested:  make([]bool, ng),
		groupStall: make([]float64, ng),
		groupFlit:  make([]float64, ng),
		heat:       map[int64][]heatCell{},
		eventCount: map[string]int{},
	}
	return m, nil
}

// NumGroups returns the number of rollup groups.
func (m *Monitor) NumGroups() int { return m.numGroups }

// observe feeds one healthy observation: deltas holds the per-router
// counter increases over the last dt seconds in the LDMS layout (series s
// of router r at index r*counters.NumLDMS+s). len(deltas) must be
// NumRouters×counters.NumLDMS and dt positive; violations are programmer
// errors and panic.
func (m *Monitor) observe(t, dt float64, deltas []float64) {
	if len(deltas) != m.cfg.NumRouters*seriesPerRouter {
		panic(fmt.Sprintf("monitor: observe with %d deltas, want %d", len(deltas), m.cfg.NumRouters*seriesPerRouter))
	}
	if dt <= 0 {
		panic(fmt.Sprintf("monitor: observe with non-positive dt %v", dt))
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	if m.interval <= 0 {
		m.interval = dt
	}
	// Timestamp-jump gap inference: a forward jump well beyond the
	// sampling interval means samples were never written. A gap already
	// opened by explicit missing markers covers the same span, so skip
	// inference then — closeGapLocked below reports it once.
	if !m.gap.open && m.samples > 0 {
		jump := t - m.lastT
		if jump > gapFactor*m.interval {
			missed := int(jump/m.interval) - 1
			if missed < 1 {
				missed = 1
			}
			m.emitLocked(Event{
				T: t, Type: EventSamplerGap, Router: -1, Group: -1,
				GapStart: m.lastT + m.interval, GapEnd: t - m.interval, Missed: missed,
			})
		}
	}
	// A healthy sample closes any explicit-marker gap.
	m.closeGapLocked(t)

	// Pass 1: per-router flit-rate stats and EWMAs, with a cross-sectional
	// Welford over the updated EWMAs for the z-scores.
	var cross stats.Welford
	for r := 0; r < m.cfg.NumRouters; r++ {
		rate := deltas[r*seriesPerRouter+flitSeries] / dt
		m.flitStats[r].Add(rate)
		if m.seen[r] == 0 {
			m.flitEWMA[r] = rate
		} else {
			m.flitEWMA[r] += ewmaAlpha * (rate - m.flitEWMA[r])
		}
		m.seen[r]++
		cross.Add(m.flitEWMA[r])
	}
	// Pass 2: hot-router hysteresis against the cross-sectional spread.
	if std := cross.Std(); std > 0 {
		mean := cross.Mean()
		for r := 0; r < m.cfg.NumRouters; r++ {
			if m.seen[r] < hotMinSamples {
				continue
			}
			z := (m.flitEWMA[r] - mean) / std
			switch {
			case !m.hot[r] && z >= hotZ:
				m.hot[r] = true
				m.emitLocked(Event{T: t, Type: EventHotRouter, Router: r, Group: r / m.cfg.RoutersPerGroup,
					FlitRate: m.flitEWMA[r], Z: z})
			case m.hot[r] && z < hotZ/2:
				m.hot[r] = false
				m.emitLocked(Event{T: t, Type: EventHotRouterClear, Router: r, Group: r / m.cfg.RoutersPerGroup,
					FlitRate: m.flitEWMA[r], Z: z})
			}
		}
	}
	// Pass 3: group stall-ratio rollups and heatmap, then the round's
	// stall-ratio EWMA update and congestion hysteresis.
	bin := int64(math.Floor(t / heatmapBin))
	cells, ok := m.heat[bin]
	if !ok {
		cells = make([]heatCell, m.numGroups)
		m.heat[bin] = cells
	}
	for g := 0; g < m.numGroups; g++ {
		r0 := g * m.cfg.RoutersPerGroup
		r1 := min(r0+m.cfg.RoutersPerGroup, m.cfg.NumRouters)
		var stall, flit float64
		for r := r0; r < r1; r++ {
			base := r * seriesPerRouter
			stall += deltas[base+stallSeries]
			flit += deltas[base+flitSeries]
		}
		m.groupStall[g] += stall
		m.groupFlit[g] += flit
		m.groups.Accumulate(g, stall, flit)
		ratio := 0.0
		if flit > 0 {
			ratio = stall / flit
		}
		cells[g].sum += ratio
		cells[g].n++
	}
	m.groups.Commit()
	for g := 0; g < m.numGroups; g++ {
		ewma := m.groups.Ratio(g)
		switch {
		case !m.congested[g] && ewma >= stallOnset:
			m.congested[g] = true
			m.emitLocked(Event{T: t, Type: EventCongestionOnset, Router: -1, Group: g, StallRatio: ewma})
		case m.congested[g] && ewma <= stallClear:
			m.congested[g] = false
			m.emitLocked(Event{T: t, Type: EventCongestionClear, Router: -1, Group: g, StallRatio: ewma})
		}
	}

	m.samples++
	m.lastT = t
}

// observeMissing feeds one explicit missing-sample marker at time t (the
// samplers were in a dropout window). Consecutive markers coalesce into a
// single sampler_gap event, emitted when a healthy sample arrives or at
// finish.
func (m *Monitor) observeMissing(t float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.gap.open {
		m.gap = gapState{open: true, start: t, last: t, missed: 1}
	} else {
		m.gap.last = t
		m.gap.missed++
	}
	m.missing++
}

// closeGapLocked emits the pending sampler_gap event, if any. Callers hold mu.
func (m *Monitor) closeGapLocked(t float64) {
	if !m.gap.open {
		return
	}
	m.emitLocked(Event{
		T: t, Type: EventSamplerGap, Router: -1, Group: -1,
		GapStart: m.gap.start, GapEnd: m.gap.last, Missed: m.gap.missed,
	})
	m.gap = gapState{}
}

// emitLocked counts and writes one event. Callers hold mu.
func (m *Monitor) emitLocked(ev Event) {
	ev.Source = source
	m.eventCount[ev.Type]++
	if m.cfg.Events == nil || m.encodeErr != nil {
		return
	}
	blob, err := json.Marshal(ev)
	if err == nil {
		_, err = m.cfg.Events.Write(append(blob, '\n'))
	}
	if err != nil {
		m.encodeErr = fmt.Errorf("monitor: writing event: %w", err)
	}
}

// gapFractionLocked returns missing/(missing+healthy). Callers hold mu.
func (m *Monitor) gapFractionLocked() float64 {
	total := m.samples + m.missing
	if total == 0 {
		return 0
	}
	return float64(m.missing) / float64(total)
}

// finish closes any open sampler gap and returns the first event-writer
// error, if any.
func (m *Monitor) finish() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gap.open {
		m.closeGapLocked(m.gap.last)
	}
	return m.encodeErr
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// Summary is a point-in-time aggregate view of the stream.
type Summary struct {
	Samples     int            // healthy observations
	Missing     int            // missing-sample markers
	GapFraction float64        // Missing / (Samples+Missing)
	LastT       float64        // time of the most recent healthy sample
	HotRouters  int            // currently hot
	Congested   int            // currently congested groups
	Events      map[string]int // emitted events by type
}

// Summary returns current aggregates.
func (m *Monitor) Summary() Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	ev := make(map[string]int, len(m.eventCount))
	for k, v := range m.eventCount {
		ev[k] = v
	}
	return Summary{
		Samples:     m.samples,
		Missing:     m.missing,
		GapFraction: m.gapFractionLocked(),
		LastT:       m.lastT,
		HotRouters:  countTrue(m.hot),
		Congested:   countTrue(m.congested),
		Events:      ev,
	}
}

// RouterStat summarizes one router's flit-rate series.
type RouterStat struct {
	Router   int
	MeanRate float64 // mean flits/s over the stream
	StdRate  float64
	Hot      bool // currently hot
}

// TopRouters returns the k routers with the highest mean flit rate,
// descending (ties broken by router id for determinism).
func (m *Monitor) TopRouters(k int) []RouterStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RouterStat, m.cfg.NumRouters)
	for r := range out {
		w := &m.flitStats[r]
		out[r] = RouterStat{Router: r, MeanRate: w.Mean(), StdRate: w.Std(), Hot: m.hot[r]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanRate != out[j].MeanRate {
			return out[i].MeanRate > out[j].MeanRate
		}
		return out[i].Router < out[j].Router
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// GroupStat summarizes one group's congestion over the stream.
type GroupStat struct {
	Group      int
	StallRatio float64 // lifetime Δstall / Δflit
	EWMA       float64 // current smoothed ratio
	Congested  bool
}

// GroupReport returns per-group congestion rollups in group order.
func (m *Monitor) GroupReport() []GroupStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]GroupStat, m.numGroups)
	for g := range out {
		ratio := 0.0
		if m.groupFlit[g] > 0 {
			ratio = m.groupStall[g] / m.groupFlit[g]
		}
		out[g] = GroupStat{Group: g, StallRatio: ratio, EWMA: m.groups.Ratio(g), Congested: m.congested[g]}
	}
	return out
}

// HeatmapData returns the per-group × time congestion matrix: row labels
// (one per group), bin start times, and vals[group][bin] = mean stall ratio
// in that bin (NaN where the bin holds no samples). Bins are contiguous
// from the first to the last observed bin.
func (m *Monitor) HeatmapData() (rows []string, xs []float64, vals [][]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.heat) == 0 {
		return nil, nil, nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for b := range m.heat {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	nb := int(hi - lo + 1)
	xs = make([]float64, nb)
	for i := range xs {
		xs[i] = float64(lo+int64(i)) * heatmapBin
	}
	rows = make([]string, m.numGroups)
	vals = make([][]float64, m.numGroups)
	for g := range rows {
		rows[g] = fmt.Sprintf("g%d", g)
		vals[g] = make([]float64, nb)
		for i := range vals[g] {
			vals[g][i] = math.NaN()
		}
	}
	for b, cells := range m.heat {
		i := int(b - lo)
		for g, c := range cells {
			if c.n > 0 {
				vals[g][i] = c.sum / float64(c.n)
			}
		}
	}
	return rows, xs, vals
}

// Report renders a human-readable summary: stream totals, event counts, the
// top-k routers by mean flit rate, and per-group congestion.
func (m *Monitor) Report(k int) string {
	s := m.Summary()
	var b strings.Builder
	fmt.Fprintf(&b, "network-weather monitor (%s)\n  samples: %d healthy, %d missing (gap fraction %.4f)\n",
		source, s.Samples, s.Missing, s.GapFraction)
	if len(s.Events) > 0 {
		types := make([]string, 0, len(s.Events))
		for t := range s.Events {
			types = append(types, t)
		}
		sort.Strings(types)
		b.WriteString("  events:")
		for _, t := range types {
			fmt.Fprintf(&b, " %s=%d", t, s.Events[t])
		}
		b.WriteByte('\n')
	} else {
		b.WriteString("  events: none\n")
	}
	if s.Samples == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "  top %d routers by mean flit rate:\n", k)
	for _, rs := range m.TopRouters(k) {
		mark := ""
		if rs.Hot {
			mark = "  [HOT]"
		}
		fmt.Fprintf(&b, "    r%-5d mean=%.1f flits/s  std=%.1f%s\n", rs.Router, rs.MeanRate, rs.StdRate, mark)
	}
	b.WriteString("  group congestion (lifetime stall ratio):\n")
	for _, gs := range m.GroupReport() {
		mark := ""
		if gs.Congested {
			mark = "  [CONGESTED]"
		}
		fmt.Fprintf(&b, "    g%-4d ratio=%.4f  ewma=%.4f%s\n", gs.Group, gs.StallRatio, gs.EWMA, mark)
	}
	return b.String()
}
