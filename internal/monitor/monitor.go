// Package monitor is the streaming network-weather analytics engine: it
// consumes per-router counter samples — live from the campaign driver's
// per-round deltas, or offline by replaying a DFLDMS log — and maintains
// single-pass windowed state over them: Welford online mean/variance per
// series, per-group congestion rollups (stall-ratio from RT_RB_STL over
// RT_FLIT_TOT), EWMA-based anomaly detection emitting structured JSONL
// events (hot router, congestion onset/clear, sampler gap), and a
// per-group × time congestion heatmap.
//
// This is the monitoring half of the paper's measurement stack: LDMS gave
// Cori a 1 Hz system-wide counter feed (§III-C), and the follow-up
// longitudinal-analytics work turns such feeds into queryable aggregates.
// cluster.RecordLDMSCtx produces the feed; this package watches it.
//
// # Observation-only contract
//
// Like internal/telemetry, the monitor NEVER feeds back into simulation:
// it only reads counter deltas the simulation already produced, so a
// monitored campaign is byte-identical to an unmonitored one (enforced by
// TestCampaignIdenticalWithMonitor in internal/cluster). All exported
// methods are safe for concurrent use; the campaign's serial merge phase
// calls ObserveRound from one goroutine at a time, but the lock makes the
// monitor safe under any calling discipline.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"dragonvar/internal/stats"
)

// Event types emitted to the JSONL stream.
const (
	EventHotRouter       = "hot_router"       // a router's smoothed flit rate crossed HotZ cross-sectional std devs
	EventHotRouterClear  = "hot_router_clear" // a hot router dropped back below HotZ/2
	EventCongestionOnset = "congestion_onset" // a group's smoothed stall ratio crossed StallOnset
	EventCongestionClear = "congestion_clear" // a congested group dropped back below StallClear
	EventSamplerGap      = "sampler_gap"      // a run of missing samples (or a timestamp jump) closed
	EventModelDrift      = "model_drift"      // rolling live forecast MAPE breached the drift threshold (emitted by the daemon via Emit)
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
	LiveMAPE   float64 `json:"live_mape,omitempty"`   // rolling forecast MAPE on live windows (drift events)
	TrainMAPE  float64 `json:"train_mape,omitempty"`  // training-time MAPE of the serving model (drift events)
	Source     string  `json:"source,omitempty"`      // Config.Source tag ("campaign", "replay", …)
}

// Config parameterizes a Monitor. The zero value is not usable: NumRouters
// is required; every other field has a sensible default applied by New.
type Config struct {
	NumRouters      int // required: routers in the machine
	SeriesPerRouter int // counter series per router (default 4, cluster.LDMSSeriesPerRouter)
	RoutersPerGroup int // dragonfly group size for rollups (default: all routers in one group)

	FlitSeries int // series index of the flit-total counter within a router's block (default 0)
	// StallSeries is the series index of the stall-cycle counter. 0 means
	// the default, 1 (the LDMS layout); a monitor whose stall counter truly
	// sits at index 0 must put the flit counter elsewhere.
	StallSeries int

	// Interval is the expected sampling interval in seconds; 0 infers it
	// from the first observed dt. Only used for time-jump gap detection.
	Interval float64
	// DetectTimeGaps infers sampler gaps from timestamp jumps larger than
	// GapFactor×Interval. Enable only for time-ordered streams (offline
	// replay); campaign rounds interleave runs out of order.
	DetectTimeGaps bool
	GapFactor      float64 // default 2.5

	EWMAAlpha     float64 // smoothing factor for rate/ratio EWMAs (default 0.3)
	HotZ          float64 // hot-router onset threshold in cross-sectional std devs (default 3)
	HotMinSamples int     // warm-up samples before hot detection may fire (default 8)
	StallOnset    float64 // group congestion onset threshold on smoothed stall ratio (default 0.25)
	StallClear    float64 // clear threshold (default StallOnset/2)

	HeatmapBin float64 // heatmap time-bin width in seconds (default 900)

	// Events receives one JSON object per line as anomalies are detected;
	// nil discards them (aggregates are still maintained).
	Events io.Writer
	// Source tags every emitted event (e.g. "campaign", "replay").
	Source string
}

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
// ObserveRound/ObserveMissing; close with Finish.
type Monitor struct {
	cfg       Config
	numGroups int

	mu sync.Mutex

	// Per-series Welford accumulators over rates (router-major layout, same
	// as the sample rows: series s of router r is index r*SeriesPerRouter+s).
	series []stats.Welford

	// Hot-router detection state.
	flitEWMA []float64 // smoothed flits/s per router
	seen     []int     // observations per router (warm-up gating)
	hot      []bool

	// Group congestion state.
	groupEWMA  []float64 // smoothed stall ratio per group
	congested  []bool
	groupStall []float64 // lifetime Δstall sums per group (for the report)
	groupFlit  []float64 // lifetime Δflit sums per group

	heat map[int64][]heatCell // time bin → per-group cells

	gap      gapState
	lastT    float64
	interval float64 // resolved sampling interval (cfg.Interval or inferred)

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
	if cfg.SeriesPerRouter == 0 {
		cfg.SeriesPerRouter = 4
	}
	if cfg.SeriesPerRouter < 0 {
		return nil, fmt.Errorf("monitor: negative SeriesPerRouter %d", cfg.SeriesPerRouter)
	}
	if cfg.RoutersPerGroup <= 0 {
		cfg.RoutersPerGroup = cfg.NumRouters
	}
	if cfg.FlitSeries < 0 || cfg.FlitSeries >= cfg.SeriesPerRouter {
		return nil, fmt.Errorf("monitor: FlitSeries %d out of range [0, %d)", cfg.FlitSeries, cfg.SeriesPerRouter)
	}
	if cfg.StallSeries == 0 && cfg.SeriesPerRouter > 1 {
		cfg.StallSeries = 1 // the LDMS layout: RT_FLIT_TOT at 0, RT_RB_STL at 1
	}
	if cfg.StallSeries < 0 || cfg.StallSeries >= cfg.SeriesPerRouter {
		return nil, fmt.Errorf("monitor: StallSeries %d out of range [0, %d)", cfg.StallSeries, cfg.SeriesPerRouter)
	}
	if cfg.GapFactor <= 0 {
		cfg.GapFactor = 2.5
	}
	if cfg.EWMAAlpha <= 0 || cfg.EWMAAlpha > 1 {
		cfg.EWMAAlpha = 0.3
	}
	if cfg.HotZ <= 0 {
		cfg.HotZ = 3
	}
	if cfg.HotMinSamples <= 0 {
		cfg.HotMinSamples = 8
	}
	if cfg.StallOnset <= 0 {
		cfg.StallOnset = 0.25
	}
	if cfg.StallClear <= 0 {
		cfg.StallClear = cfg.StallOnset / 2
	}
	if cfg.HeatmapBin <= 0 {
		cfg.HeatmapBin = 900
	}
	ng := (cfg.NumRouters + cfg.RoutersPerGroup - 1) / cfg.RoutersPerGroup
	m := &Monitor{
		cfg:        cfg,
		numGroups:  ng,
		series:     make([]stats.Welford, cfg.NumRouters*cfg.SeriesPerRouter),
		flitEWMA:   make([]float64, cfg.NumRouters),
		seen:       make([]int, cfg.NumRouters),
		hot:        make([]bool, cfg.NumRouters),
		groupEWMA:  make([]float64, ng),
		congested:  make([]bool, ng),
		groupStall: make([]float64, ng),
		groupFlit:  make([]float64, ng),
		heat:       map[int64][]heatCell{},
		interval:   cfg.Interval,
		eventCount: map[string]int{},
	}
	return m, nil
}

// NumGroups returns the number of rollup groups.
func (m *Monitor) NumGroups() int { return m.numGroups }

// ObserveRound feeds one healthy observation: deltas holds the per-router
// counter increases over the last dt seconds, router-major (series s of
// router r at index r*SeriesPerRouter+s), the layout counters.Board.DeltaInto
// produces. len(deltas) must be NumRouters×SeriesPerRouter and dt positive;
// violations are programmer errors and panic.
func (m *Monitor) ObserveRound(t, dt float64, deltas []float64) {
	spr := m.cfg.SeriesPerRouter
	if len(deltas) != m.cfg.NumRouters*spr {
		panic(fmt.Sprintf("monitor: ObserveRound with %d deltas, want %d", len(deltas), m.cfg.NumRouters*spr))
	}
	if dt <= 0 {
		panic(fmt.Sprintf("monitor: ObserveRound with non-positive dt %v", dt))
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	if m.interval <= 0 {
		m.interval = dt
	}
	// Timestamp-jump gap inference (ordered streams only): a forward jump
	// well beyond the sampling interval means samples were never written.
	// A gap already opened by explicit missing markers covers the same span,
	// so skip inference then — closeGapLocked below reports it once.
	if m.cfg.DetectTimeGaps && !m.gap.open && m.samples > 0 && m.interval > 0 {
		jump := t - m.lastT
		if jump > m.cfg.GapFactor*m.interval {
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

	alpha := m.cfg.EWMAAlpha
	// Pass 1: per-series stats and per-router flit-rate EWMAs, with a
	// cross-sectional Welford over the updated EWMAs for the z-scores.
	var cross stats.Welford
	for r := 0; r < m.cfg.NumRouters; r++ {
		base := r * spr
		for s := 0; s < spr; s++ {
			m.series[base+s].Add(deltas[base+s] / dt)
		}
		rate := deltas[base+m.cfg.FlitSeries] / dt
		if m.seen[r] == 0 {
			m.flitEWMA[r] = rate
		} else {
			m.flitEWMA[r] += alpha * (rate - m.flitEWMA[r])
		}
		m.seen[r]++
		cross.Add(m.flitEWMA[r])
	}
	// Pass 2: hot-router hysteresis against the cross-sectional spread.
	if std := cross.Std(); std > 0 {
		mean := cross.Mean()
		for r := 0; r < m.cfg.NumRouters; r++ {
			if m.seen[r] < m.cfg.HotMinSamples {
				continue
			}
			z := (m.flitEWMA[r] - mean) / std
			switch {
			case !m.hot[r] && z >= m.cfg.HotZ:
				m.hot[r] = true
				m.emitLocked(Event{T: t, Type: EventHotRouter, Router: r, Group: r / m.cfg.RoutersPerGroup,
					FlitRate: m.flitEWMA[r], Z: z})
			case m.hot[r] && z < m.cfg.HotZ/2:
				m.hot[r] = false
				m.emitLocked(Event{T: t, Type: EventHotRouterClear, Router: r, Group: r / m.cfg.RoutersPerGroup,
					FlitRate: m.flitEWMA[r], Z: z})
			}
		}
	}
	// Pass 3: group stall-ratio rollups, congestion hysteresis, heatmap.
	bin := int64(math.Floor(t / m.cfg.HeatmapBin))
	cells, ok := m.heat[bin]
	if !ok {
		cells = make([]heatCell, m.numGroups)
		m.heat[bin] = cells
	}
	for g := 0; g < m.numGroups; g++ {
		r0 := g * m.cfg.RoutersPerGroup
		r1 := r0 + m.cfg.RoutersPerGroup
		if r1 > m.cfg.NumRouters {
			r1 = m.cfg.NumRouters
		}
		var stall, flit float64
		for r := r0; r < r1; r++ {
			base := r * spr
			stall += deltas[base+m.cfg.StallSeries]
			flit += deltas[base+m.cfg.FlitSeries]
		}
		m.groupStall[g] += stall
		m.groupFlit[g] += flit
		ratio := 0.0
		if flit > 0 {
			ratio = stall / flit
		}
		cells[g].sum += ratio
		cells[g].n++
		if m.samples == 0 {
			m.groupEWMA[g] = ratio
		} else {
			m.groupEWMA[g] += alpha * (ratio - m.groupEWMA[g])
		}
		switch {
		case !m.congested[g] && m.groupEWMA[g] >= m.cfg.StallOnset:
			m.congested[g] = true
			m.emitLocked(Event{T: t, Type: EventCongestionOnset, Router: -1, Group: g, StallRatio: m.groupEWMA[g]})
		case m.congested[g] && m.groupEWMA[g] <= m.cfg.StallClear:
			m.congested[g] = false
			m.emitLocked(Event{T: t, Type: EventCongestionClear, Router: -1, Group: g, StallRatio: m.groupEWMA[g]})
		}
	}

	m.samples++
	m.lastT = t
}

// ObserveMissing feeds one explicit missing-sample marker at time t (the
// samplers were in a dropout window). Consecutive markers coalesce into a
// single sampler_gap event, emitted when a healthy sample arrives or at
// Finish.
func (m *Monitor) ObserveMissing(t float64) {
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
	ev.Source = m.cfg.Source
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

// Emit writes an externally-detected event into the monitor's stream,
// counting it like any detector event. Callers outside this package (the
// retraining daemon's drift detector) use it so operator tooling sees one
// merged JSONL stream instead of a second file to tail. Router/Group
// should carry the -1 sentinel when not applicable.
func (m *Monitor) Emit(ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.emitLocked(ev)
}

// gapFractionLocked returns missing/(missing+healthy). Callers hold mu.
func (m *Monitor) gapFractionLocked() float64 {
	total := m.samples + m.missing
	if total == 0 {
		return 0
	}
	return float64(m.missing) / float64(total)
}

// Finish closes any open sampler gap and returns the first event-writer
// error, if any. The monitor remains usable afterwards (more observations
// simply reopen state), so live consumers may call it at checkpoints.
func (m *Monitor) Finish() error {
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
	FirstT      float64        // not meaningful before the first sample
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
		w := &m.series[r*m.cfg.SeriesPerRouter+m.cfg.FlitSeries]
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
		out[g] = GroupStat{Group: g, StallRatio: ratio, EWMA: m.groupEWMA[g], Congested: m.congested[g]}
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
		xs[i] = float64(lo+int64(i)) * m.cfg.HeatmapBin
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
	fmt.Fprintf(&b, "network-weather monitor")
	if m.cfg.Source != "" {
		fmt.Fprintf(&b, " (%s)", m.cfg.Source)
	}
	fmt.Fprintf(&b, "\n  samples: %d healthy, %d missing (gap fraction %.4f)\n",
		s.Samples, s.Missing, s.GapFraction)
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
