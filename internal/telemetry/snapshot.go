package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// HistogramSnapshot is one histogram's frozen state. Counts has
// len(Bounds)+1 entries; Counts[i] holds observations ≤ Bounds[i] (and
// above the previous bound), and the final entry counts the overflow above
// every bound — kept separate so the JSON never contains an infinity.
// Min and Max are the smallest and largest observation (0 when empty).
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Mean returns the mean observation, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the fixed buckets, the way histogram_quantile does: the estimate
// assumes observations spread uniformly inside their bucket, so its error
// is bounded by the bucket width. An estimate landing in the overflow
// bucket interpolates toward Max. Every estimate is clamped to [Min, Max],
// so it never leaves the observed range. Returns 0 when the histogram is
// empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	est := h.Max
	for i, ci := range h.Counts {
		c := float64(ci)
		if cum+c >= rank && c > 0 {
			lo, hi := 0.0, h.Max
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i < len(h.Bounds) {
				hi = h.Bounds[i]
			}
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			est = lo + frac*(hi-lo)
			break
		}
		cum += c
	}
	return math.Min(math.Max(est, h.Min), h.Max)
}

// Snapshot is a registry's full frozen state, as serialized by the CLIs'
// -telemetry flag. It round-trips through JSON.
type Snapshot struct {
	// CapturedAt is the wall-clock capture time (RFC 3339).
	CapturedAt time.Time `json:"captured_at"`
	// UptimeS is seconds from registry creation to capture.
	UptimeS float64 `json:"uptime_s"`
	// Process identifies the emitting process so snapshots and trace files
	// from several processes merge unambiguously.
	Process    ProcessInfo                  `json:"process"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      []SpanRecord                 `json:"spans"`
}

// Snapshot freezes the registry's current state. Metric updates racing the
// snapshot land in this snapshot or the next one; either way each snapshot
// is internally consistent per metric. Returns an empty snapshot on a nil
// registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		CapturedAt: time.Now(),
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.UptimeS = time.Since(r.start).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Process = r.proc
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    h.Sum(),
		}
		if hs.Count > 0 {
			hs.Min = math.Float64frombits(h.min.Load())
			hs.Max = math.Float64frombits(h.max.Load())
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	s.Spans = append([]SpanRecord(nil), r.spans...)
	// spans are appended in completion order; sort by start so the exported
	// trace reads chronologically
	sort.SliceStable(s.Spans, func(i, j int) bool { return s.Spans[i].StartS < s.Spans[j].StartS })
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Summary renders a compact human-readable digest: top counters, histogram
// means, and the span flame (Stitch.Flame over this one process). Used for
// the stderr report on CLI exit.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: %d counters, %d gauges, %d histograms, %d spans over %s\n",
		len(s.Counters), len(s.Gauges), len(s.Histograms), len(s.Spans), fmtSeconds(s.UptimeS))
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-36s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-36s %g\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		// only time-valued histograms get duration formatting
		if strings.Contains(n, "second") {
			fmt.Fprintf(&b, "  %-36s n=%-7d mean=%s p50=%s p95=%s p99=%s total=%s\n",
				n, h.Count, fmtSeconds(h.Mean()),
				fmtSeconds(h.Quantile(0.50)), fmtSeconds(h.Quantile(0.95)), fmtSeconds(h.Quantile(0.99)),
				fmtSeconds(h.Sum))
		} else {
			fmt.Fprintf(&b, "  %-36s n=%-7d mean=%.4g p50=%.4g p95=%.4g p99=%.4g total=%.4g\n",
				n, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Sum)
		}
	}
	b.WriteString(s.localStitch().Flame())
	return b.String()
}

// Flush snapshots the active registry and writes it as JSON to path,
// printing the human-readable summary to stderr. It is a no-op when
// telemetry is disabled or path is empty, so CLIs can call it
// unconditionally on every exit path (including after SIGINT
// cancellation).
func Flush(path string) error {
	r := Active()
	if r == nil || path == "" {
		return nil
	}
	snap := r.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	fmt.Fprint(os.Stderr, snap.Summary())
	fmt.Fprintf(os.Stderr, "telemetry snapshot written to %s\n", path)
	return nil
}

// ReadSnapshot loads a snapshot previously written by Flush/WriteJSON.
func ReadSnapshot(path string) (*Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("telemetry: decode %s: %w", path, err)
	}
	return &s, nil
}
