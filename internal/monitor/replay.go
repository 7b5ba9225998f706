package monitor

import (
	"errors"
	"fmt"
	"io"

	"dragonvar/internal/traceio"
)

// ReplayStats reports what a Replay pass consumed.
type ReplayStats struct {
	Samples int     // healthy samples fed to the monitor
	Missing int     // missing-sample markers
	FirstT  float64 // timestamp of the first sample (healthy or missing)
	LastT   float64 // timestamp of the last sample
}

// Replay drains a DFLDMS log through the monitor: cumulative counter rows
// become deltas against the previous healthy sample (gaps of explicit
// missing markers are naturally bridged — the hardware kept counting, only
// the reads were lost, so the post-gap delta spread over the elapsed time
// is the best available rate estimate), and each missing marker opens or
// extends a sampler gap. The log is time-ordered, so a forward timestamp jump
// beyond gapFactor sampling intervals (the first dt) with no missing
// markers is reported as a sampler gap too. The log's series count must
// equal the monitor's NumRouters×counters.NumLDMS.
func Replay(rd *traceio.Reader, m *Monitor) (ReplayStats, error) {
	want := m.cfg.NumRouters * seriesPerRouter
	if rd.NumSeries() != want {
		return ReplayStats{}, fmt.Errorf("monitor: log has %d series, monitor expects %d (%d routers × %d series)",
			rd.NumSeries(), want, m.cfg.NumRouters, seriesPerRouter)
	}
	var st ReplayStats
	cur := make([]float64, want)
	prev := make([]float64, want)
	deltas := make([]float64, want)
	havePrev := false
	prevT := 0.0
	first := true
	for {
		t, row, err := rd.Next(cur)
		if errors.Is(err, io.EOF) {
			return st, m.finish()
		}
		if err != nil {
			return st, err
		}
		if first {
			st.FirstT = t
			first = false
		}
		st.LastT = t
		if rd.Missing() {
			st.Missing++
			m.observeMissing(t)
			continue
		}
		if havePrev {
			dt := t - prevT
			if dt > 0 {
				for i := range deltas {
					deltas[i] = row[i] - prev[i]
				}
				m.observe(t, dt, deltas)
				st.Samples++
			}
		}
		copy(prev, row)
		prevT = t
		havePrev = true
	}
}
