package cluster

import (
	"context"
	"fmt"

	"dragonvar/internal/counters"
	"dragonvar/internal/netsim"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/traceio"
)

// ldmsSources are the per-router counters the system-wide monitor samples,
// matching the LDMS feature definitions of §III-C / §V-C.
var ldmsSources = [4]counters.Index{
	counters.RTFlitTot, counters.RTRBStl, counters.PTFlitTot, counters.PTPktTot,
}

// LDMSSeriesPerRouter is the number of counter series recorded per router.
const LDMSSeriesPerRouter = len(ldmsSources)

// RecordLDMSCtx replays the background timeline over [t0, t1) at the given
// sampling interval and streams system-wide counter samples — four series
// per router — to the writer, mimicking the LDMS pipeline that sampled
// every Aries router on Cori once per second (§III-C). Values are the
// cumulative hardware counters, which the log's delta encoding compresses
// well. Returns the number of samples written.
//
// The replay drives the same network simulator the campaign uses, so the
// recorded stream is consistent with what instrumented runs would have
// observed over the same period. Fault epochs are applied per sample:
// degraded or dead links reshape the traffic the counters see, and during
// sampler-dropout windows a missing-sample marker is written instead of
// counter values (the hardware keeps counting; only the reads are lost).
//
// On context cancellation the recorder stops at a sample boundary, flushes what it has written so far
// (the log stays readable), and returns the sample count alongside ctx's
// error — a partial recording, never a truncated one.
func (c *Cluster) RecordLDMSCtx(ctx context.Context, w *traceio.Writer, t0, t1, interval float64) (int, error) {
	if interval <= 0 {
		return 0, fmt.Errorf("cluster: non-positive sampling interval")
	}
	if t1 <= t0 {
		return 0, fmt.Errorf("cluster: empty recording window [%v, %v)", t0, t1)
	}
	_, span := telemetry.Start(ctx, telemetry.SpanLDMSRecord)
	defer span.End()
	nr := c.Topo.Cfg.NumRouters()
	values := make([]float64, nr*LDMSSeriesPerRouter)
	samples := 0

	// live monitor feed state: deltas against the previous healthy sample
	// (the counters keep counting through a dropout, so the first healthy
	// delta after a gap spans it)
	mon := c.cfg.Monitor
	var monPrev, monDeltas []float64
	monPrevT := 0.0
	if mon != nil {
		monPrev = make([]float64, len(values))
		monDeltas = make([]float64, len(values))
	}
	havePrev := false

	jobs := c.Timeline.Overlapping(t0, t1)
	var scaled []netsim.ScaledLoad
	for t := t0; t < t1; t += interval {
		if err := ctx.Err(); err != nil {
			if ferr := w.Flush(); ferr != nil {
				return samples, ferr
			}
			return samples, err
		}
		scaled = scaled[:0]
		for _, j := range jobs {
			if j.Overlaps(t, t+interval) {
				if sl := j.ScaledLoadAt(t, interval); sl.Scale > 0 {
					scaled = append(scaled, sl)
				}
			}
		}
		c.applyFaultsAt(t)
		c.Net.RunRound(nil, scaled, interval)
		if c.Faults.DropoutAt(t) {
			if err := w.WriteMissing(t); err != nil {
				return samples, err
			}
			if mon != nil {
				mon.ObserveMissing(t)
			}
			samples++
			continue
		}
		c.Net.Board.SampleInto(ldmsSources[:], values)
		if err := w.WriteSample(t, values); err != nil {
			return samples, err
		}
		if mon != nil {
			if havePrev && t > monPrevT {
				for i := range monDeltas {
					monDeltas[i] = values[i] - monPrev[i]
				}
				mon.ObserveRound(t, t-monPrevT, monDeltas)
			}
			copy(monPrev, values)
			monPrevT = t
			havePrev = true
		}
		samples++
	}
	return samples, w.Flush()
}
