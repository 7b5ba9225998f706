package cluster

import (
	"context"
	"fmt"

	"dragonvar/internal/counters"
	"dragonvar/internal/netsim"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/traceio"
)

// RecordLDMSCtx replays the background timeline over [t0, t1) at the given
// sampling interval and streams system-wide counter samples — the
// counters.NumLDMS series of every router, in the layout of
// counters.Board.SampleInto — to the writer, mimicking the LDMS pipeline
// that sampled every Aries router on Cori once per second (§III-C). Values
// are the cumulative hardware counters, which the log's delta encoding
// compresses well. Returns the number of samples written.
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
	values := make([]float64, c.Topo.Cfg.NumRouters()*counters.NumLDMS)
	samples := 0

	co := c.coRunners(t0, t1, nil, -1, nil)
	var scaled []netsim.ScaledLoad
	for t := t0; t < t1; t += interval {
		if err := ctx.Err(); err != nil {
			if ferr := w.Flush(); ferr != nil {
				return samples, ferr
			}
			return samples, err
		}
		scaled = co.loadsAt(scaled[:0], t, interval)
		c.applyFaultsAt(t)
		c.Net.RunRound(nil, scaled, interval)
		if c.Faults.DropoutAt(t) {
			if err := w.WriteMissing(t); err != nil {
				return samples, err
			}
			samples++
			continue
		}
		c.Net.Board.SampleInto(values)
		if err := w.WriteSample(t, values); err != nil {
			return samples, err
		}
		samples++
	}
	return samples, w.Flush()
}
