package cluster

import (
	"bytes"
	"context"
	"testing"

	"dragonvar/internal/counters"
	"dragonvar/internal/monitor"
	"dragonvar/internal/traceio"
)

// TestRecordLDMSFeedsMonitor checks the recording feed: a recording with
// a dropout window, replayed into a monitor, surfaces as healthy deltas
// against the previous healthy sample, one missing marker per dropped
// sample, and one coalesced sampler_gap event.
func TestRecordLDMSFeedsMonitor(t *testing.T) {
	cfg := tinyConfig(310)
	cfg.FaultSpec = "dropout@3780-4020" // drops the middle 4 of 10 samples
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	w, err := traceio.NewWriter(&logBuf, c.Topo.Cfg.NumRouters()*counters.NumLDMS)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.RecordLDMSCtx(context.Background(), w, 3600, 3600+600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("samples = %d, want 10", n)
	}

	rd, err := traceio.NewReader(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(monitor.Config{
		NumRouters:      c.Topo.Cfg.NumRouters(),
		RoutersPerGroup: c.Topo.Cfg.RoutersPerGroup(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := monitor.Replay(rd, m)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	// 6 healthy samples → 5 deltas; 4 explicit missing markers.
	if st.Samples != 5 || st.Missing != 4 || s.Samples != 5 || s.Missing != 4 {
		t.Fatalf("replay fed %d samples / %d missing, monitor saw %d / %d, want 5 / 4",
			st.Samples, st.Missing, s.Samples, s.Missing)
	}
	if s.Events[monitor.EventSamplerGap] != 1 {
		t.Errorf("monitor emitted %d sampler_gap events, want 1", s.Events[monitor.EventSamplerGap])
	}
}
