package cluster

import (
	"bytes"
	"context"
	"io"
	"testing"

	"dragonvar/internal/monitor"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/traceio"
)

// tinyMonitor builds a monitor sized for the test machine's topology.
func tinyMonitor(t *testing.T, c *Cluster, events io.Writer) *monitor.Monitor {
	t.Helper()
	m, err := monitor.New(monitor.Config{
		NumRouters:      c.Topo.Cfg.NumRouters(),
		SeriesPerRouter: LDMSSeriesPerRouter,
		RoutersPerGroup: c.Topo.Cfg.RoutersPerGroup(),
		Events:          events,
		Source:          "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCampaignIdenticalWithMonitor enforces the monitor's observation-only
// contract: a faulted parallel campaign with a live streaming monitor
// attached is byte-identical to the unmonitored serial one, while the
// monitor actually observed the rounds.
func TestCampaignIdenticalWithMonitor(t *testing.T) {
	cfg := faultyConfig(t, 41)
	telemetry.Disable()
	baselineCamp := campaignAtWorkers(t, cfg, 1)
	baseline := campaignHash(t, baselineCamp)

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyMonitor(t, c, &bytes.Buffer{})
	cfg.Monitor = m
	monitored := campaignHash(t, campaignAtWorkers(t, cfg, 4))
	if monitored != baseline {
		t.Fatal("monitored parallel campaign differs from unmonitored serial campaign")
	}

	s := m.Summary()
	if s.Samples == 0 {
		t.Fatal("monitor observed no rounds during the campaign")
	}
	// The campaign's dropout window must surface as missing observations
	// whenever any recorded run actually lost counter reads.
	campaignHasGaps := false
	for _, ds := range baselineCamp.Datasets {
		for _, r := range ds.Runs {
			if r.GapFraction() > 0 {
				campaignHasGaps = true
			}
		}
	}
	if campaignHasGaps && s.Missing == 0 {
		t.Error("campaign recorded dropped counter reads but the monitor saw no missing observations")
	}
	if campaignHasGaps && s.Events[monitor.EventSamplerGap] == 0 {
		t.Error("monitor coalesced no sampler_gap events despite dropped reads")
	}
}

// TestRecordLDMSFeedsMonitor checks the live recording feed: a recording
// with a dropout window drives the attached monitor, and an offline replay
// of the very log it wrote sees the same stream shape.
func TestRecordLDMSFeedsMonitor(t *testing.T) {
	cfg := tinyConfig(310)
	cfg.FaultSpec = "dropout@3780-4020" // drops the middle 4 of 10 samples
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	live := tinyMonitor(t, c, &events)
	c.cfg.Monitor = live

	var logBuf bytes.Buffer
	w, err := traceio.NewWriter(&logBuf, c.Topo.Cfg.NumRouters()*LDMSSeriesPerRouter)
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
	if err := live.Finish(); err != nil {
		t.Fatal(err)
	}
	ls := live.Summary()
	// 6 healthy samples → 5 deltas; 4 explicit missing markers.
	if ls.Samples != 5 || ls.Missing != 4 {
		t.Fatalf("live monitor saw %d samples / %d missing, want 5 / 4", ls.Samples, ls.Missing)
	}
	if ls.Events[monitor.EventSamplerGap] != 1 {
		t.Errorf("live monitor emitted %d sampler_gap events, want 1", ls.Events[monitor.EventSamplerGap])
	}

	// Offline replay of the same log must reconstruct the same stream shape.
	rd, err := traceio.NewReader(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	offline := tinyMonitor(t, c, nil)
	st, err := monitor.Replay(rd, offline)
	if err != nil {
		t.Fatal(err)
	}
	os := offline.Summary()
	if st.Samples != ls.Samples || st.Missing != ls.Missing {
		t.Errorf("replay saw %d/%d, live saw %d/%d", st.Samples, st.Missing, ls.Samples, ls.Missing)
	}
	if os.Events[monitor.EventSamplerGap] != ls.Events[monitor.EventSamplerGap] {
		t.Errorf("replay gap events = %d, live = %d",
			os.Events[monitor.EventSamplerGap], ls.Events[monitor.EventSamplerGap])
	}
}
