package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dragonvar/internal/monitor"
	"dragonvar/internal/topology"
)

// TestMonitoredCampaignBytesPinned pins the monitor's output on a
// monitored small campaign (10 days, seed 42, one dropout window) at one
// worker, where rounds reach it in a fixed order: the events JSONL and the
// Report(5) text, under adaptive routing and under the feedback policy,
// whose own stall tracker runs beside the monitor's. Recorded once; never
// regenerate them to make a change pass.
func TestMonitoredCampaignBytesPinned(t *testing.T) {
	for _, c := range []struct{ routing, events, report string }{
		{"adaptive", "7127d38a7a05f74a", "af70224138f222ac"},
		{"feedback", "f7669dd84ec6f9f1", "06b539aaecd76e03"},
	} {
		t.Run(c.routing, func(t *testing.T) {
			cfg := Config{
				Machine:   topology.Small(),
				Days:      10,
				Seed:      42,
				FaultSpec: "dropout@259200-345600",
			}
			cfg.Net.Routing = c.routing
			var events bytes.Buffer
			m, err := monitor.New(monitor.Config{
				NumRouters:      cfg.Machine.NumRouters(),
				RoutersPerGroup: cfg.Machine.RoutersPerGroup(),
				HeatmapBin:      3600,
				Events:          &events,
				Source:          "campaign",
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Monitor = m
			campaignAtWorkers(t, cfg, 1)
			if err := m.Finish(); err != nil {
				t.Fatal(err)
			}
			if m.Summary().Samples == 0 {
				t.Fatal("the monitor observed no rounds")
			}
			hash := func(b []byte) string {
				sum := sha256.Sum256(b)
				return hex.EncodeToString(sum[:8])
			}
			if got := hash(events.Bytes()); got != c.events {
				t.Errorf("events hash = %s, want %s", got, c.events)
			}
			if got := hash([]byte(m.Report(5))); got != c.report {
				t.Errorf("Report(5) hash = %s, want %s\n%s", got, c.report, m.Report(5))
			}
		})
	}
}
