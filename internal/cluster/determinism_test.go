package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"testing"

	"dragonvar/internal/dataset"
	"dragonvar/internal/telemetry"
)

// campaignHash gob-encodes a campaign and hashes the bytes. Campaign holds
// no maps, so the encoding is deterministic and a hash match means the two
// campaigns are byte-identical.
func campaignHash(t *testing.T, camp *dataset.Campaign) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(camp); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

func campaignAtWorkers(t *testing.T, cfg Config, workers int) *dataset.Campaign {
	t.Helper()
	cfg.Workers = workers
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// TestCampaignIdenticalAcrossWorkerCounts is the engine's core contract:
// the parallel campaign is byte-identical to the serial one, on both a
// clean machine and a faulted one (where mid-campaign requeues and
// topology rewrites make worker interleaving most dangerous).
func TestCampaignIdenticalAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"clean", tinyConfig(41)},
		{"faulted", faultyConfig(t, 41)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := campaignHash(t, campaignAtWorkers(t, tc.cfg, 1))
			for _, workers := range []int{2, 4} {
				if got := campaignHash(t, campaignAtWorkers(t, tc.cfg, workers)); got != serial {
					t.Fatalf("workers=%d campaign differs from serial", workers)
				}
			}
		})
	}
}

// TestCampaignIdenticalWithTelemetry enforces the observation-only
// contract: a faulted parallel campaign recorded by a live telemetry
// registry is byte-identical to the uninstrumented serial one, and the
// registry actually observed the layers it claims to (engine shard
// timings, routing-cache traffic, campaign counters) — a silent
// no-handles run would pass the hash check while measuring nothing. The
// netsim/round_flits layout must also fit what the rounds offer: at most
// 5% of the samples in the overflow bucket, and at most 5% at or below
// the lowest bound, where the layout says nothing either.
func TestCampaignIdenticalWithTelemetry(t *testing.T) {
	cfg := faultyConfig(t, 41)
	telemetry.Disable()
	baseline := campaignHash(t, campaignAtWorkers(t, cfg, 1))

	r := telemetry.New()
	telemetry.Enable(r)
	defer telemetry.Disable()
	instrumented := campaignHash(t, campaignAtWorkers(t, cfg, 4))
	if instrumented != baseline {
		t.Fatal("telemetry-on parallel campaign differs from telemetry-off serial campaign")
	}

	snap := r.Snapshot()
	for _, name := range []string{
		telemetry.MEngineMaps, telemetry.MClusterRuns, telemetry.MClusterRounds,
		telemetry.MNetsimCacheMisses, telemetry.MNetsimRounds,
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0; instrumentation not recording", name)
		}
	}
	for _, name := range []string{telemetry.MClusterRunSecs, telemetry.MEngineShardRun} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s empty; instrumentation not recording", name)
		}
	}
	if flits := snap.Histograms[telemetry.MNetsimRoundFlits]; flits.Count == 0 {
		t.Error("histogram round_flits empty")
	} else {
		over, under := flits.Counts[len(flits.Counts)-1], flits.Counts[0]
		if limit := 0.05 * float64(flits.Count); float64(over) > limit || float64(under) > limit {
			t.Errorf("round_flits: %d samples in [%.3g, %.3g], %d above the top bound %g, %d at or below %g",
				flits.Count, flits.Min, flits.Max, over, flits.Bounds[len(flits.Bounds)-1], under, flits.Bounds[0])
		}
	}
	var sawCampaign, sawRound bool
	for _, sp := range snap.Spans {
		switch sp.Name {
		case telemetry.SpanCampaign:
			sawCampaign = true
		case telemetry.SpanCampaignRound:
			sawRound = true
			if sp.Path != telemetry.SpanCampaign+"/"+telemetry.SpanCampaignRound {
				t.Errorf("round span path = %q; not nested under the campaign", sp.Path)
			}
		}
	}
	if !sawCampaign || !sawRound {
		t.Errorf("missing spans: campaign=%v round=%v", sawCampaign, sawRound)
	}
}

// TestCampaignIgnoresWorkersEnv pins down flag/env precedence: an explicit
// Workers count wins, and the env-var path still yields identical results.
func TestCampaignWorkersEnvIdentical(t *testing.T) {
	serial := campaignHash(t, campaignAtWorkers(t, tinyConfig(43), 1))
	t.Setenv("DRAGONVAR_WORKERS", "3")
	if got := campaignHash(t, campaignAtWorkers(t, tinyConfig(43), 0)); got != serial {
		t.Fatal("env-selected worker count changed the campaign")
	}
}
