package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"testing"

	"dragonvar/internal/dataset"
	"dragonvar/internal/telemetry"
	"dragonvar/internal/topology"
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

	// the serial campaign again, recorded, for the work counters
	serialReg := telemetry.New()
	telemetry.Enable(serialReg)
	campaignAtWorkers(t, cfg, 1)
	telemetry.Disable()

	r := telemetry.New()
	telemetry.Enable(r)
	defer telemetry.Disable()
	instrumented := campaignHash(t, campaignAtWorkers(t, cfg, 4))
	if instrumented != baseline {
		t.Fatal("telemetry-on parallel campaign differs from telemetry-off serial campaign")
	}

	// work counters count work, not workers: the shared path cache
	// resolves each entry once, and a footprint is built once per job
	serial := serialReg.Snapshot()
	snap := r.Snapshot()
	for _, name := range []string{
		telemetry.MNetsimRounds, telemetry.MNetsimCacheHits, telemetry.MNetsimCacheMisses,
		telemetry.MRoutingCandidateSets, telemetry.MClusterRuns, telemetry.MSlurmFootprints,
	} {
		if got, want := snap.Counters[name], serial.Counters[name]; got != want {
			t.Errorf("counter %s = %d at 4 workers, %d at 1", name, got, want)
		}
	}
	for _, name := range []string{
		telemetry.MEngineMaps, telemetry.MClusterRuns, telemetry.MClusterRounds,
		telemetry.MNetsimCacheMisses, telemetry.MNetsimRounds, telemetry.MSlurmFootprints,
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0; instrumentation not recording", name)
		}
	}
	for _, name := range []string{telemetry.MClusterRunSecs, telemetry.MEngineShardRun, telemetry.MNetsimRoundFlits} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s empty; instrumentation not recording", name)
		}
	}
	// every layout must fit what it records: a histogram with most samples
	// piled into its first or overflow bucket cannot resolve a quantile
	for name, h := range snap.Histograms {
		over, under := h.Counts[len(h.Counts)-1], h.Counts[0]
		if limit := 0.05 * float64(h.Count); float64(over) > limit || float64(under) > limit {
			t.Errorf("%s: %d samples in [%.3g, %.3g], %d above the top bound %g, %d at or below %g",
				name, h.Count, h.Min, h.Max, over, h.Bounds[len(h.Bounds)-1], under, h.Bounds[0])
		}
	}
	var sawCampaign, sawRound bool
	names := map[string]string{} // span id → name
	for _, sp := range snap.Spans {
		names[sp.SpanID] = sp.Name
	}
	for _, sp := range snap.Spans {
		switch sp.Name {
		case telemetry.SpanCampaign:
			sawCampaign = true
		case telemetry.SpanCampaignRound:
			sawRound = true
			if parent := names[sp.ParentSpanID]; parent != telemetry.SpanCampaign {
				t.Errorf("round span's parent is %q; not nested under the campaign", parent)
			}
		}
	}
	if !sawCampaign || !sawRound {
		t.Errorf("missing spans: campaign=%v round=%v", sawCampaign, sawRound)
	}
}

// TestFootprintsBuiltOnFirstRead pins how many background footprints the
// anchored campaign (small machine, 30 days, seed 42, adaptive routing)
// builds: only the jobs that load a controlled run's rounds are ever
// built, fewer than a fifth of the timeline, and the same ones at any
// worker count. Under firstfit placement 492 jobs overlap a round; one of
// them starts inside its only round and so never carries load. The
// interference placement reads only its co-runners' endpoint loads, which
// build no footprint, so it builds 491 as well (2,498 when it read whole
// footprints).
func TestFootprintsBuiltOnFirstRead(t *testing.T) {
	defer telemetry.Disable()
	for _, tc := range []struct {
		placement string
		workers   int
		want      int64
	}{
		{"firstfit", 1, 491},
		{"firstfit", 4, 491},
		{"interference", 1, 491},
	} {
		cfg := Config{Machine: topology.Small(), Days: 30, Seed: 42, Placement: tc.placement, Workers: tc.workers}
		cfg.Net.Routing = "adaptive"
		r := telemetry.New()
		telemetry.Enable(r)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunCampaign(); err != nil {
			t.Fatal(err)
		}
		telemetry.Disable()
		built := r.Snapshot().Counters[telemetry.MSlurmFootprints]
		if built != tc.want {
			t.Errorf("%s, workers=%d: %d footprints built, want %d", tc.placement, tc.workers, built, tc.want)
		}
		if jobs := len(c.Timeline.Jobs); built*5 >= int64(jobs) {
			t.Errorf("%s, workers=%d: %d footprints built for %d background jobs, want under a fifth", tc.placement, tc.workers, built, jobs)
		}
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
