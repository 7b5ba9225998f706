package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dragonvar/internal/dataset"
	"dragonvar/internal/routing"
	"dragonvar/internal/topology"
)

// goldenContent pins the anchored campaign (small machine, 30 days, seed
// 42, firstfit placement, no faults) under every routing policy, as the
// first eight bytes of the SHA-256 of the campaign's JSON encoding. JSON,
// unlike gob, carries no process-dependent wire type ids, so these values
// are comparable across processes and commits. They were recorded before
// the routing split was reduced to one method per policy; any change to the
// split or the round loop that moves a byte of a campaign fails here.
// Never regenerate them to make a change pass.
var goldenContent = map[string]string{
	"adaptive": "a836983eb2f81861",
	"minimal":  "323932e6963e0e2e",
	"feedback": "df7117def8c1c1a3",
	"valiant":  "3b9e5483f10e285b",
}

// goldenCampaignHash runs the small 30-day seed-42 campaign at 2 workers
// and returns the first eight bytes of the SHA-256 of its JSON encoding,
// with the campaign itself.
func goldenCampaignHash(t *testing.T, routing, placement, faults string) (string, *dataset.Campaign) {
	t.Helper()
	cfg := Config{
		Machine:   topology.Small(),
		Days:      30,
		Seed:      42,
		Placement: placement,
		FaultSpec: faults,
	}
	cfg.Net.Routing = routing
	camp := campaignAtWorkers(t, cfg, 2)
	blob, err := json.Marshal(camp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8]), camp
}

func TestCampaignContentGolden(t *testing.T) {
	for _, pol := range routing.PolicyNames() {
		t.Run(pol, func(t *testing.T) {
			if got, _ := goldenCampaignHash(t, pol, "firstfit", ""); got != goldenContent[pol] {
				t.Fatalf("%s campaign content hash = %s, want %s", pol, got, goldenContent[pol])
			}
		})
	}
}

// TestCampaignPlacementFaultsGolden pins the same campaign on the paths the
// anchors above do not reach: the interference policy, which reads other
// runs' footprints while placing; compact placement; and a dense random
// fault schedule whose drains kill runs, so requeues re-place them and
// rebuild their footprints mid-campaign. Recorded once; never regenerate
// them to make a change pass.
func TestCampaignPlacementFaultsGolden(t *testing.T) {
	cases := []struct {
		name, routing, placement, faults, want string
	}{
		{"adaptive-interference", "adaptive", "interference", "", "e8b22daa3d799eb7"},
		{"adaptive-compact", "adaptive", "compact", "", "dc3c498602e01f1f"},
		{"minimal-firstfit-faults", "minimal", "firstfit",
			"links=4,degraded=4,routers=4,drains=300,dropouts=3,outage=300", "8dcae615d7331e31"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, camp := goldenCampaignHash(t, tc.routing, tc.placement, tc.faults)
			if got != tc.want {
				t.Fatalf("%s campaign content hash = %s, want %s", tc.name, got, tc.want)
			}
			if tc.faults == "" {
				return
			}
			requeued := 0
			for _, ds := range camp.Datasets {
				for _, r := range ds.Runs {
					requeued += r.Requeues
				}
			}
			if requeued == 0 {
				t.Fatal("the fault schedule requeued no run; the requeue path is not pinned")
			}
		})
	}
}
