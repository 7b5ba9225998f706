package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

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

func TestCampaignContentGolden(t *testing.T) {
	for _, pol := range routing.PolicyNames() {
		t.Run(pol, func(t *testing.T) {
			cfg := Config{
				Machine:   topology.Small(),
				Days:      30,
				Seed:      42,
				Placement: "firstfit",
			}
			cfg.Net.Routing = pol
			blob, err := json.Marshal(campaignAtWorkers(t, cfg, 2))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got, want := hex.EncodeToString(sum[:8]), goldenContent[pol]; got != want {
				t.Fatalf("%s campaign content hash = %s, want %s", pol, got, want)
			}
		})
	}
}
