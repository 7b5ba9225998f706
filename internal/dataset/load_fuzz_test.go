package dataset

import (
	"bytes"
	"encoding/gob"
	"testing"

	"dragonvar/internal/counters"
)

// FuzzLoadCampaign feeds arbitrary bytes to Load's decode step: no input
// panics, an accepted campaign passes Validate, and re-encoding it and
// decoding that again gives the same gob bytes (bytes, not DeepEqual:
// missing counters are NaN).
func FuzzLoadCampaign(f *testing.F) {
	gapped := synthetic(2, 3)
	gapped.Runs[0].Missing = []bool{false, true, false}
	gapped.Runs[0].Counters[1][0] = counters.Missing()
	for _, c := range []*Campaign{
		{Seed: 42, Days: 130, Faults: "dropout@0-60", Routing: "adaptive", Placement: "firstfit",
			Identity: "id", Datasets: []*Dataset{synthetic(3, 4), {Name: "OTHER-512", App: "OTHER", Nodes: 512}}},
		{Seed: 1, Partial: true, Datasets: []*Dataset{gapped}},
		{},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := decodeCampaign(bytes.NewReader(blob))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted a campaign that fails Validate: %v", err)
		}
		var once bytes.Buffer
		if err := gob.NewEncoder(&once).Encode(c); err != nil {
			t.Fatalf("accepted campaign does not re-encode: %v", err)
		}
		again, err := decodeCampaign(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded campaign is refused: %v", err)
		}
		var twice bytes.Buffer
		if err := gob.NewEncoder(&twice).Encode(again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not stable: %d bytes, then %d", once.Len(), twice.Len())
		}
	})
}
