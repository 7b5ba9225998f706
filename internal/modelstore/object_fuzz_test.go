package modelstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzObjectDecode stores arbitrary bytes under their own content id — so
// the hash check passes and the envelope and model decoders see them —
// and loads them as every artifact kind: any outcome but a panic is fine,
// and a load that succeeds returns a model.
func FuzzObjectDecode(f *testing.F) {
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		sum := sha256.Sum256(blob)
		id := hex.EncodeToString(sum[:])
		path := st.objectPath(id)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		rj, err := json.Marshal(ref{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(st.Root(), "refs", "obj"), rj, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, _, _, err := st.GetForecaster("obj"); err == nil && m == nil {
			t.Fatal("GetForecaster: nil model without an error")
		}
		if m, _, _, err := st.GetGBR("obj"); err == nil && m == nil {
			t.Fatal("GetGBR: nil model without an error")
		}
		if m, _, _, err := st.GetAdvisor("obj"); err == nil && m == nil {
			t.Fatal("GetAdvisor: nil model without an error")
		}
	})
}
