package daemon

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointHugeLengthTail: a frame whose length varint overflows any
// slice bound is a torn tail, healed away on open, never a panic.
func TestCheckpointHugeLengthTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.gob")
	ck, _, err := openCheckpoint(path, "digest-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(progress{Epoch: 1, Sealed: 2}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	huge := append(binary.AppendUvarint(nil, math.MaxUint64), 1, 2, 3, 4, 5)
	if err := os.WriteFile(path, append(intact, huge...), 0o644); err != nil {
		t.Fatal(err)
	}

	ck, p, err := openCheckpoint(path, "digest-a")
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if p.Epoch != 1 || p.Sealed != 2 {
		t.Fatalf("progress after huge-length tail = %+v, want epoch 1 sealed 2", p)
	}
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(healed) != string(intact) {
		t.Fatalf("heal left %d bytes, want the %d-byte valid prefix", len(healed), len(intact))
	}
}
