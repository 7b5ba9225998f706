package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dragonvar/internal/framelog"
)

// appendFrame hand-writes one WAL frame, the way a writer killed between
// its WAL append and the seal leaves it.
func appendFrame(buf *bytes.Buffer, v any) error { return framelog.Encode(buf, v) }

// hugeLengthFrame is a frame header claiming a 2^64-1 byte payload,
// followed by four checksum-sized bytes.
func hugeLengthFrame() []byte {
	return append(binary.AppendUvarint(nil, math.MaxUint64), 1, 2, 3, 4, 5)
}

// TestStreamHugeLengthFrame: a length varint that overflows any slice
// bound is a torn tail in the WAL and a corrupt segment, never a panic.
func TestStreamHugeLengthFrame(t *testing.T) {
	dir := t.TempDir()
	meta := streamMetaForTest(3, 0)
	w, err := OpenStream(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runSeq(4) {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	wal := filepath.Join(dir, "wal.gob")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(hugeLengthFrame()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w, err = OpenStream(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.TotalRuns() != 4 || w.OpenRuns() != 1 {
		t.Fatalf("after huge-length tail: total=%d open=%d, want 4/1", w.TotalRuns(), w.OpenRuns())
	}

	seg := filepath.Join(dir, "segments", "seg-000000.gob")
	if err := os.WriteFile(seg, hugeLengthFrame(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = w.Segment(0)
	var cerr *CorruptSegmentError
	if !errors.As(err, &cerr) || !cerr.Quarantined {
		t.Fatalf("Segment(0) = %v, want a quarantined CorruptSegmentError", err)
	}
	if _, err := os.Stat(seg + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}
