package traceio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// buildLog returns a small healthy v2 log with a missing marker in the
// middle. Writes to a bytes.Buffer cannot fail, so errors are impossible
// here.
func buildLog() []byte {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 3)
	w.WriteSample(1, []float64{10, 20, 30})
	w.WriteMissing(2)
	w.WriteSample(3, []float64{15, 25, 35})
	w.Flush()
	return buf.Bytes()
}

func TestMissingMarkerRoundTrip(t *testing.T) {
	data := buildLog()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := r.Next(nil)
	if err != nil || r.Missing() {
		t.Fatalf("first sample: err %v, missing %v", err, r.Missing())
	}
	if v[0] != 10 {
		t.Fatalf("first sample value %v", v[0])
	}
	ts, v, err := r.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Missing() {
		t.Fatal("second sample should be the missing marker")
	}
	if ts != 2 {
		t.Fatalf("missing marker at t=%v, want 2", ts)
	}
	for i, x := range v {
		if !math.IsNaN(x) {
			t.Fatalf("missing value[%d] = %v, want NaN", i, x)
		}
	}
	// the healthy sample after the gap reconstructs against the pre-gap
	// baseline
	_, v, err = r.Next(nil)
	if err != nil || r.Missing() {
		t.Fatalf("third sample: err %v, missing %v", err, r.Missing())
	}
	if v[0] != 15 || v[1] != 25 || v[2] != 35 {
		t.Fatalf("post-gap sample %v", v)
	}
	if _, _, err := r.Next(nil); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestWriteSampleRejectsNaN(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	if err := w.WriteSample(1, []float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN value should be rejected")
	}
	if err := w.WriteSample(1, []float64{math.Inf(1), 2}); err == nil {
		t.Fatal("Inf value should be rejected")
	}
	if err := w.WriteSample(1, []float64{1, 2}); err != nil {
		t.Fatalf("finite sample after rejection should still work: %v", err)
	}
}

func TestReadV1Log(t *testing.T) {
	// a version-1 header ("DFLDMS1\n", no per-sample flags byte) is a
	// foreign file: no writer produces it, so it is refused as bad magic
	var buf bytes.Buffer
	buf.WriteString("DFLDMS1\n")
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], 2)]) // numSeries
	_, err := NewReader(&buf)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("v1 header: err = %v, want the bad-magic error", err)
	}
}

func TestUnknownFlagsRejected(t *testing.T) {
	data := buildLog()
	// the flags byte of the first sample sits right after the header and
	// the one-byte timestamp varint
	idx := len(magic) + 1 + 1
	data[idx] |= 0x80
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(nil); err == nil {
		t.Fatal("unknown flag bits should be a hard error")
	}
}

// TestTruncationAtEveryByte chops a healthy log at every possible length
// and asserts the reader never panics: it either errors descriptively or
// ends with a clean EOF at a sample boundary.
func TestTruncationAtEveryByte(t *testing.T) {
	data := buildLog()
	for n := 0; n < len(data); n++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic reading log truncated to %d bytes: %v", n, p)
				}
			}()
			r, err := NewReader(bytes.NewReader(data[:n]))
			if err != nil {
				return // header rejected: fine
			}
			for {
				_, _, err := r.Next(nil)
				if errors.Is(err, io.EOF) {
					return // clean boundary: fine
				}
				if err != nil {
					return // descriptive error: fine
				}
			}
		}()
	}
}

// TestRandomCorruption flips bytes in a healthy log and asserts reading
// never panics and never loops forever.
func TestRandomCorruption(t *testing.T) {
	base := buildLog()
	for pos := 0; pos < len(base); pos++ {
		for _, b := range []byte{0x00, 0xff, 0x80} {
			data := append([]byte(nil), base...)
			data[pos] = b
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic reading log with byte %d set to %#x: %v", pos, b, p)
					}
				}()
				r, err := NewReader(bytes.NewReader(data))
				if err != nil {
					return
				}
				for i := 0; i < 100; i++ { // bounded: corrupt dt can't add samples
					if _, _, err := r.Next(nil); err != nil {
						return
					}
				}
				t.Fatalf("corrupt log at byte %d=%#x yielded >100 samples", pos, b)
			}()
		}
	}
}

func FuzzReader(f *testing.F) {
	f.Add(buildLog())
	f.Add([]byte(magic))
	f.Add([]byte("DFLDMS1\n\x02\x00")) // version 1: refused
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			if _, _, err := r.Next(nil); err != nil {
				return
			}
		}
	})
}
