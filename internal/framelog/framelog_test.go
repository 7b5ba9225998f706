package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

type record struct {
	N    int
	Name string
}

func encodeAll(t testing.TB, vs ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range vs {
		if err := Encode(&buf, v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// hugeLength is a frame header claiming a 2^64-1 byte payload, followed by
// four checksum-sized bytes and one more.
func hugeLength() []byte {
	return append(binary.AppendUvarint(nil, math.MaxUint64), 1, 2, 3, 4, 5)
}

func TestParseStopsAtDamage(t *testing.T) {
	log := encodeAll(t, record{1, "a"}, record{2, "b"})
	first := len(encodeAll(t, record{1, "a"}))
	for _, tc := range []struct {
		name   string
		raw    []byte
		frames int
		valid  int
	}{
		{"intact", log, 2, len(log)},
		{"torn", log[:len(log)-1], 1, first},
		{"huge length", hugeLength(), 0, 0},
		{"huge length tail", append(append([]byte{}, log...), hugeLength()...), 2, len(log)},
		{"bad checksum", append(append([]byte{}, log[:first]...), flip(log[first:], 3)...), 1, first},
		{"empty", nil, 0, 0},
	} {
		frames, valid := Parse(tc.raw)
		if len(frames) != tc.frames || valid != tc.valid {
			t.Errorf("%s: %d frames, valid %d; want %d, %d", tc.name, len(frames), valid, tc.frames, tc.valid)
		}
	}
	frames, _ := Parse(log)
	var r record
	if err := Decode(frames[1], &r); err != nil || r != (record{2, "b"}) {
		t.Fatalf("frame 1 decodes to %+v, %v", r, err)
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte{}, b...)
	c[i] ^= 0xff
	return c
}

func TestHealCutsTornTailAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	torn := encodeAll(t, record{1, "a"}, record{2, "b"})
	torn = torn[:len(torn)-2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, valid := Parse(torn)
	l, err := Heal(path, torn, torn[:valid])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(record{3, "c"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeAll(t, record{1, "a"}, record{3, "c"}); !bytes.Equal(got, want) {
		t.Fatalf("healed log = %x, want %x", got, want)
	}
}

func TestAtomicWriteKeepsOldContentOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := AtomicWrite(path, write("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := AtomicWrite(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("AtomicWrite error = %v, want the writer's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write left %q, want the old content", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("failed write left %d files, want only the target", len(ents))
	}
}

func TestQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obj")
	if Quarantine(path) {
		t.Fatal("quarantined a file that does not exist")
	}
	if err := os.WriteFile(path, []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !Quarantine(path) {
		t.Fatal("quarantine failed")
	}
	if got, err := os.ReadFile(path + ".corrupt"); err != nil || string(got) != "bad" {
		t.Fatalf("quarantined bytes = %q, %v", got, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("quarantined file still in place: %v", err)
	}
}

// FuzzLog checks the torn-tail contract on arbitrary bytes: Parse never
// panics, its valid prefix re-parses to the same frames, healing is
// idempotent, and a frame appended to a healed log replays.
func FuzzLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		frames, valid := Parse(raw)
		if valid < 0 || valid > len(raw) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(raw))
		}
		again, n := Parse(raw[:valid])
		if n != valid || len(again) != len(frames) {
			t.Fatalf("valid prefix re-parses to %d frames over %d bytes, want %d over %d", len(again), n, len(frames), valid)
		}
		for i := range frames {
			if !bytes.Equal(again[i], frames[i]) {
				t.Fatalf("frame %d differs on re-parse", i)
			}
		}

		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		heal := func() []byte {
			t.Helper()
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, valid := Parse(onDisk)
			l, err := Heal(path, onDisk, onDisk[:valid])
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			healed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return healed
		}
		healed := heal()
		if !bytes.Equal(healed, raw[:valid]) {
			t.Fatalf("heal left %d bytes, want the %d-byte valid prefix", len(healed), valid)
		}
		if twice := heal(); !bytes.Equal(twice, healed) {
			t.Fatal("healing a healed log changed it")
		}

		l, err := Heal(path, healed, healed)
		if err != nil {
			t.Fatal(err)
		}
		want := record{N: len(frames), Name: "appended"}
		if err := l.Append(want); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		final, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		replay, n := Parse(final)
		if n != len(final) || len(replay) != len(frames)+1 {
			t.Fatalf("after append: %d frames over %d of %d bytes, want %d over all", len(replay), n, len(final), len(frames)+1)
		}
		var got record
		if err := Decode(replay[len(frames)], &got); err != nil || got != want {
			t.Fatalf("appended frame replays as %+v, %v", got, err)
		}
	})
}
