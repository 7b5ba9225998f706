package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// FuzzLog checks the torn-tail contract on arbitrary bytes, in memory:
// Parse never panics and its valid prefix re-parses to the same frames,
// and Open's rule (decodeLog) refuses exactly the logs whose header or a
// later frame does not decode or is rejected, and otherwise replays the
// records Parse finds after frame 0 and keeps the valid prefix. The
// file-system half (Open and Heal on disk, healing idempotent, an append
// replays) writes and fsyncs files, so it runs on the seed corpus under
// plain go test and is skipped while fuzzing.
func FuzzLog(f *testing.F) {
	f.Add(encodeAll(f, record{N: -1, Name: "foreign header"}, record{1, "a"}))
	f.Add(encodeAll(f, record{1, "a"}, "not a record", record{2, "b"}))
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
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
		checkDecodeLog(t, raw, frames, valid)
		if fuzzing {
			return
		}
		checkOpen(t, raw)
		checkHeal(t, raw, len(frames), valid)
	})
}

// checkDecodeLog runs raw through Open's rule in memory: it accepts
// exactly when frame 0 decodes as a header checkHeader accepts and every
// later frame decodes as a record, and then replays those records in
// order and keeps the valid prefix.
func checkDecodeLog(t *testing.T, raw []byte, frames [][]byte, valid int) {
	t.Helper()
	var got []record
	keep, err := decodeLog(raw, checkHeader, func(r record) error {
		got = append(got, r)
		return nil
	})
	var want []record
	ok := len(frames) > 0
	if ok {
		var h record
		ok = Decode(frames[0], &h) == nil && checkHeader(h) == nil
	}
	for i := 1; ok && i < len(frames); i++ {
		var r record
		ok = Decode(frames[i], &r) == nil
		want = append(want, r)
	}
	if (err == nil) != ok {
		t.Fatalf("decodeLog error %v; %d frames, header and records decode: %v", err, len(frames), ok)
	}
	if err != nil {
		return
	}
	if keep != valid {
		t.Fatalf("decodeLog keeps %d bytes, Parse's valid prefix is %d", keep, valid)
	}
	if len(got) != len(want) {
		t.Fatalf("decodeLog replayed %d records, Parse found %d after the header", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d replays as %+v, Parse decodes %+v", i, got[i], want[i])
		}
	}
}

// checkHeal writes raw to a file, heals it to its valid prefix twice (the
// second heal changes nothing), and appends a record that replays.
func checkHeal(t *testing.T, raw []byte, frames, valid int) {
	t.Helper()
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
	want := record{N: frames, Name: "appended"}
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
	if n != len(final) || len(replay) != frames+1 {
		t.Fatalf("after append: %d frames over %d of %d bytes, want %d over all", len(replay), n, len(final), frames+1)
	}
	var got record
	if err := Decode(replay[frames], &got); err != nil || got != want {
		t.Fatalf("appended frame replays as %+v, %v", got, err)
	}
}

// checkHeader is the header check of the record logs in these tests: a
// header's N must not be negative.
func checkHeader(h record) error {
	if h.N < 0 {
		return fmt.Errorf("header N %d", h.N)
	}
	return nil
}

// openRecords opens the log at path with a record header whose N must not
// be negative, collecting the records it replays.
func openRecords(path string) (*Log, []record, error) {
	var got []record
	l, err := Open(path, record{Name: "header"}, checkHeader,
		func(r record) error {
			got = append(got, r)
			return nil
		})
	return l, got, err
}

// checkOpen runs raw through Open: a refusal leaves the bytes as they
// were; an accepted file replays the records Parse finds after frame 0,
// heals to the valid prefix, reopens unchanged, and replays an append.
func checkOpen(t *testing.T, raw []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "opened")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	onDisk := func() []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	l, got, err := openRecords(path)
	if err != nil {
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("refusal %q does not name the file", err)
		}
		if !bytes.Equal(onDisk(), raw) {
			t.Fatal("refused file was changed")
		}
		return
	}
	frames, valid := Parse(raw)
	if len(frames) == 0 || len(got) != len(frames)-1 {
		t.Fatalf("Open replayed %d records, Parse found %d frames", len(got), len(frames))
	}
	for i, fr := range frames[1:] {
		var want record
		if err := Decode(fr, &want); err != nil || got[i] != want {
			t.Fatalf("record %d replays as %+v, Parse decodes %+v, %v", i, got[i], want, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	healed := onDisk()
	if !bytes.Equal(healed, raw[:valid]) {
		t.Fatalf("Open left %d bytes, want the %d-byte valid prefix", len(healed), valid)
	}

	l, again, err := openRecords(path)
	if err != nil || len(again) != len(got) {
		t.Fatalf("reopen replayed %d records, %v; want %d", len(again), err, len(got))
	}
	appended := record{N: len(got), Name: "appended"}
	if err := l.Append(appended); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(onDisk(), healed) {
		t.Fatal("reopen changed the healed bytes")
	}
	l, final, err := openRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(final) != len(got)+1 || final[len(got)] != appended {
		t.Fatalf("after append: %d records, want %d ending in %+v", len(final), len(got)+1, appended)
	}
}
