// Package framelog owns every durable file format detail the repository
// shares between packages: CRC32C-framed gob logs with torn-tail replay
// and heal (the dist and daemon checkpoints, the run stream WAL and its
// segments), atomic whole-file replacement, quarantine of damaged files,
// and the init-time pinning of gob type ids that keeps all of them
// byte-identical across processes. Callers keep their own header and
// record policy; this package only moves bytes.
//
// A framed log is a sequence of frames, each
//
//	uvarint payload length | crc32c(payload), little-endian | payload
//
// where every payload is a self-contained gob stream. Appends are
// fsynced, so a crash can only truncate or corrupt the tail: Parse stops
// at the first damaged frame, and Heal rewrites the file to the valid
// prefix before appending resumes.
package framelog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// castagnoli is hardware-accelerated on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode gob-encodes v as a self-contained payload and appends its frame
// to buf.
func Encode(buf *bytes.Buffer, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("framelog: encode %T: %w", v, err)
	}
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(payload.Bytes(), castagnoli))
	buf.Write(hdr[:n+4])
	buf.Write(payload.Bytes())
	return nil
}

// Parse splits raw into whole, checksum-valid frames and returns their
// payloads (sub-slices of raw) and the byte length of the prefix they
// cover. A truncated or corrupt frame ends the parse: everything from it
// on is the torn tail a crash left behind.
func Parse(raw []byte) (payloads [][]byte, valid int) {
	for valid < len(raw) {
		rest := raw[valid:]
		length, n := binary.Uvarint(rest)
		if n <= 0 || len(rest)-n < 4 || length > uint64(len(rest)-n-4) {
			break
		}
		payload := rest[n+4 : n+4+int(length)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[n:]) {
			break
		}
		payloads = append(payloads, payload)
		valid += n + 4 + len(payload)
	}
	return payloads, valid
}

// Decode gob-decodes one frame payload into v.
func Decode(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// Log is a framed file open for appending.
type Log struct {
	f *os.File
}

// Heal makes the file at path hold exactly keep — the valid prefix Parse
// reported, a fresh header, or a compacted log — and opens it for
// appending. The file is atomically rewritten unless onDisk, its current
// content, already equals keep; pass a nil onDisk for a file that does not
// exist or must be rewritten regardless.
func Heal(path string, onDisk, keep []byte) (*Log, error) {
	if onDisk == nil || !bytes.Equal(onDisk, keep) {
		err := AtomicWrite(path, func(w io.Writer) error {
			_, err := w.Write(keep)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("framelog: %w", err)
	}
	return &Log{f: f}, nil
}

// Append frames v and writes it, returning once the frame is fsynced: a
// record Append has returned for survives a crash.
func (l *Log) Append(v any) error {
	var buf bytes.Buffer
	if err := Encode(&buf, v); err != nil {
		return err
	}
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("framelog: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("framelog: sync: %w", err)
	}
	return nil
}

// Close closes the file, which stays on disk for a later Heal.
func (l *Log) Close() error { return l.f.Close() }

// AtomicWrite replaces the file at path with what write produces. The
// bytes go to a temp file in the same directory (its name contains
// ".tmp-", which directory listings such as modelstore.List skip), are
// fsynced, and are renamed over path, so readers and crashes only ever see
// the old or the complete new content. Nothing is left behind on error.
func AtomicWrite(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("framelog: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("framelog: %w", err)
	}
	return nil
}

// Quarantine moves a damaged file aside to path+".corrupt", keeping its
// bytes for forensics while freeing path for a clean rewrite. It reports
// whether the rename succeeded.
func Quarantine(path string) bool {
	return os.Rename(path, path+".corrupt") == nil
}

// PinGob assigns the gob type ids of vs (and of every type nested in
// them) in argument order, by encoding each once to io.Discard. Call it
// from an init function with every wire type a package persists.
//
// encoding/gob draws wire type ids from a process-global counter in
// first-use order, and every encoder embeds those ids in its output.
// Durable artifacts — the run stream WAL and segments, campaign caches,
// checkpoints, model store objects and therefore their content ids — must
// be byte-identical across processes regardless of what other gob work a
// process did first: a resumed daemon decodes its WAL before it encodes
// anything, a fresh one does not. Pinning at init fixes each id before any
// runtime gob activity can shift it. The ids then depend only on package
// initialization order, which the import graph fixes; keep each package's
// PinGob call in its own init so that order, and the bytes, hold.
func PinGob(vs ...any) {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("framelog: pin gob type %T: %v", v, err))
		}
	}
}
