package dataset

// Streaming ingest: the daemon-mode alternative to one-shot campaign gob
// caches. Runs arrive one at a time (in deterministic campaign order) and
// are journaled to a framelog write-ahead log; once a bounded window
// fills, its runs are sealed into an individually-validated segment file
// and the WAL is compacted down to the still-open window. Segments are a
// pure function of the run sequence and the window parameters, so a
// process killed between any two writes reseals byte-identical segments
// on reopen — the property the daemon's kill/resume test pins down.
//
// On-disk layout under the stream directory:
//
//	wal.gob               header frame + one frame per open-window run
//	segments/seg-%06d.gob one framelog frame per sealed window
//
// A segment whose checksum or encoding no longer verifies is quarantined
// (framelog.Quarantine) so a damaged file can never be silently folded
// into a training set.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dragonvar/internal/framelog"
)

// streamVersion is the WAL/segment format version; a mismatch is a hard
// error (no silent migration of a live daemon's state directory).
const streamVersion = 1

// DatasetInfo is the skeleton identity of one dataset in a stream: enough
// to rebuild the Campaign's dataset list in a deterministic order before
// any runs arrive.
type DatasetInfo struct {
	Name  string
	App   string
	Nodes int
}

// StreamMeta is the identity of a run stream. Every field participates in
// the stream digest; reopening a directory with a different identity is
// refused the same way a campaign cache with different faults never
// satisfies a lookup.
type StreamMeta struct {
	Seed      int64
	Days      float64 // days per campaign epoch feeding the stream
	Faults    string
	Routing   string
	Placement string
	Datasets  []DatasetInfo
	// Window bounds: a window seals when it holds WindowRuns runs, or —
	// when WindowSpan > 0 — before admitting a run that would stretch it
	// past WindowSpan campaign-clock seconds (or rewind the clock, which
	// marks an epoch boundary).
	WindowRuns int
	WindowSpan float64
}

// Digest returns the stream identity digest: SHA-256 over a fixed-order
// rendering of every meta field. The rendering is hand-rolled rather
// than gob-encoded because gob wire bytes embed type ids drawn from a
// process-global counter — two processes that did different amounts of
// gob work before digesting would disagree on the same meta.
func (m StreamMeta) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "stream-v1 seed=%d days=%v faults=%q routing=%q placement=%q runs=%d span=%v",
		m.Seed, m.Days, m.Faults, m.Routing, m.Placement, m.WindowRuns, m.WindowSpan)
	for _, d := range m.Datasets {
		fmt.Fprintf(h, " ds=%q app=%q nodes=%d", d.Name, d.App, d.Nodes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Segment is one sealed ingest window: a contiguous slice of the global
// run sequence, persisted as a single CRC-framed gob file.
type Segment struct {
	Index    int    // segment number, 0-based
	FirstRun int64  // global index of Runs[0] in the stream
	Digest   string // owning stream's identity digest
	Runs     []*Run
}

// CorruptSegmentError reports a segment whose frame failed CRC or decode
// validation. The file has been quarantined (renamed to *.corrupt) when
// Quarantined is true.
type CorruptSegmentError struct {
	Path        string
	Quarantined bool
	Err         error
}

func (e *CorruptSegmentError) Error() string {
	q := ""
	if e.Quarantined {
		q = fmt.Sprintf("; quarantined as %s.corrupt", filepath.Base(e.Path))
	}
	return fmt.Sprintf("dataset: corrupt segment %s: %v%s", e.Path, e.Err, q)
}

func (e *CorruptSegmentError) Unwrap() error { return e.Err }

// streamHeader is frame 0 of the WAL. FirstSeg/FirstRun advance at every
// compaction: the WAL body always holds exactly the open window's runs.
type streamHeader struct {
	Version  int
	Digest   string
	Meta     StreamMeta
	FirstSeg int   // index the next sealed segment will get
	FirstRun int64 // global index of the first run frame in the WAL
}

// StreamWriter is the single-writer handle on a run stream directory.
// Not safe for concurrent use; the daemon's ingest path is serial by
// construction (the campaign merge loop).
type StreamWriter struct {
	dir    string
	meta   StreamMeta
	digest string

	wal     *framelog.Log
	nextSeg int    // index of the next segment to seal
	total   int64  // global count of runs ingested (sealed + open)
	open    []*Run // the open window, in arrival order
}

// OpenStream opens (or creates) the stream directory for writing. An
// existing directory must carry the same identity digest; its WAL is
// replayed, a damaged tail healed, and any window the WAL already
// completes is sealed — so reopening after a kill always lands in the
// same state an uninterrupted writer would occupy.
func OpenStream(dir string, meta StreamMeta) (*StreamWriter, error) {
	if meta.WindowRuns <= 0 && meta.WindowSpan <= 0 {
		return nil, fmt.Errorf("dataset: stream %s: no window bound (WindowRuns and WindowSpan both unset)", dir)
	}
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		return nil, fmt.Errorf("dataset: stream: %w", err)
	}
	w := &StreamWriter{dir: dir, meta: meta, digest: meta.Digest()}
	walPath := w.walPath()
	raw, err := os.ReadFile(walPath)
	switch {
	case os.IsNotExist(err):
		if err := w.rewriteWAL(nil); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("dataset: stream: %w", err)
	default:
		frames, _ := framelog.Parse(raw)
		if len(frames) == 0 {
			return nil, fmt.Errorf("dataset: stream %s: WAL has no intact header", walPath)
		}
		var hdr streamHeader
		if err := framelog.Decode(frames[0], &hdr); err != nil {
			return nil, fmt.Errorf("dataset: stream %s: header: %w", walPath, err)
		}
		if hdr.Version != streamVersion {
			return nil, fmt.Errorf("dataset: stream %s: version %d, want %d", walPath, hdr.Version, streamVersion)
		}
		if hdr.Digest != w.digest {
			return nil, fmt.Errorf("dataset: stream %s: identity mismatch (dir %s, want %s): refusing to mix streams", walPath, hdr.Digest[:12], w.digest[:12])
		}
		w.nextSeg = hdr.FirstSeg
		w.total = hdr.FirstRun
		for _, fr := range frames[1:] {
			var run Run
			if err := framelog.Decode(fr, &run); err != nil {
				return nil, fmt.Errorf("dataset: stream %s: run frame: %w", walPath, err)
			}
			w.open = append(w.open, &run)
			w.total++
		}
		// Re-seal any window the WAL already completes (kill landed
		// between segment write and compaction — or before the segment
		// write at all). Sealing is idempotent: deterministic bytes,
		// atomic rename.
		if err := w.recoverSeals(); err != nil {
			return nil, err
		}
		// Heal a torn tail, and fold in any recovery compaction, by
		// rewriting the WAL to exactly header + open window.
		if err := w.rewriteWAL(w.open); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *StreamWriter) walPath() string { return filepath.Join(w.dir, "wal.gob") }

func (w *StreamWriter) segPath(i int) string {
	return filepath.Join(w.dir, "segments", fmt.Sprintf("seg-%06d.gob", i))
}

// Meta returns the stream's identity.
func (w *StreamWriter) Meta() StreamMeta { return w.meta }

// TotalRuns returns the global run count ingested so far (sealed + open).
// After a reopen this is the authoritative ingest offset: the daemon
// skips exactly this many runs when it re-derives an interrupted epoch.
func (w *StreamWriter) TotalRuns() int64 { return w.total }

// SealedSegments returns the number of sealed segments.
func (w *StreamWriter) SealedSegments() int { return w.nextSeg }

// OpenRuns returns the number of runs in the still-open window.
func (w *StreamWriter) OpenRuns() int { return len(w.open) }

// rewriteWAL atomically replaces the WAL with header + the given runs and
// reopens it for appending.
func (w *StreamWriter) rewriteWAL(runs []*Run) error {
	if w.wal != nil {
		w.wal.Close()
		w.wal = nil
	}
	var buf bytes.Buffer
	hdr := streamHeader{
		Version:  streamVersion,
		Digest:   w.digest,
		Meta:     w.meta,
		FirstSeg: w.nextSeg,
		FirstRun: w.total - int64(len(runs)),
	}
	if err := framelog.Encode(&buf, hdr); err != nil {
		return fmt.Errorf("dataset: stream: %w", err)
	}
	for _, r := range runs {
		if err := framelog.Encode(&buf, r); err != nil {
			return fmt.Errorf("dataset: stream: %w", err)
		}
	}
	wal, err := framelog.Heal(w.walPath(), nil, buf.Bytes())
	if err != nil {
		return fmt.Errorf("dataset: stream: %w", err)
	}
	w.wal = wal
	return nil
}

// spanExceeded reports whether admitting run into the open window would
// stretch it past WindowSpan (or rewind the campaign clock, which marks
// an epoch boundary). Always false when WindowSpan is unset.
func (w *StreamWriter) spanExceeded(run *Run) bool {
	if w.meta.WindowSpan <= 0 || len(w.open) == 0 {
		return false
	}
	first := w.open[0].Start
	return run.Start < first || run.Start-first > w.meta.WindowSpan
}

// Append journals one run and seals any window it completes, returning
// the sealed segments (usually none or one). The caller's *Run is stored
// by reference and must not be mutated afterwards.
func (w *StreamWriter) Append(run *Run) ([]*Segment, error) {
	var sealed []*Segment
	if w.spanExceeded(run) {
		seg, err := w.sealOpen()
		if err != nil {
			return sealed, err
		}
		sealed = append(sealed, seg)
	}
	if err := w.wal.Append(run); err != nil {
		return sealed, fmt.Errorf("dataset: stream append: %w", err)
	}
	w.open = append(w.open, run)
	w.total++
	if w.meta.WindowRuns > 0 && len(w.open) >= w.meta.WindowRuns {
		seg, err := w.sealOpen()
		if err != nil {
			return sealed, err
		}
		sealed = append(sealed, seg)
	}
	return sealed, nil
}

// Seal force-seals the open window (end of a bounded run, tests). No-op
// returning nil when the window is empty.
func (w *StreamWriter) Seal() (*Segment, error) {
	if len(w.open) == 0 {
		return nil, nil
	}
	return w.sealOpen()
}

// sealOpen seals the open window, then compacts the WAL down to the (now
// empty) window. Segment first, compaction second: a kill between the two
// leaves a WAL that re-seals the identical segment on reopen.
func (w *StreamWriter) sealOpen() (*Segment, error) {
	seg, err := w.seal()
	if err != nil {
		return nil, err
	}
	if err := w.rewriteWAL(nil); err != nil {
		return nil, err
	}
	return seg, nil
}

// recoverSeals replays the open window after a reopen and seals every
// complete window it contains, mirroring Append's boundary logic. The
// caller compacts the WAL once at the end of recovery.
func (w *StreamWriter) recoverSeals() error {
	runs := w.open
	w.open = nil
	w.total -= int64(len(runs))
	for _, run := range runs {
		if w.spanExceeded(run) {
			if _, err := w.seal(); err != nil {
				return err
			}
		}
		w.open = append(w.open, run)
		w.total++
		if w.meta.WindowRuns > 0 && len(w.open) >= w.meta.WindowRuns {
			if _, err := w.seal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// seal writes the open window as the next segment and empties it.
// Overwriting an existing segment file is fine: segment content is
// deterministic, so a re-seal writes identical bytes.
func (w *StreamWriter) seal() (*Segment, error) {
	seg := &Segment{
		Index:    w.nextSeg,
		FirstRun: w.total - int64(len(w.open)),
		Digest:   w.digest,
		Runs:     w.open,
	}
	var buf bytes.Buffer
	if err := framelog.Encode(&buf, seg); err != nil {
		return nil, fmt.Errorf("dataset: segment: %w", err)
	}
	err := framelog.AtomicWrite(w.segPath(seg.Index), func(dst io.Writer) error {
		_, err := dst.Write(buf.Bytes())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: segment: %w", err)
	}
	w.nextSeg++
	w.open = nil
	return seg, nil
}

// Segment loads sealed segment i, verifying its checksum, decoding, and
// identity. A file that fails validation is quarantined (renamed to
// *.corrupt) and reported as a *CorruptSegmentError.
func (w *StreamWriter) Segment(i int) (*Segment, error) {
	path := w.segPath(i)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: segment: %w", err)
	}
	frames, _ := framelog.Parse(raw)
	if len(frames) != 1 {
		return nil, quarantine(path, fmt.Errorf("checksum failed (%d intact frames, want 1)", len(frames)))
	}
	var seg Segment
	if err := framelog.Decode(frames[0], &seg); err != nil {
		return nil, quarantine(path, err)
	}
	if seg.Digest != w.digest {
		return nil, fmt.Errorf("dataset: segment %s belongs to stream %s, want %s", path, seg.Digest[:12], w.digest[:12])
	}
	if seg.Index != i {
		return nil, fmt.Errorf("dataset: segment %s carries index %d, want %d", path, seg.Index, i)
	}
	return &seg, nil
}

func quarantine(path string, cause error) error {
	return &CorruptSegmentError{Path: path, Quarantined: framelog.Quarantine(path), Err: cause}
}

// assemble reconstructs a Campaign from segments 0..SealedSegments-1,
// plus the open window when includeOpen is set. Runs land in their
// datasets in stream order, which is campaign plan order — so a stream
// fed the same rounds as a batch campaign assembles to the identical
// Campaign value (the batch-vs-streaming equivalence test pins the gob
// bytes).
func (w *StreamWriter) assemble(includeOpen bool) (*Campaign, error) {
	camp := &Campaign{
		Seed:      w.meta.Seed,
		Days:      w.meta.Days,
		Faults:    w.meta.Faults,
		Routing:   w.meta.Routing,
		Placement: w.meta.Placement,
	}
	byName := make(map[string]*Dataset, len(w.meta.Datasets))
	for _, info := range w.meta.Datasets {
		d := &Dataset{Name: info.Name, App: info.App, Nodes: info.Nodes, Runs: []*Run{}}
		camp.Datasets = append(camp.Datasets, d)
		byName[d.Name] = d
	}
	add := func(r *Run) error {
		d := byName[r.Dataset]
		if d == nil {
			return fmt.Errorf("dataset: stream run %d belongs to unknown dataset %q", r.RunID, r.Dataset)
		}
		d.Runs = append(d.Runs, r)
		return nil
	}
	for i := 0; i < w.nextSeg; i++ {
		seg, err := w.Segment(i)
		if err != nil {
			return nil, err
		}
		for _, r := range seg.Runs {
			if err := add(r); err != nil {
				return nil, err
			}
		}
	}
	if includeOpen {
		for _, r := range w.open {
			if err := add(r); err != nil {
				return nil, err
			}
		}
	}
	if err := camp.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: stream assemble: %w", err)
	}
	return camp, nil
}

// AssembleSealed reconstructs a Campaign from the sealed segments only —
// the daemon's retraining input, deterministic across kill/resume because
// it never depends on how far the open window happened to get.
func (w *StreamWriter) AssembleSealed() (*Campaign, error) { return w.assemble(false) }

// Assemble reconstructs a Campaign from sealed segments plus the open
// window.
func (w *StreamWriter) Assemble() (*Campaign, error) { return w.assemble(true) }

// Close releases the WAL handle. The stream can be reopened later.
func (w *StreamWriter) Close() error {
	if w.wal == nil {
		return nil
	}
	err := w.wal.Close()
	w.wal = nil
	return err
}
