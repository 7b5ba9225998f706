package dist

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"dragonvar/internal/cluster"
	"dragonvar/internal/framelog"
	"dragonvar/internal/telemetry"
)

// The checkpoint is the coordinator's crash armor: every completed unit
// outcome is appended to a spill file before it is surrendered to the
// campaign driver, so a coordinator killed mid-campaign resumes from where
// it died instead of re-running finished units — and, because unit results
// are deterministic, resumes byte-identically.
//
// Layout: a framelog file — a header frame identifying the campaign (plan
// digest + unit count), then one frame per completed unit outcome. A crash
// can only truncate or corrupt the tail; the loader replays frames until
// the first damaged one, discards the rest, and heals the file to the
// valid prefix. A damaged header is treated as a fresh file; a header
// mismatch — different campaign — is a hard error, not a silent restart.

// The checkpoint's wire types are pinned so its bytes do not depend on the
// gob work a coordinator did before opening it.
func init() { framelog.PinGob(checkpointHeader{}, checkpointRecord{}) }

// checkpointHeader is the first frame of every checkpoint file.
type checkpointHeader struct {
	Version    int
	PlanDigest string
	NumUnits   int
}

// checkpointRecord journals one completed unit outcome. The run travels as
// gob bytes (same encoding as the wire) so replay round-trips it exactly.
type checkpointRecord struct {
	Round   int
	Unit    int
	Drained bool
	DrainAt float64
	RunGob  []byte
}

// checkpoint is an append-only outcome journal. Not safe for concurrent
// use; the coordinator serializes access under its own lock.
type checkpoint struct {
	path string
	log  *framelog.Log
	recs *telemetry.Counter
}

// openCheckpoint opens (or creates) the journal at path, validates its
// header against the campaign identity, and returns the replayable
// outcomes keyed by round then unit. A damaged tail is dropped and the
// file healed in place; a header for a different campaign is an error.
func openCheckpoint(path, planDigest string, numUnits int) (*checkpoint, map[int]map[int]cluster.UnitOutcome, error) {
	want := checkpointHeader{Version: 1, PlanDigest: planDigest, NumUnits: numUnits}
	replay := map[int]map[int]cluster.UnitOutcome{}

	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// fresh campaign: write the header below
		raw = nil
	case err != nil:
		return nil, nil, fmt.Errorf("dist: read checkpoint %s: %w", path, err)
	}

	var valid []byte // longest cleanly-framed prefix
	if len(raw) > 0 {
		frames, n := framelog.Parse(raw)
		valid = raw[:n]
		if len(frames) == 0 {
			// header itself was damaged; treat as a fresh file
			valid = nil
		} else {
			var hdr checkpointHeader
			if err := framelog.Decode(frames[0], &hdr); err != nil {
				valid = nil
			} else if hdr != want {
				return nil, nil, fmt.Errorf("dist: checkpoint %s belongs to a different campaign (digest %.12s…, %d units; want %.12s…, %d units)",
					path, hdr.PlanDigest, hdr.NumUnits, want.PlanDigest, want.NumUnits)
			} else {
				for _, frame := range frames[1:] {
					var rec checkpointRecord
					if err := framelog.Decode(frame, &rec); err != nil {
						break // damaged record: drop it and everything after
					}
					out, err := rec.outcome()
					if err != nil {
						break
					}
					if rec.Unit < 0 || rec.Unit >= numUnits {
						break
					}
					if replay[rec.Round] == nil {
						replay[rec.Round] = map[int]cluster.UnitOutcome{}
					}
					replay[rec.Round][rec.Unit] = out
				}
			}
		}
	}

	if valid == nil {
		var buf bytes.Buffer
		if err := framelog.Encode(&buf, want); err != nil {
			return nil, nil, fmt.Errorf("dist: encode checkpoint header: %w", err)
		}
		valid = buf.Bytes()
		replay = map[int]map[int]cluster.UnitOutcome{}
	}

	log, err := framelog.Heal(path, raw, valid)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: heal checkpoint %s: %w", path, err)
	}
	return &checkpoint{
		path: path,
		log:  log,
		recs: telemetry.Active().Counter(telemetry.MDistCheckpointRecs),
	}, replay, nil
}

// outcome converts a journaled record back into a unit outcome.
func (rec checkpointRecord) outcome() (cluster.UnitOutcome, error) {
	if rec.Drained {
		return cluster.UnitOutcome{Drained: true, DrainAt: rec.DrainAt}, nil
	}
	run, err := DecodeRun(rec.RunGob)
	if err != nil {
		return cluster.UnitOutcome{}, err
	}
	return cluster.UnitOutcome{Run: run}, nil
}

// append journals one completed outcome and fsyncs before returning, so a
// record the driver has seen can never be lost to a crash.
func (cp *checkpoint) append(round, unit int, out cluster.UnitOutcome) error {
	rec := checkpointRecord{Round: round, Unit: unit, Drained: out.Drained, DrainAt: out.DrainAt}
	if !out.Drained {
		blob, err := EncodeRun(out.Run)
		if err != nil {
			return err
		}
		rec.RunGob = blob
	}
	if err := cp.log.Append(rec); err != nil {
		return fmt.Errorf("dist: append checkpoint: %w", err)
	}
	cp.recs.Add(1)
	return nil
}

// close closes the journal, keeping the file for a future resume.
func (cp *checkpoint) close() error { return cp.log.Close() }

// remove closes and deletes the journal — called when the campaign
// completes and the spill file has served its purpose.
func (cp *checkpoint) remove() error {
	cp.log.Close()
	if err := os.Remove(cp.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}
