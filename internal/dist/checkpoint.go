package dist

import (
	"errors"
	"fmt"
	"os"

	"dragonvar/internal/cluster"
	"dragonvar/internal/framelog"
)

// The checkpoint is the coordinator's crash armor: every completed unit
// outcome is appended to a spill file before it is surrendered to the
// campaign driver, so a coordinator killed mid-campaign resumes from where
// it died instead of re-running finished units — and, because unit results
// are deterministic, resumes byte-identically.
//
// Layout: a framelog file — a header frame identifying the campaign (plan
// digest + unit count), then one frame per completed unit outcome, opened
// by framelog.Open. A torn tail, the only damage a crash leaves, is cut
// back to the valid prefix. A damaged header is refused, with the file
// left as it is, rather than treated as fresh: a silent rewrite would
// discard every completed unit. A header for a different campaign is
// refused too, not silently restarted.

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
}

// openCheckpoint opens (or creates) the journal at path, bound to the
// campaign identity, and returns the replayable outcomes keyed by round
// then unit. A torn tail is dropped and the file healed in place; a file
// whose header is damaged or names a different campaign, or that holds a
// record which does not decode or names a unit out of range, is an error.
func openCheckpoint(path, planDigest string, numUnits int) (*checkpoint, map[int]map[int]cluster.UnitOutcome, error) {
	want := checkpointHeader{Version: 1, PlanDigest: planDigest, NumUnits: numUnits}
	replay := map[int]map[int]cluster.UnitOutcome{}
	log, err := framelog.Open(path, want,
		func(hdr checkpointHeader) error {
			if hdr != want {
				return fmt.Errorf("belongs to a different campaign (digest %.12s…, %d units; want %.12s…, %d units)",
					hdr.PlanDigest, hdr.NumUnits, want.PlanDigest, want.NumUnits)
			}
			return nil
		},
		func(rec checkpointRecord) error {
			if rec.Unit < 0 || rec.Unit >= numUnits {
				return fmt.Errorf("unit %d out of range [0, %d)", rec.Unit, numUnits)
			}
			out, err := rec.outcome()
			if err != nil {
				return err
			}
			if replay[rec.Round] == nil {
				replay[rec.Round] = map[int]cluster.UnitOutcome{}
			}
			replay[rec.Round][rec.Unit] = out
			return nil
		})
	if err != nil {
		return nil, nil, fmt.Errorf("dist: checkpoint: %w", err)
	}
	return &checkpoint{path: path, log: log}, replay, nil
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
