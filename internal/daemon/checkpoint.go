package daemon

import (
	"bytes"
	"fmt"
	"os"

	"dragonvar/internal/framelog"
)

// Pin the checkpoint wire types' gob ids (see framelog.PinGob), so record
// bytes don't depend on whether this process resumed or started fresh.
func init() { framelog.PinGob(checkpointHeader{}, progress{}) }

// The daemon checkpoint is a framelog file. The first frame is a header
// binding the file to a config identity digest; every frame after it is
// one progress record, and the last valid record wins. A torn tail (the
// bytes a crash left behind mid-append) is healed on open; a damaged
// header is refused.

const checkpointVersion = 1

// progress is one checkpoint record: everything the daemon needs to
// continue exactly where it stopped. Every field is a pure function of
// the run so far — no wall-clock, no pointers — so an interrupted and an
// uninterrupted daemon write identical record sequences.
type progress struct {
	// Epoch is the epoch currently (or next) being simulated; RunsBefore
	// is the stream's TotalRuns when that epoch started. Their difference
	// from the live stream total is the resume skip count.
	Epoch      int
	RunsBefore int64

	// Sealed counts window-seal events fully processed (drift evaluated,
	// record appended). The stream's own SealedSegments may be ahead of
	// it after a crash; reconcile() replays the difference.
	Sealed int

	// Retraining state. LastRetrainSeal is the Sealed value at the last
	// completed retrain; DriftPending latches a drift breach until the
	// retrain it triggers completes.
	Retrains        int
	DriftRetrains   int
	LastRetrainSeal int
	DriftPending    bool

	// TrainMAPE is the serving forecaster's MAPE on its own training
	// windows; LiveMAPEs is the rolling per-segment forecast MAPE window
	// the drift detector compares against it.
	TrainMAPE float64
	LiveMAPEs []float64

	// RefForecast/RefDeviation/RefAdvisor are the object IDs this daemon
	// last published under its store refs — the compare-and-swap expect
	// values for the next publish.
	RefForecast  string
	RefDeviation string
	RefAdvisor   string

	// Published is the full publish log, re-rendered to published.json
	// after every retrain. Kept in the record so the file is a pure
	// function of checkpointed state.
	Published []publication
}

// publication is one entry of the publish log.
type publication struct {
	Retrain   int     `json:"retrain"`
	Seal      int     `json:"seal"`
	Reason    string  `json:"reason"` // "scheduled" or "drift"
	TrainMAPE float64 `json:"train_mape"`
	Windows   int     `json:"windows"`
	Forecast  string  `json:"forecast"`
	Deviation string  `json:"deviation"`
	Advisor   string  `json:"advisor"`
}

type checkpointHeader struct {
	Version int
	Digest  string // StreamMeta-style config identity digest
}

// checkpoint is the open checkpoint file, positioned for appends.
type checkpoint struct {
	log *framelog.Log
}

// openCheckpoint opens (or creates) the checkpoint at path, validates its
// identity digest, heals any torn tail, and returns the last recorded
// progress. A fresh checkpoint returns the zero progress.
func openCheckpoint(path, digest string) (*checkpoint, progress, error) {
	var last progress
	raw, err := os.ReadFile(path)
	onDisk := raw // nil when there is no file yet
	switch {
	case os.IsNotExist(err):
		var buf bytes.Buffer
		if err := framelog.Encode(&buf, checkpointHeader{Version: checkpointVersion, Digest: digest}); err != nil {
			return nil, last, fmt.Errorf("daemon: checkpoint header: %w", err)
		}
		raw = buf.Bytes()
	case err != nil:
		return nil, last, fmt.Errorf("daemon: checkpoint read: %w", err)
	}

	frames, valid := framelog.Parse(raw)
	if len(frames) == 0 {
		return nil, last, fmt.Errorf("daemon: checkpoint %s: no valid header frame", path)
	}
	var hdr checkpointHeader
	if err := framelog.Decode(frames[0], &hdr); err != nil {
		return nil, last, fmt.Errorf("daemon: checkpoint header: %w", err)
	}
	if hdr.Version != checkpointVersion {
		return nil, last, fmt.Errorf("daemon: checkpoint %s: version %d, want %d", path, hdr.Version, checkpointVersion)
	}
	if hdr.Digest != digest {
		return nil, last, fmt.Errorf("daemon: checkpoint %s was written by a different configuration (digest %s, want %s)", path, hdr.Digest, digest)
	}
	for _, fr := range frames[1:] {
		var p progress
		if err := framelog.Decode(fr, &p); err != nil {
			return nil, last, fmt.Errorf("daemon: checkpoint record: %w", err)
		}
		last = p
	}
	// Create a fresh file, or cut a torn tail from a crash mid-append back
	// to the valid prefix, before anything is appended.
	log, err := framelog.Heal(path, onDisk, raw[:valid])
	if err != nil {
		return nil, last, fmt.Errorf("daemon: checkpoint: %w", err)
	}
	return &checkpoint{log: log}, last, nil
}

// append durably records one progress frame. The fsync is the commit
// point: once append returns, a resume sees this record (or a later one).
func (c *checkpoint) append(p progress) error {
	if err := c.log.Append(p); err != nil {
		return fmt.Errorf("daemon: checkpoint: %w", err)
	}
	return nil
}

func (c *checkpoint) Close() error {
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}
