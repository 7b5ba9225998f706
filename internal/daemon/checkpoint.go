package daemon

import (
	"fmt"

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

// openCheckpoint opens (or creates) the checkpoint at path, bound to the
// identity digest, and returns it positioned for appends together with the
// last recorded progress. A fresh checkpoint returns the zero progress.
// Each append (framelog.Log.Append) is fsynced: once it returns, a resume
// sees that record or a later one.
func openCheckpoint(path, digest string) (*framelog.Log, progress, error) {
	want := checkpointHeader{Version: checkpointVersion, Digest: digest}
	var last progress
	log, err := framelog.Open(path, want,
		func(hdr checkpointHeader) error {
			if hdr != want {
				return fmt.Errorf("written by a different configuration (version %d digest %s, want version %d digest %s)",
					hdr.Version, hdr.Digest, want.Version, want.Digest)
			}
			return nil
		},
		func(p progress) error {
			last = p
			return nil
		})
	if err != nil {
		return nil, progress{}, fmt.Errorf("daemon: checkpoint: %w", err)
	}
	return log, last, nil
}
