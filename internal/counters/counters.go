// Package counters implements the Aries network hardware performance
// counters of Table II of the paper, the per-router counter boards the
// network simulator accumulates into, the AriesNCL-style per-job collection
// (counters may only be read for routers directly connected to a job's
// nodes), and the LDMS-style system-wide sampling that produces the "io"
// and "sys" features of §V-C.
package counters

import (
	"fmt"
	"math"
	"strings"

	"dragonvar/internal/topology"
)

// Missing returns the explicit missing-sample marker recorded when the
// counter samplers were in a dropout window: NaN, which is never produced
// by a healthy read (counters are finite and non-negative) and which the
// gap-tolerant analysis code in internal/dataset detects with IsMissing.
// A missing observation must never be confused with a zero delta.
func Missing() float64 { return math.NaN() }

// IsMissing reports whether a recorded value is the missing-sample marker.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Index identifies one of the 13 job-visible hardware counters, in the
// order of Table II (which is also the feature order of Figures 9 and 11).
type Index int

const (
	// RTFlitTot is AR_RTR_INQ_PRF_INCOMING_FLIT_TOTAL (derived): total
	// number of flits received on the router tiles.
	RTFlitTot Index = iota
	// RTPktTot is AR_RTR_INQ_PRF_INCOMING_PKT_TOTAL (derived): total number
	// of packets received on the router tiles.
	RTPktTot
	// RTRB2xUsg is AR_RTR_INQ_PRF_ROWBUS_2X_USAGE_CNT: cycles in which two
	// stalls occur on a router tile.
	RTRB2xUsg
	// RTRBStl is AR_RTR_INQ_PRF_ROWBUS_STALL_CNT: total cycles stalled on
	// router tiles.
	RTRBStl
	// PTCBStlRq is AR_RTR_PT_COLBUF_PERF_STALL_RQ: cycles a processor tile
	// is stalled for request VCs.
	PTCBStlRq
	// PTCBStlRs is AR_RTR_PT_COLBUF_PERF_STALL_RS: cycles a processor tile
	// is stalled for response VCs.
	PTCBStlRs
	// PTFlitVC0 is AR_RTR_PT_INQ_PRF_INCOMING_FLIT_VC0: flits received on
	// processor tiles on VC0 (requests).
	PTFlitVC0
	// PTFlitVC4 is AR_RTR_PT_INQ_PRF_INCOMING_FLIT_VC4: flits received on
	// processor tiles on VC4 (responses).
	PTFlitVC4
	// PTFlitTot is AR_RTR_PT_INQ_PRF_INCOMING_FLIT_TOTAL (derived): total
	// flits received on processor tiles.
	PTFlitTot
	// PTPktTot is AR_RTR_PT_INQ_PRF_INCOMING_PKT_TOTAL (derived):
	// PT_RB_STL_RQ + PT_RB_STL_RS per Table II's derivation.
	PTPktTot
	// PTRBStlRq is AR_RTR_PT_INQ_PRF_REQ_ROWBUS_STALL_CNT: cycles stalled
	// on processor-tile request VCs.
	PTRBStlRq
	// PTRB2xUsg is AR_RTR_PT_INQ_PRF_ROWBUS_2X_USAGE_CNT: cycles in which
	// two stalls occur on a processor tile.
	PTRB2xUsg
	// PTRBStlRs is AR_RTR_PT_INQ_PRF_RSP_ROWBUS_STALL_CNT: cycles stalled
	// on processor-tile response VCs.
	PTRBStlRs

	// NumJob is the number of job-visible counters.
	NumJob int = iota
)

// Info describes one Table II row.
type Info struct {
	Abbrev      string // short name used throughout the paper's figures
	AriesName   string // full hardware counter name
	Derived     bool   // derived from raw counters rather than read directly
	Description string
}

// Table is the Table II registry, indexed by Index.
var Table = [NumJob]Info{
	RTFlitTot: {"RT_FLIT_TOT", "AR_RTR_INQ_PRF_INCOMING_FLIT_TOTAL", true, "Total number of flits received on router tile"},
	RTPktTot:  {"RT_PKT_TOT", "AR_RTR_INQ_PRF_INCOMING_PKT_TOTAL", true, "Total number of packets received on router tile"},
	RTRB2xUsg: {"RT_RB_2X_USG", "AR_RTR_INQ_PRF_ROWBUS_2X_USAGE_CNT", false, "Number of cycles in which two stalls occur on a router tile"},
	RTRBStl:   {"RT_RB_STL", "AR_RTR_INQ_PRF_ROWBUS_STALL_CNT", false, "Total number of cycles stalled on router tile"},
	PTCBStlRq: {"PT_CB_STL_RQ", "AR_RTR_PT_COLBUF_PERF_STALL_RQ", false, "Number of cycles a processor tile is stalled for request VCs"},
	PTCBStlRs: {"PT_CB_STL_RS", "AR_RTR_PT_COLBUF_PERF_STALL_RS", false, "Number of cycles a processor tile is stalled for response VCs"},
	PTFlitVC0: {"PT_FLIT_VC0", "AR_RTR_PT_INQ_PRF_INCOMING_FLIT_VC0", false, "Number of flits received on processor tile on VC0"},
	PTFlitVC4: {"PT_FLIT_VC4", "AR_RTR_PT_INQ_PRF_INCOMING_FLIT_VC4", false, "Number of flits received on processor tile on VC4"},
	PTFlitTot: {"PT_FLIT_TOT", "AR_RTR_PT_INQ_PRF_INCOMING_FLIT_TOTAL", true, "Total number of flits received on processor tile"},
	PTPktTot:  {"PT_PKT_TOT", "AR_RTR_PT_INQ_PRF_INCOMING_PKT_TOTAL", true, "PT_RB_STL_RQ + PT_RB_STL_RS"},
	PTRBStlRq: {"PT_RB_STL_RQ", "AR_RTR_PT_INQ_PRF_REQ_ROWBUS_STALL_CNT", false, "Number of cycles stalled on processor tile request VCs"},
	PTRB2xUsg: {"PT_RB_2X_USG", "AR_RTR_PT_INQ_PRF_ROWBUS_2X_USAGE_CNT", false, "Number of cycles in which two stalls occur on a processor tile"},
	PTRBStlRs: {"PT_RB_STL_RS", "AR_RTR_PT_INQ_PRF_RSP_ROWBUS_STALL_CNT", false, "Number of cycles stalled on processor tile response VCs"},
}

// String returns the paper abbreviation of the counter.
func (i Index) String() string {
	if i < 0 || int(i) >= NumJob {
		return fmt.Sprintf("Index(%d)", int(i))
	}
	return Table[i].Abbrev
}

// RouterCounters is the counter bank of one Aries router.
type RouterCounters [NumJob]float64

// Board holds cumulative counters for every router of a machine, the way
// the hardware exposes them: monotonically increasing since boot. Consumers
// read deltas between snapshots, exactly like AriesNCL does per time step.
//
// Storage is one flat arena, router-major: router r's bank occupies
// Data[r*NumJob : (r+1)*NumJob]. Bulk operations (Reset, SnapshotInto,
// DeltaInto) are single passes over the arena, and At hands the simulator a
// dense *RouterCounters view without copying.
type Board struct {
	Data []float64
}

// NewBoard allocates a zeroed board for n routers.
func NewBoard(n int) *Board {
	return &Board{Data: make([]float64, n*NumJob)}
}

// NumRouters returns the number of router banks on the board.
func (b *Board) NumRouters() int { return len(b.Data) / NumJob }

// At returns router r's counter bank as a dense array view into the arena.
func (b *Board) At(r topology.RouterID) *RouterCounters {
	return (*RouterCounters)(b.Data[int(r)*NumJob : int(r)*NumJob+NumJob])
}

// Reset zeroes every counter, as if the routers had just booted. The
// campaign resets the board before each simulated run: deltas of cumulative
// floats are not exact ((X+a)-X ≠ a in floating point), so starting every
// run from zero is what makes its recorded deltas independent of whichever
// runs the same Network simulated before it.
func (b *Board) Reset() {
	clear(b.Data)
}

// Add accumulates v into counter c of router r.
func (b *Board) Add(r topology.RouterID, c Index, v float64) {
	b.Data[int(r)*NumJob+int(c)] += v
}

// Get returns the cumulative value of counter c at router r.
func (b *Board) Get(r topology.RouterID, c Index) float64 {
	return b.Data[int(r)*NumJob+int(c)]
}

// Snapshot returns a deep copy of the board, for later delta computation.
func (b *Board) Snapshot() *Board {
	out := NewBoard(b.NumRouters())
	copy(out.Data, b.Data)
	return out
}

// SnapshotInto copies the board into dst, reusing dst's storage (resized
// if needed). Lets per-step callers avoid an allocation per snapshot.
func (b *Board) SnapshotInto(dst *Board) {
	if len(dst.Data) != len(b.Data) {
		dst.Data = make([]float64, len(b.Data))
	}
	copy(dst.Data, b.Data)
}

// DeltaSum returns, for each counter, the total increase over the given
// routers since the snapshot: the per-step per-job counter vector that
// AriesNCL yields (only routers directly connected to the job's nodes may
// be read, §III-C).
func (b *Board) DeltaSum(since *Board, routers []topology.RouterID) RouterCounters {
	var out RouterCounters
	for _, r := range routers {
		base := int(r) * NumJob
		cur := b.Data[base : base+NumJob]
		old := since.Data[base : base+NumJob]
		for c := 0; c < NumJob; c++ {
			out[c] += cur[c] - old[c]
		}
	}
	return out
}

// LDMSFeature identifies the four counters the LDMS-derived io/sys feature
// groups expose (§V-C): RT flit totals, RT stalls, PT flit totals, and PT
// packet totals, aggregated over I/O routers ("io") or over all routers
// disjoint from the job ("sys").
type LDMSFeature int

const (
	LDMSRTFlitTot LDMSFeature = iota
	LDMSRTRBStl
	LDMSPTFlitTot
	LDMSPTPktTot

	// NumLDMS is the number of LDMS-derived features per group.
	NumLDMS int = iota
)

// ldmsSource maps each LDMS feature to the underlying router counter.
var ldmsSource = [NumLDMS]Index{
	LDMSRTFlitTot: RTFlitTot,
	LDMSRTRBStl:   RTRBStl,
	LDMSPTFlitTot: PTFlitTot,
	LDMSPTPktTot:  PTPktTot,
}

// LDMSNames returns the feature names with the given prefix ("IO" or
// "SYS"), matching Figure 11's axis labels.
func LDMSNames(prefix string) []string {
	out := make([]string, NumLDMS)
	for i := 0; i < NumLDMS; i++ {
		out[i] = prefix + "_" + Table[ldmsSource[i]].Abbrev
	}
	return out
}

// LDMSSample aggregates the LDMS feature deltas since the snapshot over
// the given routers (callers pass the machine's I/O routers for "io" and
// the complement of the job's routers for "sys").
func (b *Board) LDMSSample(since *Board, routers []topology.RouterID) [NumLDMS]float64 {
	var out [NumLDMS]float64
	for _, r := range routers {
		base := int(r) * NumJob
		cur := b.Data[base : base+NumJob]
		old := since.Data[base : base+NumJob]
		for i := 0; i < NumLDMS; i++ {
			c := ldmsSource[i]
			out[i] += cur[c] - old[c]
		}
	}
	return out
}

// SampleInto fills dst with the cumulative value of each source counter at
// every router, laid out row-major (router-major): dst[r*len(sources)+k] =
// counter sources[k] at router r. dst must have NumRouters()*len(sources)
// elements. This is the wire layout of a DFLDMS sample row.
func (b *Board) SampleInto(sources []Index, dst []float64) {
	k := len(sources)
	nr := b.NumRouters()
	for r := 0; r < nr; r++ {
		rc := b.Data[r*NumJob : r*NumJob+NumJob]
		for i, src := range sources {
			dst[r*k+i] = rc[src]
		}
	}
}

// DeltaInto fills dst with the per-router increase of each source counter
// since the snapshot, in the same router-major layout as SampleInto. dst
// must have NumRouters()*len(sources) elements.
func (b *Board) DeltaInto(since *Board, sources []Index, dst []float64) {
	k := len(sources)
	nr := b.NumRouters()
	for r := 0; r < nr; r++ {
		cur := b.Data[r*NumJob : r*NumJob+NumJob]
		old := since.Data[r*NumJob : r*NumJob+NumJob]
		for i, src := range sources {
			dst[r*k+i] = cur[src] - old[src]
		}
	}
}

// FeatureSet selects which feature groups a model sees, mirroring the
// ablations of §V-C: the job's own counters are always present; placement,
// io, and sys features are optional extras.
type FeatureSet struct {
	Placement bool // NUM_ROUTERS, NUM_GROUPS
	IO        bool // LDMS features over I/O routers
	Sys       bool // LDMS features over routers disjoint from the job
}

// String names the feature set the way the paper's legends do.
func (f FeatureSet) String() string {
	s := "app"
	if f.Placement {
		s += " + placement"
	}
	if f.IO {
		s += " + io"
	}
	if f.Sys {
		s += " + sys"
	}
	return s
}

// ParseFeatureSet parses the CLIs' -features grammar: feature group names
// separated by commas, '+' or spaces, e.g. "placement,io" or
// "app + sys". "app" is accepted and always on; "" is app only.
func ParseFeatureSet(s string) (FeatureSet, error) {
	var f FeatureSet
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '+' || r == ' ' }) {
		switch tok {
		case "app":
		case "placement":
			f.Placement = true
		case "io":
			f.IO = true
		case "sys":
			f.Sys = true
		default:
			return FeatureSet{}, fmt.Errorf("unknown feature group %q (want placement, io, sys)", tok)
		}
	}
	return f, nil
}

// Names returns the feature names of the set, in model column order:
// the 13 Table II counters, then NUM_ROUTERS/NUM_GROUPS, then IO_*, then
// SYS_* — the exact order of Figure 11's right plot.
func (f FeatureSet) Names() []string {
	out := make([]string, 0, NumJob+2+2*NumLDMS)
	for i := 0; i < NumJob; i++ {
		out = append(out, Table[i].Abbrev)
	}
	if f.Placement {
		out = append(out, "NUM_ROUTERS", "NUM_GROUPS")
	}
	if f.IO {
		out = append(out, LDMSNames("IO")...)
	}
	if f.Sys {
		out = append(out, LDMSNames("SYS")...)
	}
	return out
}

// Count returns the number of feature columns in the set.
func (f FeatureSet) Count() int {
	n := NumJob
	if f.Placement {
		n += 2
	}
	if f.IO {
		n += NumLDMS
	}
	if f.Sys {
		n += NumLDMS
	}
	return n
}
