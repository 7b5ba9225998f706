// Package traceio implements a compact binary log for system-wide counter
// samples — the stand-in for the LDMS monitoring pipeline of §III-C, which
// on Cori sampled every router once per second and produced on the order
// of 5 TB per day. Samples are stored as varint-encoded deltas against the
// previous sample, which compresses monotonically increasing hardware
// counters by an order of magnitude compared to raw float64 dumps.
//
// The current format (version 2):
//
//	magic "DFLDMS2\n"
//	uvarint numSeries
//	repeated samples:
//	    uvarint dtMillis   (against the previous sample; first is absolute)
//	    flags byte         (bit 0: missing sample — sampler was down)
//	    if not missing:
//	        numSeries × varint delta of the quantized (rounded) value
//
// A missing sample carries only its timestamp: the monitor knew the wall
// clock but lost the counter reads (a sampler dropout, §"Fault model" in
// DESIGN.md). Readers surface it as a row of NaN plus the Missing flag.
//
// A Writer and Reader pair round-trips any series whose values fit int64
// after rounding; hardware counters do.
package traceio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

const (
	magic = "DFLDMS2\n"

	// flagMissing marks a sample whose counter values were lost; all other
	// flag bits are reserved and must be zero.
	flagMissing = 1 << 0

	// maxSeries bounds the header series count. A full Cori-scale machine
	// is ~12k routers × 4 series ≈ 5·10⁴; anything near the cap is a
	// corrupt or hostile header, and rejecting it early keeps Reader from
	// allocating gigabytes off four bytes of input.
	maxSeries = 1 << 20
)

// Writer streams samples to an underlying writer.
type Writer struct {
	w         *bufio.Writer
	numSeries int
	prev      []int64
	prevMs    uint64
	started   bool
	buf       []byte
}

// NewWriter writes the header and returns a writer for numSeries parallel
// counter series.
func NewWriter(w io.Writer, numSeries int) (*Writer, error) {
	if numSeries <= 0 {
		return nil, fmt.Errorf("traceio: numSeries must be positive")
	}
	if numSeries > maxSeries {
		return nil, fmt.Errorf("traceio: numSeries %d exceeds the format cap %d", numSeries, maxSeries)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(numSeries))
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, err
	}
	return &Writer{
		w:         bw,
		numSeries: numSeries,
		prev:      make([]int64, numSeries),
		buf:       make([]byte, binary.MaxVarintLen64),
	}, nil
}

// writeStamp encodes the timestamp delta and flags byte shared by both
// sample kinds.
func (w *Writer) writeStamp(t float64, flags byte) error {
	ms := uint64(math.Round(t * 1000))
	var dt uint64
	if w.started {
		if ms < w.prevMs {
			return fmt.Errorf("traceio: timestamps must be non-decreasing (%d after %d)", ms, w.prevMs)
		}
		dt = ms - w.prevMs
	} else {
		dt = ms
		w.started = true
	}
	w.prevMs = ms
	n := binary.PutUvarint(w.buf, dt)
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	return w.w.WriteByte(flags)
}

// WriteSample appends one sample at time t (seconds). len(values) must be
// numSeries and every value finite — a sampler outage is recorded with
// WriteMissing, never as NaN values. Timestamps must be non-decreasing.
func (w *Writer) WriteSample(t float64, values []float64) error {
	if len(values) != w.numSeries {
		return fmt.Errorf("traceio: sample has %d series, want %d", len(values), w.numSeries)
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("traceio: series %d is %v at t=%v; record sampler outages with WriteMissing, not non-finite values", i, v, t)
		}
	}
	if err := w.writeStamp(t, 0); err != nil {
		return err
	}
	for i, v := range values {
		q := int64(math.Round(v))
		delta := q - w.prev[i]
		w.prev[i] = q
		n := binary.PutVarint(w.buf, delta)
		if _, err := w.w.Write(w.buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// WriteMissing appends a missing-sample marker at time t: the sampler was
// in a dropout window and recorded no counter values. The delta baseline is
// unchanged, so the first healthy sample after the gap still round-trips.
func (w *Writer) WriteMissing(t float64) error {
	return w.writeStamp(t, flagMissing)
}

// Flush pushes buffered bytes to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader iterates a log produced by Writer.
type Reader struct {
	r         *bufio.Reader
	numSeries int
	prev      []int64
	prevMs    uint64
	started   bool
	missing   bool
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("traceio: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("traceio: bad magic — not a DFLDMS log")
	}
	ns, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("traceio: reading series count: %w", err)
	}
	if ns == 0 || ns > maxSeries {
		return nil, fmt.Errorf("traceio: implausible series count %d", ns)
	}
	return &Reader{r: br, numSeries: int(ns), prev: make([]int64, ns)}, nil
}

// NumSeries returns the number of parallel series in the log.
func (r *Reader) NumSeries() int { return r.numSeries }

// Missing reports whether the sample most recently returned by Next was a
// missing-sample marker (its values are all NaN).
func (r *Reader) Missing() bool { return r.missing }

// Next returns the next sample, filling dst (allocated when nil) with the
// reconstructed absolute values. For a missing-sample marker the values are
// all NaN and Missing() reports true until the following Next call.
// Returns io.EOF cleanly at end of log.
func (r *Reader) Next(dst []float64) (t float64, values []float64, err error) {
	dt, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("traceio: reading timestamp: %w", err)
	}
	if r.started {
		r.prevMs += dt
	} else {
		r.prevMs = dt
		r.started = true
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("traceio: truncated sample: %w", err)
	}
	if flags&^flagMissing != 0 {
		return 0, nil, fmt.Errorf("traceio: unknown sample flags %#x (corrupt log?)", flags)
	}
	r.missing = flags&flagMissing != 0
	if dst == nil {
		dst = make([]float64, r.numSeries)
	}
	if len(dst) != r.numSeries {
		return 0, nil, fmt.Errorf("traceio: dst has %d series, want %d", len(dst), r.numSeries)
	}
	if r.missing {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return float64(r.prevMs) / 1000, dst, nil
	}
	for i := 0; i < r.numSeries; i++ {
		delta, err := binary.ReadVarint(r.r)
		if err != nil {
			// EOF mid-sample is corruption, not a clean end of log
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("traceio: truncated sample: %w", err)
		}
		r.prev[i] += delta
		dst[i] = float64(r.prev[i])
	}
	return float64(r.prevMs) / 1000, dst, nil
}

// ReadAll drains the log, returning timestamps and samples. Missing-sample
// markers appear as all-NaN rows.
func ReadAll(r io.Reader) (times []float64, samples [][]float64, err error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	for {
		t, v, err := rd.Next(nil)
		if errors.Is(err, io.EOF) {
			return times, samples, nil
		}
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		samples = append(samples, v)
	}
}
