package monitor

import (
	"math"
	"testing"
)

func TestStallFeedbackEWMA(t *testing.T) {
	f := NewStallFeedback(2)
	f.Accumulate(0, 50, 100)
	f.Accumulate(0, 10, 100) // same group twice in one round: deltas add
	f.Accumulate(1, 0, 100)
	f.Commit()
	if got := f.Ratio(0); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("first round sets the EWMA directly: got %v, want 0.3", got)
	}
	if f.Ratio(1) != 0 {
		t.Fatalf("unstalled group ratio = %v", f.Ratio(1))
	}
	f.Accumulate(0, 100, 100)
	f.Commit()
	// alpha 0.3: ewma = 0.3 + 0.3*(1.0-0.3) = 0.51
	if got := f.Ratio(0); math.Abs(got-0.51) > 1e-12 {
		t.Fatalf("EWMA update: got %v, want 0.51", got)
	}
	// a zero-flit round reads as ratio 0, decaying the EWMA:
	// 0.51 + 0.3*(0-0.51) = 0.357
	f.Commit()
	if got := f.Ratio(0); math.Abs(got-0.357) > 1e-12 {
		t.Fatalf("zero-flit round: got %v, want 0.357", got)
	}
	f.Reset()
	if f.Ratio(0) != 0 || f.Ratio(1) != 0 {
		t.Fatal("Reset left state behind")
	}
	f.Accumulate(0, 100, 100)
	f.Commit()
	if got := f.Ratio(0); got != 1 {
		t.Fatalf("post-Reset round must set directly again: got %v, want 1", got)
	}
	f.Accumulate(0, 0, 100)
	f.Commit()
	// 1.0 + 0.3*(0-1.0) = 0.7
	if got := f.Ratio(0); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("decay from 1: got %v, want 0.7", got)
	}
}

func TestStallFeedbackDefaultAlpha(t *testing.T) {
	f := NewStallFeedback(1)
	f.Accumulate(0, 100, 100)
	f.Commit()
	f.Accumulate(0, 0, 100)
	f.Commit()
	// the monitor's alpha 0.3: 1.0 + 0.3*(0-1.0) = 0.7
	if got := f.Ratio(0); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("default alpha: got %v, want 0.7", got)
	}
	if ewmaAlpha != 0.3 {
		t.Fatalf("ewmaAlpha = %v, want the monitor's default 0.3", ewmaAlpha)
	}
}

func TestCrossSectionHot(t *testing.T) {
	if hot := CrossSectionHot([]float64{1, 1, 1, 1}, 2); hot != nil {
		t.Fatalf("no spread should flag nothing, got %v", hot)
	}
	if hot := CrossSectionHot([]float64{1, 2}, 0.1); hot != nil {
		t.Fatalf("tiny populations should flag nothing, got %v", hot)
	}
	vals := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 10}
	hot := CrossSectionHot(vals, 2)
	if len(hot) != 1 || hot[0] != 9 {
		t.Fatalf("outlier detection: got %v, want [9]", hot)
	}
}
