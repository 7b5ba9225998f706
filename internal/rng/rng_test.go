package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams with different seeds agreed on %d/100 draws", same)
	}
}

func TestSplitOrderIndependent(t *testing.T) {
	p1 := New(7)
	c1 := p1.Split("netsim")
	v1 := c1.Float64()

	p2 := New(7)
	// consume the parent before splitting; child must be unaffected
	for i := 0; i < 50; i++ {
		p2.Float64()
	}
	c2 := p2.Split("netsim")
	if v2 := c2.Float64(); v2 != v1 {
		t.Fatalf("split not order-independent: %v vs %v", v1, v2)
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	p := New(7)
	a := p.Split("alpha")
	b := p.Split("beta")
	if a.Float64() == b.Float64() {
		t.Fatal("differently labeled splits produced identical first draw")
	}
}

func TestNewLabeledMatchesSplit(t *testing.T) {
	a := NewLabeled(9, "x")
	b := New(9).Split("x")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("NewLabeled disagrees with New().Split()")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(11)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("Normal std = %v, want ~2", std)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive value %v", v)
		}
	}
}

func TestAR1Stationarity(t *testing.T) {
	s := New(21)
	p := &AR1{Mean: 5, Std: 1, Rho: 0.9}
	n := 50000
	var w float64
	var sum, sumsq float64
	// burn-in
	for i := 0; i < 1000; i++ {
		p.Next(s)
	}
	for i := 0; i < n; i++ {
		w = p.Next(s)
		sum += w
		sumsq += w * w
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.15 {
		t.Errorf("AR1 mean = %v, want ~5", mean)
	}
	if math.Abs(std-1) > 0.15 {
		t.Errorf("AR1 std = %v, want ~1", std)
	}
}

func TestAR1NonNegative(t *testing.T) {
	s := New(23)
	p := &AR1{Mean: 0.1, Std: 1, Rho: 0.5}
	for i := 0; i < 5000; i++ {
		if v := p.Next(s); v < 0 {
			t.Fatalf("AR1 produced negative value %v", v)
		}
	}
}

func TestAR1Autocorrelation(t *testing.T) {
	s := New(29)
	p := &AR1{Mean: 0, Std: 1, Rho: 0.95}
	n := 20000
	prev := p.Next(s)
	var sxy, sxx float64
	for i := 0; i < n; i++ {
		cur := p.Next(s)
		sxy += prev * cur
		sxx += prev * prev
		prev = cur
	}
	rho := sxy / sxx
	if rho < 0.9 || rho > 1.0 {
		t.Errorf("lag-1 autocorrelation = %v, want ~0.95", rho)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		p := s.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixNonNegative(t *testing.T) {
	f := func(x uint64) bool { return mix(x) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(31)
	n := 50000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.25) > 0.02 {
		t.Errorf("Bool(0.25) frequency = %v", p)
	}
}
