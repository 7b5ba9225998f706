package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set roundtrip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("fresh matrix not zeroed")
	}
}

func TestFromRowsAndRow(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	// Row aliases storage
	r[0] = 30
	if m.At(1, 0) != 30 {
		t.Fatal("Row should alias matrix storage")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCol(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(1, nil)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1) = %v", c)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	y := m.MatVec([]float64{1, 1}, nil)
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MatVec = %v", y)
	}
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b, nil)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("MatMul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulTransposeProperty(t *testing.T) {
	// (AB)ᵀ == BᵀAᵀ for random small matrices
	f := func(vals [6]float64, vals2 [6]float64) bool {
		// clamp to a sane range so products cannot overflow to ±Inf
		for i := range vals {
			vals[i] = math.Mod(vals[i], 1e3)
			vals2[i] = math.Mod(vals2[i], 1e3)
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
			if math.IsNaN(vals2[i]) {
				vals2[i] = 0
			}
		}
		a := &Matrix{Rows: 2, Cols: 3, Data: vals[:]}
		b := &Matrix{Rows: 3, Cols: 2, Data: vals2[:]}
		left := MatMul(a, b, nil).T()
		right := MatMul(b.T(), a.T(), nil)
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDotAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy result = %v", y)
	}
}

func TestNorm2(t *testing.T) {
	if !almostEq(Norm2([]float64{3, 4}), 5) {
		t.Fatal("Norm2 of 3-4-5 triangle wrong")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	x := []float64{1, 2, 3}
	s := Softmax(x, nil)
	var sum float64
	for _, v := range s {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax element out of (0,1): %v", v)
		}
		sum += v
	}
	if !almostEq(sum, 1) {
		t.Fatalf("softmax does not sum to 1: %v", sum)
	}
	if !(s[2] > s[1] && s[1] > s[0]) {
		t.Fatal("softmax not monotone in input")
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(a, b, c, shift float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(shift) {
			return true
		}
		// constrain magnitudes to avoid overflow-driven NaN comparisons
		clamp := func(v float64) float64 { return math.Mod(v, 50) }
		a, b, c, shift = clamp(a), clamp(b), clamp(c), clamp(shift)
		s1 := Softmax([]float64{a, b, c}, nil)
		s2 := Softmax([]float64{a + shift, b + shift, c + shift}, nil)
		for i := range s1 {
			if math.Abs(s1[i]-s2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	s := Softmax([]float64{1000, 1001, 1002}, nil)
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax unstable for large inputs: %v", s)
		}
	}
}

func TestScaleAndFill(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Scale(2)
	if m.At(1, 1) != 8 {
		t.Fatal("Scale failed")
	}
	m.Fill(7)
	for _, v := range m.Data {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
}

func TestMatVecDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	NewMatrix(2, 3).MatVec([]float64{1, 2}, nil)
}
