// Package linalg provides the small dense linear-algebra kernels used by the
// machine-learning stack (gradient boosted trees, the attention forecaster)
// and by the statistics helpers. Matrices are dense, row-major float64.
//
// The package deliberately implements only what the repository needs; it is
// not a general BLAS. All routines are allocation-conscious: the hot paths
// (MatVec, MatMul, Axpy) write into caller-provided destinations.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying data.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), c))
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into dst (allocated if nil) and returns it.
func (m *Matrix) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// MatVec computes dst = m * x. dst must have length m.Rows (allocated if
// nil) and must not alias x.
func (m *Matrix) MatVec(x, dst []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MatVec dim mismatch: x has %d, want %d", len(x), m.Cols))
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MatMul computes dst = a * b; dst is allocated if nil and must not alias
// a or b.
func MatMul(a, b, dst *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul shape mismatch: %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil {
		dst = NewMatrix(a.Rows, b.Cols)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Cols {
			panic("linalg: MatMul dst shape mismatch")
		}
		dst.Fill(0)
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return dst
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Softmax writes the softmax of x into dst (allocated if nil) using the
// max-subtraction trick for numerical stability.
func Softmax(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	if len(x) == 0 {
		return dst
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(v - m)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}
