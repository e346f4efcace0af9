package tensor

import (
	"math"

	"edgekg/internal/parallel"
	"edgekg/internal/tensor/kernels"
)

// Sum returns the sum of all elements.
func (t *Dense[T]) Sum() T {
	s := kernels.ActiveOf[T]().Sum(t.data)
	countOps(len(t.data))
	return s
}

// SumAxis0 returns the column sums of a matrix as a 1-D tensor of length
// cols.
func SumAxis0(m *Tensor) *Tensor {
	m.must2D("SumAxis0")
	r, c := m.shape[0], m.shape[1]
	out := New(c)
	kernels.Active().SumAxis0(m.data, out.data, r, c)
	countOps(r * c)
	return out
}

// MeanAxis0 returns the column means of a matrix.
func MeanAxis0(m *Tensor) *Tensor {
	m.must2D("MeanAxis0")
	if m.shape[0] == 0 {
		return New(m.shape[1])
	}
	return ScaleInPlace(SumAxis0(m), 1/float64(m.shape[0]))
}

// VarAxis0 returns the column variances (biased, matching BatchNorm) of a
// matrix.
func VarAxis0(m *Tensor) *Tensor {
	m.must2D("VarAxis0")
	r, c := m.shape[0], m.shape[1]
	if r == 0 {
		return New(c)
	}
	mean := MeanAxis0(m)
	out := New(c)
	for i := 0; i < r; i++ {
		row := m.data[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			d := row[j] - mean.data[j]
			out.data[j] += d * d
		}
	}
	for j := 0; j < c; j++ {
		out.data[j] /= float64(r)
	}
	countOps(3 * r * c)
	return out
}

// SoftmaxRows returns the row-wise softmax of a matrix, computed with the
// usual max-shift for numerical stability. The exponential is evaluated
// at float64 and rounded to T; everything else runs at T.
func SoftmaxRows[T Float](m *Dense[T]) *Dense[T] { return SoftmaxRowsIn(nil, m) }

// SoftmaxRowsIn is SoftmaxRows with the result lent from ws (see Alloc).
func SoftmaxRowsIn[T Float](ws *Workspace, m *Dense[T]) *Dense[T] {
	m.must2D("SoftmaxRows")
	r, c := m.shape[0], m.shape[1]
	out := Alloc[T](ws, r, c)
	grain := max(elemwiseParallelLen/(2*max(c, 1)), 1)
	if r*c < elemwiseParallelLen || parallel.Inline(r, grain) {
		softmaxRows(out.data, m.data, c, 0, r)
	} else {
		parallel.For(r, grain, func(lo, hi int) { softmaxRows(out.data, m.data, c, lo, hi) })
	}
	countOps(5 * r * c)
	return out
}

// softmaxRows writes the softmax of rows [lo, hi) of the c-column matrix
// md into od.
func softmaxRows[T Float](od, md []T, c, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := md[i*c : (i+1)*c]
		orow := od[i*c : (i+1)*c]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var s T
		for j, v := range row {
			e := T(math.Exp(float64(v - mx)))
			orow[j] = e
			s += e
		}
		inv := 1 / s
		for j := range orow {
			orow[j] *= inv
		}
	}
}
