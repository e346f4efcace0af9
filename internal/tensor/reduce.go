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

// Mean returns the arithmetic mean of all elements; 0 for an empty tensor.
func (t *Dense[T]) Mean() T {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / T(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Dense[T]) Max() T {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on an empty tensor.
func (t *Dense[T]) Min() T {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the first maximal element of a 1-D tensor.
func (t *Dense[T]) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
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

// SumAxis1 returns the row sums of a matrix as a 1-D tensor of length rows.
func SumAxis1(m *Tensor) *Tensor {
	m.must2D("SumAxis1")
	r, c := m.shape[0], m.shape[1]
	out := New(r)
	bk := kernels.Active()
	forRows(r, c, func(lo, hi int) {
		bk.SumAxis1(m.data, out.data, c, lo, hi)
	})
	countOps(r * c)
	return out
}

// forRows runs worker over disjoint row ranges of an (r×c) matrix, fanning
// out when the matrix clears the elementwise cutoff. Each row is handled
// by exactly one worker with the sequential per-row accumulation order, so
// results are bit-identical to the sequential loop.
func forRows(r, c int, worker func(lo, hi int)) {
	if r*c >= elemwiseParallelLen && r > 1 {
		grain := elemwiseParallelLen / (2 * c)
		if grain < 1 {
			grain = 1
		}
		parallel.For(r, grain, worker)
	} else {
		worker(0, r)
	}
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

// ArgMaxRows returns, for each row of a matrix, the index of its maximal
// column.
func ArgMaxRows(m *Tensor) []int {
	m.must2D("ArgMaxRows")
	r, c := m.shape[0], m.shape[1]
	if c == 0 {
		panic("tensor: ArgMaxRows with zero columns")
	}
	out := make([]int, r)
	for i := 0; i < r; i++ {
		row := m.data[i*c : (i+1)*c]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[i] = bi
	}
	return out
}

// SoftmaxRows returns the row-wise softmax of a matrix, computed with the
// usual max-shift for numerical stability. The exponential is evaluated
// at float64 and rounded to T; everything else runs at T.
func SoftmaxRows[T Float](m *Dense[T]) *Dense[T] {
	m.must2D("SoftmaxRows")
	r, c := m.shape[0], m.shape[1]
	out := NewOf[T](r, c)
	forRows(r, c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.data[i*c : (i+1)*c]
			orow := out.data[i*c : (i+1)*c]
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
	})
	countOps(5 * r * c)
	return out
}

// LogSumExpRows returns the row-wise log-sum-exp of a matrix as a 1-D
// tensor.
func LogSumExpRows(m *Tensor) *Tensor {
	m.must2D("LogSumExpRows")
	r, c := m.shape[0], m.shape[1]
	out := New(r)
	forRows(r, c, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.data[i*c : (i+1)*c]
			mx := row[0]
			for _, v := range row[1:] {
				if v > mx {
					mx = v
				}
			}
			s := 0.0
			for _, v := range row {
				s += math.Exp(v - mx)
			}
			out.data[i] = mx + math.Log(s)
		}
	})
	countOps(4 * r * c)
	return out
}
