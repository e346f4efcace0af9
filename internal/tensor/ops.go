package tensor

import (
	"fmt"
	"math"

	"edgekg/internal/parallel"
	"edgekg/internal/tensor/kernels"
)

// forElems runs worker over disjoint subranges covering [0, n), fanning
// out to the shared pool only above the elementwise cutoff. Each flat
// index is written by one worker, so results match the sequential loop.
func forElems(n int, worker func(lo, hi int)) {
	if elemsInline(n) {
		worker(0, n)
	} else {
		parallel.For(n, elemsGrain, worker)
	}
}

// elemsInline reports whether an n-element kernel runs on the caller's
// goroutine. The engine's ops test it and build a closure for
// parallel.For(n, elemsGrain, …) only when the work fans out.
func elemsInline(n int) bool { return n < elemwiseParallelLen || parallel.Inline(n, elemsGrain) }

const elemsGrain = elemwiseParallelLen / 2

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	a.mustSameShape(b, "Add")
	out := New(a.shape...)
	bk := kernels.Active()
	forElems(len(a.data), func(lo, hi int) {
		bk.Add(a.data[lo:hi], b.data[lo:hi], out.data[lo:hi])
	})
	countOps(len(a.data))
	return out
}

// Sub returns a - b elementwise. Shapes must match.
func Sub(a, b *Tensor) *Tensor {
	a.mustSameShape(b, "Sub")
	out := New(a.shape...)
	bk := kernels.Active()
	forElems(len(a.data), func(lo, hi int) {
		bk.Sub(a.data[lo:hi], b.data[lo:hi], out.data[lo:hi])
	})
	countOps(len(a.data))
	return out
}

// Mul returns a * b elementwise (Hadamard product). Shapes must match.
func Mul(a, b *Tensor) *Tensor {
	a.mustSameShape(b, "Mul")
	out := New(a.shape...)
	bk := kernels.Active()
	forElems(len(a.data), func(lo, hi int) {
		bk.Mul(a.data[lo:hi], b.data[lo:hi], out.data[lo:hi])
	})
	countOps(len(a.data))
	return out
}

// AddInPlace adds b into a elementwise and returns a.
func AddInPlace[T Float](a, b *Dense[T]) *Dense[T] {
	a.mustSameShape(b, "AddInPlace")
	bk := kernels.ActiveOf[T]()
	if n := len(a.data); elemsInline(n) {
		bk.Add(a.data, b.data, a.data)
	} else {
		parallel.For(n, elemsGrain, func(lo, hi int) { bk.Add(a.data[lo:hi], b.data[lo:hi], a.data[lo:hi]) })
	}
	countOps(len(a.data))
	return a
}

// AxpyInPlace computes a += alpha*b and returns a.
func AxpyInPlace(a *Tensor, alpha float64, b *Tensor) *Tensor {
	a.mustSameShape(b, "AxpyInPlace")
	bk := kernels.Active()
	forElems(len(a.data), func(lo, hi int) {
		bk.Axpy(alpha, b.data[lo:hi], a.data[lo:hi])
	})
	countOps(2 * len(a.data))
	return a
}

// Scale returns alpha * a.
func Scale(a *Tensor, alpha float64) *Tensor {
	out := New(a.shape...)
	bk := kernels.Active()
	forElems(len(a.data), func(lo, hi int) {
		bk.Scale(alpha, a.data[lo:hi], out.data[lo:hi])
	})
	countOps(len(a.data))
	return out
}

// ScaleInPlace multiplies a by alpha in place and returns a.
func ScaleInPlace[T Float](a *Dense[T], alpha T) *Dense[T] {
	bk := kernels.ActiveOf[T]()
	if n := len(a.data); elemsInline(n) {
		bk.Scale(alpha, a.data, a.data)
	} else {
		parallel.For(n, elemsGrain, func(lo, hi int) { bk.Scale(alpha, a.data[lo:hi], a.data[lo:hi]) })
	}
	countOps(len(a.data))
	return a
}

// ELUInPlace overwrites a with its exponential linear unit (alpha = 1)
// and returns a: v where v > 0, else math.Exp(v) − 1 at float64, rounded
// to T.
func ELUInPlace[T Float](a *Dense[T]) *Dense[T] {
	bk := kernels.ActiveOf[T]()
	if n := len(a.data); elemsInline(n) {
		bk.ELU(a.data, a.data)
	} else {
		parallel.For(n, elemsGrain, func(lo, hi int) { bk.ELU(a.data[lo:hi], a.data[lo:hi]) })
	}
	countOps(len(a.data))
	return a
}

// GELUInPlace overwrites a with its tanh-approximated Gaussian error
// linear unit and returns a: 0.5·v·(1 + math.Tanh(√(2/π)·(v + 0.044715·v³)))
// at float64, rounded to T.
func GELUInPlace[T Float](a *Dense[T]) *Dense[T] {
	bk := kernels.ActiveOf[T]()
	if n := len(a.data); elemsInline(n) {
		bk.GELU(a.data, a.data)
	} else {
		parallel.For(n, elemsGrain, func(lo, hi int) { bk.GELU(a.data[lo:hi], a.data[lo:hi]) })
	}
	countOps(len(a.data))
	return a
}

// Neg returns -a.
func Neg(a *Tensor) *Tensor { return Scale(a, -1) }

// AddRow returns m with row vector v added to every row. m must be 2-D and
// len(v) must equal m's column count.
func AddRow(m, v *Tensor) *Tensor {
	m.must2D("AddRow")
	if v.Size() != m.shape[1] {
		panic(fmt.Sprintf("tensor: AddRow vector size %d != cols %d", v.Size(), m.shape[1]))
	}
	out := m.Clone()
	r, c := m.shape[0], m.shape[1]
	bk := kernels.Active()
	for i := 0; i < r; i++ {
		row := out.data[i*c : (i+1)*c]
		bk.Add(row, v.data, row)
	}
	countOps(r * c)
	return out
}

// Dot returns the inner product of two tensors of identical shape.
func Dot(a, b *Tensor) float64 {
	a.mustSameShape(b, "Dot")
	s := kernels.Active().Dot(a.data, b.data)
	countOps(2 * len(a.data))
	return s
}

// Norm2 returns the Euclidean norm of a's elements.
func Norm2(a *Tensor) float64 {
	s := kernels.Active().Norm2Sq(a.data)
	countOps(2 * len(a.data))
	return math.Sqrt(s)
}

// L2Distance returns the Euclidean distance between two tensors of the same
// shape. It is the metric Sec. III-D uses for the node convergence test.
func L2Distance(a, b *Tensor) float64 {
	a.mustSameShape(b, "L2Distance")
	s := 0.0
	for i, v := range a.data {
		d := v - b.data[i]
		s += d * d
	}
	countOps(3 * len(a.data))
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0
// when either has zero norm.
func CosineSimilarity(a, b *Tensor) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Normalize returns a scaled to unit Euclidean norm. A zero tensor is
// returned unchanged.
func Normalize(a *Tensor) *Tensor {
	n := Norm2(a)
	if n == 0 {
		return a.Clone()
	}
	return Scale(a, 1/n)
}

// ConcatCols horizontally concatenates 2-D tensors with equal row counts.
func ConcatCols[T Float](ts ...*Dense[T]) *Dense[T] {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	rows := ts[0].Rows()
	cols := 0
	for _, t := range ts {
		if t.Rows() != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", t.Rows(), rows))
		}
		cols += t.Cols()
	}
	out := NewOf[T](rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		for _, t := range ts {
			copy(out.data[i*cols+off:], t.Row(i))
			off += t.Cols()
		}
	}
	return out
}

// ConcatRows vertically concatenates 2-D tensors with equal column counts.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	cols := ts[0].Cols()
	rows := 0
	for _, t := range ts {
		if t.Cols() != cols {
			panic(fmt.Sprintf("tensor: ConcatRows col mismatch %d vs %d", t.Cols(), cols))
		}
		rows += t.Rows()
	}
	out := New(rows, cols)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += t.Size()
	}
	return out
}

// SliceRows returns rows [i, j) of a matrix as a copy.
func SliceRows(m *Tensor, i, j int) *Tensor {
	m.must2D("SliceRows")
	if i < 0 || j > m.shape[0] || i > j {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for %v", i, j, m.shape))
	}
	c := m.shape[1]
	out := New(j-i, c)
	copy(out.data, m.data[i*c:j*c])
	return out
}

// Gather returns a matrix whose k-th row is m's rows[k]-th row.
func Gather[T Float](m *Dense[T], rows []int) *Dense[T] { return GatherIn(nil, m, rows) }

// GatherIn is Gather with the result lent from ws (see Alloc).
func GatherIn[T Float](ws *Workspace, m *Dense[T], rows []int) *Dense[T] {
	m.must2D("Gather")
	c := m.shape[1]
	out := Alloc[T](ws, len(rows), c)
	for k, r := range rows {
		if r < 0 || r >= m.shape[0] {
			panic(fmt.Sprintf("tensor: Gather row %d out of range [0,%d)", r, m.shape[0]))
		}
		copy(out.data[k*c:(k+1)*c], m.Row(r))
	}
	return out
}

// ScatterAddRows adds src's k-th row into dst's rows[k]-th row. Rows may
// repeat; contributions accumulate.
func ScatterAddRows(dst *Tensor, rows []int, src *Tensor) {
	dst.must2D("ScatterAddRows")
	src.must2D("ScatterAddRows")
	if src.Rows() != len(rows) || src.Cols() != dst.Cols() {
		panic(fmt.Sprintf("tensor: ScatterAddRows src %v rows %d dst %v", src.shape, len(rows), dst.shape))
	}
	c := dst.shape[1]
	bk := kernels.Active()
	for k, r := range rows {
		if r < 0 || r >= dst.shape[0] {
			panic(fmt.Sprintf("tensor: ScatterAddRows row %d out of range [0,%d)", r, dst.shape[0]))
		}
		drow := dst.data[r*c : (r+1)*c]
		srow := src.data[k*c : (k+1)*c]
		bk.Add(drow, srow, drow)
	}
	countOps(len(rows) * c)
}

// AllClose reports whether a and b have the same shape and all elements
// within tol of one another.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}
