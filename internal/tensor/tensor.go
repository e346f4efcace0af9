// Package tensor implements dense row-major tensors and the numerical
// kernels the rest of the library is built on: elementwise arithmetic,
// matrix multiplication, reductions, gather/scatter and deterministic
// random initialisation.
//
// There is one tensor type, Dense[T], over T = float32 | float64. Tensor
// is Dense[float64] — the width of all trainable state, checkpoints and
// everything that differentiates — and the constructors and ops without
// a type parameter are its front doors. float32 exists for the eval-only
// scoring engine: what that engine runs (MatMul, Gather, ConcatCols,
// ELUInPlace, GELUInPlace, in-place add/scale, SoftmaxRows) is written
// once over T, and
// Narrow is the only crossing between widths; nothing converts implicitly.
//
// The package favours clarity over raw speed — model dimensions in this
// system are small (GNN width 8, temporal width 128) — but the matmul
// kernel is written cache-consciously and every op reports its cost to
// internal/flops so the Table-I accounting reflects real operation counts.
//
// Shape errors are programming errors, not runtime conditions, so the
// package panics on mismatched shapes (matching the behaviour of gonum and
// of slice indexing itself). All exported constructors copy or own their
// backing storage unless documented otherwise.
package tensor

import (
	"fmt"
	"strings"

	"edgekg/internal/flops"
	"edgekg/internal/tensor/kernels"
)

// Float is the element-width constraint: float32 or float64.
type Float = kernels.Float

// Dense is a dense row-major tensor of T values.
type Dense[T Float] struct {
	shape []int
	data  []T
	// shapeBack inlines the shape storage for tensors of rank ≤ 2 (all of
	// them, in this codebase), so constructing a tensor costs two heap
	// allocations (struct + data) instead of three.
	shapeBack [2]int
}

// Tensor is the float64 tensor.
type Tensor = Dense[float64]

// setShape stores a copy of shape, using the inline backing array when the
// rank allows.
func (t *Dense[T]) setShape(shape []int) {
	if len(shape) <= len(t.shapeBack) {
		t.shape = t.shapeBack[:len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = append([]int(nil), shape...)
	}
}

// New returns a zero-filled float64 tensor with the given shape. A tensor
// with no dimensions is a scalar holding one element.
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// NewOf is New at width T.
func NewOf[T Float](shape ...int) *Dense[T] {
	n := checkShape(shape)
	t := &Dense[T]{data: make([]T, n)}
	t.setShape(shape)
	return t
}

// FromSlice wraps data in a tensor with the given shape. The tensor takes
// ownership of data; the caller must not modify it afterwards.
func FromSlice[T Float](data []T, shape ...int) *Dense[T] {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (size %d)", len(data), append([]int(nil), shape...), n))
	}
	t := &Dense[T]{data: data}
	t.setShape(shape)
	return t
}

// Narrow returns t at width T: t itself at float64 (a zero-copy view, so
// writes through either name are seen by both), a copy rounded to
// nearest at float32. The copy is pure bandwidth, so it reports byte
// traffic rather than FLOPs.
func Narrow[T Float](t *Tensor) *Dense[T] { return NarrowIn[T](nil, t) }

// NarrowIn is Narrow with the float32 copy lent from ws (see Alloc).
func NarrowIn[T Float](ws *Workspace, t *Tensor) *Dense[T] {
	if same, ok := any(t).(*Dense[T]); ok {
		return same
	}
	c := Alloc[T](ws, t.shape...)
	for i, v := range t.data {
		c.data[i] = T(v)
	}
	countBytes(len(t.data) * (F64.Bytes() + DTypeOf[T]().Bytes()))
	return c
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float64) *Tensor {
	t := &Tensor{data: []float64{v}}
	t.shape = t.shapeBack[:0]
	return t
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Format a copy: handing shape itself to Sprintf makes it escape,
			// and every caller's variadic []int would be heap-allocated.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice is a copy.
func (t *Dense[T]) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Dense[T]) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Dense[T]) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Dense[T]) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Dense[T]) Data() []T { return t.data }

// Clone returns a deep copy of t.
func (t *Dense[T]) Clone() *Dense[T] {
	c := &Dense[T]{data: make([]T, len(t.data))}
	c.setShape(t.shape)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal size.
func (t *Dense[T]) Reshape(shape ...int) *Dense[T] {
	n := checkShape(shape)
	if n != len(t.data) {
		// A copy, as in checkShape: keeps the caller's shape off the heap.
		panic(fmt.Sprintf("tensor: cannot reshape size %d to %v", len(t.data), append([]int(nil), shape...)))
	}
	r := &Dense[T]{data: t.data}
	r.setShape(shape)
	return r
}

// SameShape reports whether t and o have identical shapes.
func (t *Dense[T]) SameShape(o *Dense[T]) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

func (t *Dense[T]) mustSameShape(o *Dense[T], op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// offset computes the linear index of a multi-dimensional index.
func (t *Dense[T]) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank %d", idx, len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Dense[T]) At(idx ...int) T { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Dense[T]) Set(v T, idx ...int) { t.data[t.offset(idx)] = v }

// Rows returns the first dimension of a matrix. It panics if t is not 2-D.
func (t *Dense[T]) Rows() int {
	t.must2D("Rows")
	return t.shape[0]
}

// Cols returns the second dimension of a matrix. It panics if t is not 2-D.
func (t *Dense[T]) Cols() int {
	t.must2D("Cols")
	return t.shape[1]
}

func (t *Dense[T]) must2D(op string) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires a 2-D tensor, have shape %v", op, t.shape))
	}
}

// Row returns row i of a matrix as a slice into t's backing storage.
func (t *Dense[T]) Row(i int) []T {
	t.must2D("Row")
	c := t.shape[1]
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: row %d out of range for shape %v", i, t.shape))
	}
	return t.data[i*c : (i+1)*c]
}

// At2 returns element (i, j) of a matrix.
func (t *Dense[T]) At2(i, j int) T {
	t.must2D("At2")
	return t.data[i*t.shape[1]+j]
}

// Set2 stores v at element (i, j) of a matrix.
func (t *Dense[T]) Set2(i, j int, v T) {
	t.must2D("Set2")
	t.data[i*t.shape[1]+j] = v
}

// Fill sets every element of t to v.
func (t *Dense[T]) Fill(v T) {
	for i := range t.data {
		t.data[i] = v
	}
}

// String renders small tensors fully and large ones by shape summary.
func (t *Dense[T]) String() string {
	const maxElems = 64
	if len(t.data) > maxElems {
		return fmt.Sprintf("Tensor%v[%d elems]", t.shape, len(t.data))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.shape) == 2 {
		b.WriteString("{\n")
		for i := 0; i < t.shape[0]; i++ {
			b.WriteString("  ")
			for j := 0; j < t.shape[1]; j++ {
				fmt.Fprintf(&b, "%8.4f ", t.At2(i, j))
			}
			b.WriteString("\n")
		}
		b.WriteString("}")
		return b.String()
	}
	fmt.Fprintf(&b, "%v", t.data)
	return b.String()
}

// countOps reports n floating point operations to the active flops counter.
func countOps(n int) { flops.Add(int64(n)) }

// countBytes reports n bytes of memory traffic to the active flops counter.
func countBytes(n int) { flops.AddBytes(int64(n)) }
