package tensor

import (
	"fmt"

	"edgekg/internal/parallel"
	"edgekg/internal/tensor/kernels"
)

// Parallelism cutoffs. Kernels run on the shared worker pool only above
// these sizes: the models in this system are mostly tiny (GNN width 8), and
// for small operands the fork/join handshake costs more than the kernel.
// Work below the cutoff runs inline on the caller's goroutine, so results
// are identical either way — every parallel kernel decomposes over output
// rows (or disjoint flat ranges), each element is written by exactly one
// worker with the same accumulation order as the sequential loop, and
// outputs are bit-for-bit independent of the worker count.
const (
	// matmulParallelFlops is the minimum 2·m·n·k cost before a matmul
	// family kernel fans out.
	matmulParallelFlops = 1 << 16
	// elemwiseParallelLen is the minimum element count before an
	// elementwise or row-reduction kernel fans out.
	elemwiseParallelLen = 1 << 14
)

// matmulGrain returns the minimum output rows per chunk so each chunk
// carries at least ~matmulParallelFlops/2 of work.
func matmulGrain(rowFlops int) int {
	if rowFlops <= 0 {
		return 1
	}
	g := matmulParallelFlops / (2 * rowFlops)
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul returns the matrix product a·b of two 2-D tensors.
// a is (m×k), b is (k×n), the result is (m×n). FLOPs count operations,
// not bytes, so the ledger is the same at either width.
func MatMul[T Float](a, b *Dense[T]) *Dense[T] { return MatMulIn(nil, a, b) }

// MatMulIn is MatMul with the product lent from ws (see Alloc).
func MatMulIn[T Float](ws *Workspace, a, b *Dense[T]) *Dense[T] {
	a.must2D("MatMul")
	b.must2D("MatMul")
	m, k := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %v · %v", a.shape, b.shape))
	}
	n := b.shape[1]
	out := Alloc[T](ws, m, n)
	// The active backend runs the i-k-j kernel over each worker's disjoint
	// range of output rows; the inner loop streams over contiguous rows of
	// b and out, which matters even at the small sizes used here.
	bk := kernels.ActiveOf[T]()
	if grain := matmulGrain(2 * n * k); 2*m*n*k < matmulParallelFlops || parallel.Inline(m, grain) {
		bk.MatMul(a.data, b.data, out.data, k, n, 0, m)
	} else {
		parallel.For(m, grain, func(lo, hi int) { bk.MatMul(a.data, b.data, out.data, k, n, lo, hi) })
	}
	countOps(2 * m * n * k)
	return out
}

// MatMulT1 returns aᵀ·b, where a is (k×m) and b is (k×n); result is (m×n).
// It avoids materialising the transpose.
func MatMulT1(a, b *Tensor) *Tensor {
	a.must2D("MatMulT1")
	b.must2D("MatMulT1")
	k, m := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulT1 inner dim mismatch %v ᵀ· %v", a.shape, b.shape))
	}
	n := b.shape[1]
	out := New(m, n)
	// Workers own disjoint ranges of output rows (columns of a); the p
	// loop stays outermost inside the kernel so b's rows stream once per
	// worker.
	bk := kernels.Active()
	if grain := matmulGrain(2 * n * k); 2*m*n*k < matmulParallelFlops || parallel.Inline(m, grain) {
		bk.MatMulT1(a.data, b.data, out.data, k, m, n, 0, m)
	} else {
		parallel.For(m, grain, func(lo, hi int) { bk.MatMulT1(a.data, b.data, out.data, k, m, n, lo, hi) })
	}
	countOps(2 * m * n * k)
	return out
}

// MatMulT2 returns a·bᵀ, where a is (m×k) and b is (n×k); result is (m×n).
// It avoids materialising the transpose.
func MatMulT2(a, b *Tensor) *Tensor {
	a.must2D("MatMulT2")
	b.must2D("MatMulT2")
	m, k := a.shape[0], a.shape[1]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulT2 inner dim mismatch %v · %v ᵀ", a.shape, b.shape))
	}
	n := b.shape[0]
	out := New(m, n)
	bk := kernels.Active()
	if grain := matmulGrain(2 * n * k); 2*m*n*k < matmulParallelFlops || parallel.Inline(m, grain) {
		bk.MatMulT2(a.data, b.data, out.data, k, n, 0, m)
	} else {
		parallel.For(m, grain, func(lo, hi int) { bk.MatMulT2(a.data, b.data, out.data, k, n, lo, hi) })
	}
	countOps(2 * m * n * k)
	return out
}

// transposeBlock is the tile edge of the blocked transpose; 32×32 float64
// tiles (8 KiB read + 8 KiB write) sit comfortably in L1.
const transposeBlock = 32

// Transpose returns the transpose of a 2-D tensor as a new tensor. The
// copy is tiled so both the row-major read and the column-major write stay
// within cache-resident blocks, and its cost is reported to the ledger
// like the rest of the matmul family — as byte traffic, since a transpose
// performs no floating-point arithmetic and counting elements as FLOPs
// would skew the cross-PR FLOP trajectory.
func Transpose(a *Tensor) *Tensor {
	a.must2D("Transpose")
	r, c := a.shape[0], a.shape[1]
	out := New(c, r)
	for ii := 0; ii < r; ii += transposeBlock {
		iEnd := ii + transposeBlock
		if iEnd > r {
			iEnd = r
		}
		for jj := 0; jj < c; jj += transposeBlock {
			jEnd := jj + transposeBlock
			if jEnd > c {
				jEnd = c
			}
			for i := ii; i < iEnd; i++ {
				arow := a.data[i*c : (i+1)*c]
				for j := jj; j < jEnd; j++ {
					out.data[j*r+i] = arow[j]
				}
			}
		}
	}
	countBytes(16 * r * c) // 8 bytes read + 8 written per element
	return out
}

// MatVec returns the matrix-vector product a·x, where a is (m×k) and x has
// k elements; the result is a 1-D tensor of m elements.
func MatVec(a, x *Tensor) *Tensor {
	a.must2D("MatVec")
	m, k := a.shape[0], a.shape[1]
	if x.Size() != k {
		panic(fmt.Sprintf("tensor: MatVec dim mismatch %v · vec[%d]", a.shape, x.Size()))
	}
	out := New(m)
	bk := kernels.Active()
	if grain := matmulGrain(2 * k); 2*m*k < matmulParallelFlops || parallel.Inline(m, grain) {
		bk.MatVec(a.data, x.data, out.data, k, 0, m)
	} else {
		parallel.For(m, grain, func(lo, hi int) { bk.MatVec(a.data, x.data, out.data, k, lo, hi) })
	}
	countOps(2 * m * k)
	return out
}
