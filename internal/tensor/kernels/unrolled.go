package kernels

// unrolledBackend is the portable optimized backend: 4×-unrolled,
// register-blocked loops with the bounds checks hoisted by explicit
// re-slicing. Elementwise kernels keep the per-element rounding of the
// scalar reference (each element is still one multiply and one add, in
// the same order), and the reductions are the reference's own dotLanes
// and sumLanes, so every kernel is bit-exact.
type unrolledBackend[T Float] struct{}

func (unrolledBackend[T]) Name() string { return "unrolled" }

func (unrolledBackend[T]) Dot(x, y []T) T { return dotLanes(x, y) }

func (unrolledBackend[T]) Norm2Sq(x []T) T { return dotLanes(x, x) }

func (unrolledBackend[T]) Sum(x []T) T { return sumLanes(x) }

func add4[T Float](x, y, dst []T) {
	n := len(dst)
	x, y = x[:n], y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, y4, d4 := x[i:i+4:i+4], y[i:i+4:i+4], dst[i:i+4:i+4]
		d4[0] = x4[0] + y4[0]
		d4[1] = x4[1] + y4[1]
		d4[2] = x4[2] + y4[2]
		d4[3] = x4[3] + y4[3]
	}
	for ; i < n; i++ {
		dst[i] = x[i] + y[i]
	}
}

func (unrolledBackend[T]) Add(x, y, dst []T) { add4(x, y, dst) }

func (unrolledBackend[T]) Sub(x, y, dst []T) {
	n := len(dst)
	x, y = x[:n], y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, y4, d4 := x[i:i+4:i+4], y[i:i+4:i+4], dst[i:i+4:i+4]
		d4[0] = x4[0] - y4[0]
		d4[1] = x4[1] - y4[1]
		d4[2] = x4[2] - y4[2]
		d4[3] = x4[3] - y4[3]
	}
	for ; i < n; i++ {
		dst[i] = x[i] - y[i]
	}
}

func mul4[T Float](x, y, dst []T) {
	n := len(dst)
	x, y = x[:n], y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, y4, d4 := x[i:i+4:i+4], y[i:i+4:i+4], dst[i:i+4:i+4]
		d4[0] = x4[0] * y4[0]
		d4[1] = x4[1] * y4[1]
		d4[2] = x4[2] * y4[2]
		d4[3] = x4[3] * y4[3]
	}
	for ; i < n; i++ {
		dst[i] = x[i] * y[i]
	}
}

func (unrolledBackend[T]) Mul(x, y, dst []T) { mul4(x, y, dst) }

func mulacc4[T Float](x, y, dst []T) {
	n := len(dst)
	x, y = x[:n], y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, y4, d4 := x[i:i+4:i+4], y[i:i+4:i+4], dst[i:i+4:i+4]
		d4[0] += x4[0] * y4[0]
		d4[1] += x4[1] * y4[1]
		d4[2] += x4[2] * y4[2]
		d4[3] += x4[3] * y4[3]
	}
	for ; i < n; i++ {
		dst[i] += x[i] * y[i]
	}
}

func (unrolledBackend[T]) MulAcc(x, y, dst []T) { mulacc4(x, y, dst) }

func scaledmulacc4[T Float](alpha T, x, y, dst []T) {
	n := len(dst)
	x, y = x[:n], y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, y4, d4 := x[i:i+4:i+4], y[i:i+4:i+4], dst[i:i+4:i+4]
		d4[0] += (alpha * x4[0]) * y4[0]
		d4[1] += (alpha * x4[1]) * y4[1]
		d4[2] += (alpha * x4[2]) * y4[2]
		d4[3] += (alpha * x4[3]) * y4[3]
	}
	for ; i < n; i++ {
		dst[i] += (alpha * x[i]) * y[i]
	}
}

func (unrolledBackend[T]) ScaledMulAcc(alpha T, x, y, dst []T) {
	scaledmulacc4(alpha, x, y, dst)
}

func axpy4[T Float](alpha T, x, y []T) {
	n := len(y)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, y4 := x[i:i+4:i+4], y[i:i+4:i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

func (unrolledBackend[T]) Axpy(alpha T, x, y []T) { axpy4(alpha, x, y) }

func scale4[T Float](alpha T, x, dst []T) {
	n := len(dst)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, d4 := x[i:i+4:i+4], dst[i:i+4:i+4]
		d4[0] = alpha * x4[0]
		d4[1] = alpha * x4[1]
		d4[2] = alpha * x4[2]
		d4[3] = alpha * x4[3]
	}
	for ; i < n; i++ {
		dst[i] = alpha * x[i]
	}
}

func (unrolledBackend[T]) Scale(alpha T, x, dst []T) { scale4(alpha, x, dst) }

// ELU is the scalar loop: one math.Exp per non-positive element leaves
// nothing for unrolling to win.
func (unrolledBackend[T]) ELU(x, dst []T) { eluLoop(x, dst) }

// matMul4p is the p-blocked matmul body: four ascending p-steps per pass
// over the output row, so each out element is loaded and stored once per
// four accumulations instead of once per one. quad applies
//
//	out[j] += a0·b4[j]; out[j] += a1·b4[n+j]; out[j] += a2·b4[2n+j]; ...
//
// with each multiply and add rounding separately in that order — exactly
// the rounding sequence of four consecutive scalar p-iterations — so the
// kernel stays bit-exact against the reference. Blocks containing a zero
// a-element fall back to per-p axpy to reproduce the reference's zero
// skip (x + 0·b is not always the identity: it flips -0 to +0 and raises
// NaN from 0·Inf).
func matMul4p[T Float](a, b, out []T, k, n, lo, hi int,
	quad func(a0, a1, a2, a3 T, b4, orow []T),
	axpy func(alpha T, x, y []T)) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				quad(a0, a1, a2, a3, b[p*n:(p+4)*n], orow)
				continue
			}
			for q := p; q < p+4; q++ {
				if av := arow[q]; av != 0 {
					axpy(av, b[q*n:(q+1)*n], orow)
				}
			}
		}
		for ; p < k; p++ {
			if av := arow[p]; av != 0 {
				axpy(av, b[p*n:(p+1)*n], orow)
			}
		}
	}
}

// quad4 is the portable quad microkernel behind matMul4p: one pass over
// the row, out element kept in a register across the four p-steps.
func quad4[T Float](a0, a1, a2, a3 T, b4, orow []T) {
	n := len(orow)
	b0 := b4[0*n : 1*n : 1*n]
	b1 := b4[1*n : 2*n : 2*n]
	b2 := b4[2*n : 3*n : 3*n]
	b3 := b4[3*n : 4*n : 4*n]
	for j := range orow {
		o := orow[j]
		o += a0 * b0[j]
		o += a1 * b1[j]
		o += a2 * b2[j]
		o += a3 * b3[j]
		orow[j] = o
	}
}

func (unrolledBackend[T]) MatMul(a, b, out []T, k, n, lo, hi int) {
	matMul4p(a, b, out, k, n, lo, hi, quad4, axpy4)
}

// matMulT14p is the aᵀ·b analogue: the reference sweeps p in the outer
// loop, but per output row the contributions still arrive in ascending p
// with one rounding per step, so hoisting i outward and blocking p by 4
// (a accessed at column i with stride m) reproduces the reference
// bit-for-bit, zero skip included.
func matMulT14p[T Float](a, b, out []T, kk, m, n, lo, hi int,
	quad func(a0, a1, a2, a3 T, b4, orow []T),
	axpy func(alpha T, x, y []T)) {
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= kk; p += 4 {
			a0, a1, a2, a3 := a[p*m+i], a[(p+1)*m+i], a[(p+2)*m+i], a[(p+3)*m+i]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				quad(a0, a1, a2, a3, b[p*n:(p+4)*n], orow)
				continue
			}
			for q := p; q < p+4; q++ {
				if av := a[q*m+i]; av != 0 {
					axpy(av, b[q*n:(q+1)*n], orow)
				}
			}
		}
		for ; p < kk; p++ {
			if av := a[p*m+i]; av != 0 {
				axpy(av, b[p*n:(p+1)*n], orow)
			}
		}
	}
}

func (unrolledBackend[T]) MatMulT1(a, b, out []T, kk, m, n, lo, hi int) {
	matMulT14p(a, b, out, kk, m, n, lo, hi, quad4, axpy4)
}

func matMulT2Dot[T Float](a, b, out []T, k, n, lo, hi int, dot func(x, y []T) T) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			orow[j] = dot(arow, b[j*k:(j+1)*k])
		}
	}
}

func (unrolledBackend[T]) MatMulT2(a, b, out []T, k, n, lo, hi int) {
	matMulT2Dot(a, b, out, k, n, lo, hi, dotLanes)
}

func matVecDot[T Float](a, x, out []T, k, lo, hi int, dot func(x, y []T) T) {
	for i := lo; i < hi; i++ {
		out[i] = dot(a[i*k:(i+1)*k], x)
	}
}

func (unrolledBackend[T]) MatVec(a, x, out []T, k, lo, hi int) {
	matVecDot(a, x, out, k, lo, hi, dotLanes)
}

// sumAxis0Acc shares the row-sweep column-sum body, parameterised by the
// accumulate microkernel (out += row, elementwise). Per-column
// accumulation order is row order in every variant, so it stays
// bit-exact.
func sumAxis0Acc[T Float](m, out []T, r, c int, acc func(x, dst []T)) {
	for i := 0; i < r; i++ {
		acc(m[i*c:(i+1)*c], out)
	}
}

// addacc4 is out += x, the 4×-unrolled accumulate behind SumAxis0.
func addacc4[T Float](x, dst []T) {
	n := len(dst)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, d4 := x[i:i+4:i+4], dst[i:i+4:i+4]
		d4[0] += x4[0]
		d4[1] += x4[1]
		d4[2] += x4[2]
		d4[3] += x4[3]
	}
	for ; i < n; i++ {
		dst[i] += x[i]
	}
}

func (unrolledBackend[T]) SumAxis0(m, out []T, r, c int) {
	sumAxis0Acc(m, out, r, c, addacc4)
}
