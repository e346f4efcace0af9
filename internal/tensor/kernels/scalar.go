package kernels

import "math"

// scalarBackend is the reference implementation: the plain Go loops the
// tensor package shipped before backend dispatch existed, extracted
// verbatim and written once over the element width. Every other backend
// is pinned against it at the same width by the conformance harness, so
// changes here are semantic changes to the whole kernel layer.
type scalarBackend[T Float] struct{}

func (scalarBackend[T]) Name() string { return "scalar" }

func (scalarBackend[T]) Dot(x, y []T) T {
	var s T
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func (scalarBackend[T]) Norm2Sq(x []T) T {
	var s T
	for _, v := range x {
		s += v * v
	}
	return s
}

func (scalarBackend[T]) Sum(x []T) T {
	var s T
	for _, v := range x {
		s += v
	}
	return s
}

func (scalarBackend[T]) Add(x, y, dst []T) {
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

func (scalarBackend[T]) Sub(x, y, dst []T) {
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

func (scalarBackend[T]) Mul(x, y, dst []T) {
	for i := range dst {
		dst[i] = x[i] * y[i]
	}
}

func (scalarBackend[T]) MulAcc(x, y, dst []T) {
	for i := range dst {
		dst[i] += x[i] * y[i]
	}
}

func (scalarBackend[T]) ScaledMulAcc(alpha T, x, y, dst []T) {
	for i := range dst {
		dst[i] += (alpha * x[i]) * y[i]
	}
}

func (scalarBackend[T]) Axpy(alpha T, x, y []T) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func (scalarBackend[T]) Scale(alpha T, x, dst []T) {
	for i := range dst {
		dst[i] = alpha * x[i]
	}
}

func (scalarBackend[T]) ELU(x, dst []T) { eluLoop(x, dst) }

// eluLoop is ELU one element at a time, the definition every backend's
// ELU returns the bits of: x where x > 0, else math.Exp(x) − 1 at
// float64, rounded to T. dst may alias x.
func eluLoop[T Float](x, dst []T) {
	x = x[:len(dst)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = T(math.Exp(float64(v)) - 1)
		}
	}
}

func (scalarBackend[T]) MatMul(a, b, out []T, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

func (scalarBackend[T]) MatMulT1(a, b, out []T, kk, m, n, lo, hi int) {
	for p := 0; p < kk; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

func (scalarBackend[T]) MatMulT2(a, b, out []T, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s T
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}

func (scalarBackend[T]) MatVec(a, x, out []T, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a[i*k : (i+1)*k]
		var s T
		for p := 0; p < k; p++ {
			s += row[p] * x[p]
		}
		out[i] = s
	}
}

func (scalarBackend[T]) SumAxis0(m, out []T, r, c int) {
	for i := 0; i < r; i++ {
		row := m[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			out[j] += row[j]
		}
	}
}
