package kernels

import "math"

// scalarBackend is the reference implementation, plain Go loops written
// once over the element width: the elementwise kernels and matmuls the
// tensor package shipped before backend dispatch existed, and reductions
// that sum in the lane order every backend shares (dotLanes, sumLanes).
// Every other backend is pinned against it bit for bit at the same width
// by the conformance harness, so changes here are semantic changes to the
// whole kernel layer.
type scalarBackend[T Float] struct{}

func (scalarBackend[T]) Name() string { return "scalar" }

func (scalarBackend[T]) Dot(x, y []T) T { return dotLanes(x, y) }

func (scalarBackend[T]) Norm2Sq(x []T) T { return dotLanes(x, x) }

func (scalarBackend[T]) Sum(x []T) T { return sumLanes(x) }

// dotLanes returns Σ x[i]·y[i] in the order every backend sums, avx2's
// (dotAsm, dotAsm32): lane l of 8 at float64, of 16 at float32, adds the
// products of the elements i ≡ l (mod lanes) in index order; the lanes
// combine as the assembly combines them (fold8, fold16); the tail adds
// on in index order. The conversion rounds each product before it is
// added, which forbids the compiler a fused multiply-add.
func dotLanes[T Float](x, y []T) T {
	y = y[:len(x)]
	var r T
	var n int
	if is32[T]() {
		if n = len(x) &^ 15; n > 0 {
			r = fold16(dot8(x[:n], y[:n], 16), dot8(x[8:n], y[8:n], 16))
		}
	} else {
		n = len(x) &^ 7
		r = fold8(dot8(x[:n], y[:n], 8))
	}
	for i := n; i < len(x); i++ {
		r += T(x[i] * y[i])
	}
	return r
}

// sumLanes returns Σ x[i] in dotLanes' order (sumAsm, sumAsm32).
func sumLanes[T Float](x []T) T {
	var r T
	var n int
	if is32[T]() {
		if n = len(x) &^ 15; n > 0 {
			r = fold16(sum8(x[:n], 16), sum8(x[8:n], 16))
		}
	} else {
		n = len(x) &^ 7
		r = fold8(sum8(x[:n], 8))
	}
	for _, v := range x[n:] {
		r += v
	}
	return r
}

// dot8 returns eight lane sums: lane l adds x[i+l]·y[i+l] for
// i = 0, stride, 2·stride, … while i+8 ≤ len(x).
func dot8[T Float](x, y []T, stride int) [8]T {
	y = y[:len(x)]
	var s0, s1, s2, s3, s4, s5, s6, s7 T
	for i := 0; i+8 <= len(x); i += stride {
		x8, y8 := x[i:i+8:i+8], y[i:i+8:i+8]
		s0, s1, s2, s3 = s0+T(x8[0]*y8[0]), s1+T(x8[1]*y8[1]), s2+T(x8[2]*y8[2]), s3+T(x8[3]*y8[3])
		s4, s5, s6, s7 = s4+T(x8[4]*y8[4]), s5+T(x8[5]*y8[5]), s6+T(x8[6]*y8[6]), s7+T(x8[7]*y8[7])
	}
	return [8]T{s0, s1, s2, s3, s4, s5, s6, s7}
}

// sum8 is dot8 for a plain sum.
func sum8[T Float](x []T, stride int) [8]T {
	var s0, s1, s2, s3, s4, s5, s6, s7 T
	for i := 0; i+8 <= len(x); i += stride {
		x8 := x[i : i+8 : i+8]
		s0, s1, s2, s3 = s0+x8[0], s1+x8[1], s2+x8[2], s3+x8[3]
		s4, s5, s6, s7 = s4+x8[4], s5+x8[5], s6+x8[6], s7+x8[7]
	}
	return [8]T{s0, s1, s2, s3, s4, s5, s6, s7}
}

// fold8 halves eight lanes down to one, as dotAsm and sumAsm do:
// ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)).
func fold8[T Float](s [8]T) T {
	return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

// fold16 combines lanes 0–7 (a) and 8–15 (b) as dotAsm32 and sumAsm32
// do: it halves twice, to c_l = (a_l+b_l) + (a_{l+4}+b_{l+4}), then adds
// neighbours, as VHADDPS pairs them: (c0+c1) + (c2+c3).
func fold16[T Float](a, b [8]T) T {
	var c [4]T
	for l := range c {
		c[l] = (a[l] + b[l]) + (a[l+4] + b[l+4])
	}
	return (c[0] + c[1]) + (c[2] + c[3])
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
	matMulT2Dot(a, b, out, k, n, lo, hi, dotLanes)
}

func (scalarBackend[T]) MatVec(a, x, out []T, k, lo, hi int) {
	matVecDot(a, x, out, k, lo, hi, dotLanes)
}

func (scalarBackend[T]) SumAxis0(m, out []T, r, c int) {
	for i := 0; i < r; i++ {
		row := m[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			out[j] += row[j]
		}
	}
}
