package kernels

// AVX2 float32 backend: assembly ports of the dot/axpy/mul-accumulate/
// sum microkernels and the quad matmul microkernel (avx2_32_amd64.s) —
// twice the lanes per vector op of the f64 originals — with the matmul
// riding matMul4p on the asm quad + axpy pair and everything else
// inherited from the unrolled backend at float32. Registered as the
// float32 half of "avx2" (see registerArch).

//go:noescape
func dotAsm32(x, y []float32) float32

//go:noescape
func sumAsm32(x []float32) float32

//go:noescape
func axpyAsm32(alpha float32, x, y []float32)

//go:noescape
func mulaccAsm32(x, y, dst []float32)

//go:noescape
func matmulQuadAsm32(a0, a1, a2, a3 float32, b, out []float32)

type avx232Backend struct{ unrolledBackend[float32] }

func (avx232Backend) Name() string { return "avx2" }

func (avx232Backend) Dot(x, y []float32) float32 { return dotAsm32(x, y[:len(x)]) }

func (avx232Backend) Norm2Sq(x []float32) float32 { return dotAsm32(x, x) }

func (avx232Backend) Sum(x []float32) float32 { return sumAsm32(x) }

func (avx232Backend) MulAcc(x, y, dst []float32) {
	mulaccAsm32(x[:len(dst)], y[:len(dst)], dst)
}

func (avx232Backend) Axpy(alpha float32, x, y []float32) {
	axpyAsm32(alpha, x[:len(y)], y)
}

func (avx232Backend) MatMul(a, b, out []float32, k, n, lo, hi int) {
	matMul4p(a, b, out, k, n, lo, hi, matmulQuadAsm32, axpyAsm32)
}

func (avx232Backend) MatMulT2(a, b, out []float32, k, n, lo, hi int) {
	matMulT2Dot(a, b, out, k, n, lo, hi, dotAsm32)
}

func (avx232Backend) MatVec(a, x, out []float32, k, lo, hi int) {
	matVecDot(a, x, out, k, lo, hi, dotAsm32)
}
