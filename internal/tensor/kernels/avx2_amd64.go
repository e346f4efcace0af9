package kernels

// AVX2 backend: hand-written assembly for the dot/axpy/mul-accumulate/sum
// microkernels, the matmul row, the ELU and the GELU (avx2_amd64.s), with
// the matmul family built on top of them and everything else inherited
// from the unrolled backend.
// The backend registers only when CPUID reports AVX2 with OS-enabled YMM
// state, so a binary built here still runs (and picks "unrolled") on an
// older box.

//go:noescape
func dotAsm(x, y []float64) float64

//go:noescape
func sumAsm(x []float64) float64

//go:noescape
func axpyAsm(alpha float64, x, y []float64)

//go:noescape
func mulaccAsm(x, y, dst []float64)

//go:noescape
func scaledMulaccAsm(alpha float64, x, y, dst []float64)

//go:noescape
func eluAsm(x, dst []float64) int

//go:noescape
func geluAsm(x, dst []float64) int

//go:noescape
func matmulRowAsm(a, b, out []float64, k, stride int) int

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 (and the feature list for perf-report attribution) is resolved
// once at package load.
var hasAVX2 bool
var cpuFeatures []string

// expFMA is math's own useFMA (HasAVX && HasFMA): the condition under
// which math.Exp runs the FMA branch that eluAsm and geluAsm copy.
// Without it math.Exp rounds differently, so avx2's ELU and GELU run the
// scalar loops.
var expFMA bool

func detectCPU() {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	osAVX := false
	if c1&osxsaveBit != 0 {
		lo, _ := xgetbv0()
		osAVX = lo&0x6 == 0x6 // XMM and YMM state enabled by the OS
	}
	if c1&avxBit != 0 && osAVX {
		cpuFeatures = append(cpuFeatures, "avx")
	}
	if c1&fmaBit != 0 {
		cpuFeatures = append(cpuFeatures, "fma")
	}
	expFMA = c1&avxBit != 0 && c1&fmaBit != 0 && osAVX
	if maxID < 7 {
		return
	}
	_, b7, _, _ := cpuidex(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
	)
	if b7&avx2Bit != 0 && osAVX {
		hasAVX2 = true
		cpuFeatures = append(cpuFeatures, "avx2")
	}
	if b7&avx512fBit != 0 {
		cpuFeatures = append(cpuFeatures, "avx512f")
	}
}

func registerArch() {
	detectCPU()
	if hasAVX2 {
		register(avx2Backend{}, avx232Backend{})
	}
}

type avx2Backend struct{ unrolledBackend[float64] }

func (avx2Backend) Name() string { return "avx2" }

func (avx2Backend) Dot(x, y []float64) float64 { return dotAsm(x, y[:len(x)]) }

func (avx2Backend) Norm2Sq(x []float64) float64 { return dotAsm(x, x) }

func (avx2Backend) Sum(x []float64) float64 { return sumAsm(x) }

func (avx2Backend) MulAcc(x, y, dst []float64) {
	mulaccAsm(x[:len(dst)], y[:len(dst)], dst)
}

func (avx2Backend) ScaledMulAcc(alpha float64, x, y, dst []float64) {
	scaledMulaccAsm(alpha, x[:len(dst)], y[:len(dst)], dst)
}

func (avx2Backend) Axpy(alpha float64, x, y []float64) {
	axpyAsm(alpha, x[:len(y)], y)
}

func (avx2Backend) ELU(x, dst []float64) { expVia(eluAsm, eluLoop[float64], x, dst) }

func (avx2Backend) GELU(x, dst []float64) { expVia(geluAsm, geluLoop[float64], x, dst) }

// expVia runs an elementwise kernel over a block kernel with eluAsm's
// contract (the FMA gate tests pass a spy) and the scalar loop that
// defines it: blocks take every 8-element block they accept, and loop
// takes each block they decline and the tail, so every element gets the
// loop's bits either way. Off expFMA hosts loop takes everything.
func expVia(blocks func(x, dst []float64) int, loop func(x, dst []float64), x, dst []float64) {
	if !expFMA {
		loop(x, dst)
		return
	}
	x = x[:len(dst)]
	for i := 0; i < len(dst); {
		i += blocks(x[i:], dst[i:])
		j := min(i+8, len(dst))
		loop(x[i:j], dst[i:j])
		i = j
	}
}

func (avx2Backend) MatMul(a, b, out []float64, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		matMulRow(a, i*k, 1, b, out[i*n:(i+1)*n], k)
	}
}

func (avx2Backend) MatMulT1(a, b, out []float64, kk, m, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		matMulRow(a, i, m, b, out[i*n:(i+1)*n], kk)
	}
}

// matMulRow accumulates orow += a[off+p·stride]·b[p·n:(p+1)·n] over the
// k p-steps in ascending order, skipping zero a-elements as the reference
// does. The row kernel takes whole quads until one holds a zero; that
// quad, and the last fewer-than-four steps, go p by p through axpy.
func matMulRow(a []float64, off, stride int, b, orow []float64, k int) {
	n := len(orow)
	for p := 0; ; {
		if k-p >= 4 {
			p += matmulRowAsm(a[off+p*stride:], b[p*n:], orow, k-p, stride)
		}
		end := min(p+4, k)
		if p == end {
			return
		}
		for ; p < end; p++ {
			if av := a[off+p*stride]; av != 0 {
				axpyAsm(av, b[p*n:(p+1)*n], orow)
			}
		}
	}
}

func (avx2Backend) MatMulT2(a, b, out []float64, k, n, lo, hi int) {
	matMulT2Dot(a, b, out, k, n, lo, hi, dotAsm)
}

func (avx2Backend) MatVec(a, x, out []float64, k, lo, hi int) {
	matVecDot(a, x, out, k, lo, hi, dotAsm)
}

// SumAxis0 rides the axpy microkernel: out += 1·row is exact (1·x ≡ x
// for every payload, NaN and subnormals included), so the row-sweep stays
// bit-identical to the reference.
func (avx2Backend) SumAxis0(m, out []float64, r, c int) {
	sumAxis0Acc(m, out, r, c, func(x, dst []float64) { axpyAsm(1, x, dst) })
}
