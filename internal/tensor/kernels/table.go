package kernels

import (
	"math"
	"math/rand"
)

// The shared conformance table: the shape and payload matrix every
// backend is driven through, exported so the fused-op conformance tests
// in internal/autograd reuse the exact same grid instead of inventing a
// weaker one. Kept in the non-test source so _test packages elsewhere
// can import it.

// Dims is one matmul-family geometry: a is (M×K), b is (K×N) (or the
// transposed layouts the T1/T2 kernels read).
type Dims struct{ M, K, N int }

// ConformanceDims covers the degenerate and awkward geometries: 1×1,
// empty on each axis, prime and ragged dims, power-of-two tiles, sizes
// straddling the 4- and 8-wide unroll boundaries, and rows of four
// p-quads over two 8-blocks plus a tail, so a payload's zero can put a
// quad the matmul must split between quads it runs whole.
var ConformanceDims = []Dims{
	{1, 1, 1},
	{0, 3, 2},
	{3, 0, 2},
	{2, 3, 0},
	{1, 7, 1},
	{7, 1, 7},
	{2, 2, 2},
	{3, 5, 7},
	{5, 5, 5},
	{8, 8, 8},
	{4, 9, 4},
	{3, 17, 5},
	{13, 29, 7},
	{1, 128, 1},
	{16, 64, 16},
	{31, 33, 9},
	{2, 16, 19},
}

// ConformanceLens is the vector-kernel length grid: empty, sub-unroll,
// the 4/8 unroll boundaries and their neighbours, primes, and one long
// run.
var ConformanceLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 257, 1023}

// Payload fills a buffer with one class of test values.
type Payload struct {
	Name string
	Fill func(rng *rand.Rand, dst []float64)
}

// ConformancePayloads is the value matrix: well-scaled randoms, mixed
// magnitudes, subnormals, signed zeros, NaN/Inf sprinkles, and signed
// zeros among infinities, where a matmul that multiplies a zero a-element
// instead of skipping it turns 0·Inf into NaN.
var ConformancePayloads = []Payload{
	{"normal", func(rng *rand.Rand, dst []float64) {
		for i := range dst {
			dst[i] = rng.NormFloat64()
		}
	}},
	{"mixedmag", func(rng *rand.Rand, dst []float64) {
		for i := range dst {
			dst[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(201)-100)
		}
	}},
	{"subnormal", func(rng *rand.Rand, dst []float64) {
		for i := range dst {
			// Random subnormal (exponent field zero, random mantissa),
			// randomly signed, with a few exact zeros mixed in.
			bits := uint64(rng.Int63()) & (1<<52 - 1)
			if rng.Intn(2) == 0 {
				bits |= 1 << 63
			}
			if rng.Intn(8) == 0 {
				bits &= 1 << 63
			}
			dst[i] = math.Float64frombits(bits)
		}
	}},
	{"signedzero", func(rng *rand.Rand, dst []float64) {
		vals := []float64{0, math.Copysign(0, -1), 1, -1, 2}
		for i := range dst {
			dst[i] = vals[rng.Intn(len(vals))]
		}
	}},
	{"nan", func(rng *rand.Rand, dst []float64) {
		for i := range dst {
			if rng.Intn(4) == 0 {
				dst[i] = math.NaN()
			} else {
				dst[i] = rng.NormFloat64()
			}
		}
	}},
	{"inf", func(rng *rand.Rand, dst []float64) {
		for i := range dst {
			switch rng.Intn(8) {
			case 0:
				dst[i] = math.Inf(1)
			case 1:
				dst[i] = math.Inf(-1)
			default:
				dst[i] = rng.NormFloat64()
			}
		}
	}},
	{"zeroinf", func(rng *rand.Rand, dst []float64) {
		for i := range dst {
			switch r := rng.Intn(32); {
			case r < 8:
				dst[i] = math.Copysign(0, float64(r%2)-0.5)
			case r < 10:
				dst[i] = math.Inf(r%2*2 - 1)
			case r == 10:
				dst[i] = math.NaN()
			default:
				dst[i] = rng.NormFloat64()
			}
		}
	}},
}

// clampExp passes NaN and ±Inf through (the comparator's non-finite rule
// covers them — once a non-finite term exists, every summation order
// stays non-finite) and clamps finite magnitudes to 2^±maxExp, so no
// finite reduction can overflow in one order but not another.
func clampExp(x float64, maxExp int) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	f, e := math.Frexp(x)
	if e > maxExp {
		return math.Ldexp(f, maxExp)
	}
	if e < -maxExp {
		return math.Ldexp(f, -maxExp)
	}
	return x
}

// FillAs draws n payload values at width T. float64 gets the payload
// unchanged; float32 narrows through a 2^±30 clamp, the range the
// float32 reassociation budget is valid over (subnormal float64 payloads
// collapse to signed zero there, which is exactly the signed-zero class).
func FillAs[T Float](p Payload, rng *rand.Rand, n int) []T {
	buf := make([]float64, n)
	p.Fill(rng, buf)
	if same, ok := any(buf).([]T); ok {
		return same
	}
	out := make([]T, n)
	for i, v := range buf {
		out[i] = T(clampExp(v, 30))
	}
	return out
}

// FillFuzz fills dst from raw fuzz bytes, 8 bytes per element
// little-endian, cycling when raw is short and clamping magnitudes into
// the domain the reassociation tolerance bound is valid over at width T
// (2^±200 at float64, 2^±30 at float32).
func FillFuzz[T Float](dst []T, raw []byte) {
	if len(raw) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	maxExp := 200
	if is32[T]() {
		maxExp = 30
	}
	for i := range dst {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits |= uint64(raw[(i*8+b)%len(raw)]) << (8 * b)
		}
		dst[i] = T(clampExp(math.Float64frombits(bits), maxExp))
	}
}
