package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// eluWant is the ELU every backend must return, bit for bit.
func eluWant(v float64) float64 {
	if v > 0 {
		return v
	}
	return math.Exp(v) - 1
}

// requireELUBits runs avx2's ELU over x, into a fresh dst and in place,
// and pins every element to eluWant's bits (NaN payloads included).
func requireELUBits(t *testing.T, ctx string, x []float64) {
	t.Helper()
	got := make([]float64, len(x))
	avx2Backend{}.ELU(x, got)
	alias := append([]float64(nil), x...)
	avx2Backend{}.ELU(alias, alias)
	for i, v := range x {
		want := math.Float64bits(eluWant(v))
		if g := math.Float64bits(got[i]); g != want {
			t.Fatalf("%s: ELU(%v [%#x]) element %d of %d = %#x, want %#x", ctx, v, math.Float64bits(v), i, len(x), g, want)
		}
		if g := math.Float64bits(alias[i]); g != want {
			t.Fatalf("%s: ELU(%v) in place, element %d of %d = %#x, want %#x", ctx, v, i, len(x), g, want)
		}
	}
}

// TestAVX2ELUIsMathExp pins the assembly ELU to math.Exp(x) − 1 bit for
// bit: at the scalar-fallback edges, on the special values in every lane
// position of a 4- and an 8-block and over every tail length, on random
// bit patterns, and on a dense sweep of the kernel's whole range.
func TestAVX2ELUIsMathExp(t *testing.T) {
	if !hasAVX2 || !expFMA {
		t.Skip("host has no AVX2 with FMA: avx2's ELU is the scalar loop")
	}
	specials := []float64{
		// The −708 floor and math.Exp's denormal and underflow edges.
		-707.9, -708, math.Nextafter(-708, 0), math.Nextafter(-708, math.Inf(-1)),
		-708.39, -708.4, -709, -745.13, -745.2, -1e300, math.Inf(-1),
		0, math.Copysign(0, -1),
		0x1p-1074, -0x1p-1074, 0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074), -0x1p-1022,
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
		math.Float64frombits(0x7ff4000000000000),
		math.Inf(1), 709.7, 709.8, 710, 1e300, math.MaxFloat64, -1e-300, -0.5, 1,
	}
	// The kernel itself takes in-range blocks and declines the rest.
	in := []float64{-708, -1, -0.5, 0, 0.5, 1, 709, 1e300, -1e-300, -2, -3, -4, -5, -6, -7, 42, -1}
	if got := eluAsm(in, make([]float64, len(in))); got != 16 {
		t.Fatalf("eluAsm took %d of 17 in-range elements, want 16", got)
	}
	in[9] = math.Nextafter(-708, math.Inf(-1))
	if got := eluAsm(in, make([]float64, len(in))); got != 8 {
		t.Fatalf("eluAsm took %d elements up to a block below −708, want 8", got)
	}
	in[2] = math.NaN()
	if got := eluAsm(in, make([]float64, len(in))); got != 0 {
		t.Fatalf("eluAsm took %d elements of a NaN block, want 0", got)
	}

	requireELUBits(t, "specials", specials)
	for _, s := range specials {
		requireELUBits(t, "alone", []float64{s})
	}

	rng := rand.New(rand.NewSource(38))
	normals := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	for _, block := range []int{4, 8, 16} {
		for _, s := range specials {
			for p := 0; p < block; p++ {
				x := normals(block)
				x[p] = s
				requireELUBits(t, "lane", x)
			}
		}
	}
	for _, head := range []int{0, 8, 16, 24} {
		for tail := 0; tail < 8; tail++ {
			x := normals(head + tail)
			requireELUBits(t, "tail", x)
			if len(x) > 0 {
				x[len(x)-1] = -709 // a declined last block
				requireELUBits(t, "tail", x)
			}
		}
	}

	random := make([]float64, 1<<16)
	for i := range random {
		random[i] = math.Float64frombits(rng.Uint64())
	}
	requireELUBits(t, "random bits", random)
	// Random patterns are mostly huge magnitudes; these sit in range.
	for i := range random {
		random[i] = -math.Abs(random[i])
		if !(random[i] >= -708) {
			random[i] = -708 * rng.Float64()
		}
	}
	requireELUBits(t, "random in range", random)

	const steps = 1 << 20
	sweep := make([]float64, steps+1)
	for i := range sweep {
		sweep[i] = -708 * float64(i) / steps
	}
	requireELUBits(t, "sweep [-708, 0]", sweep)
	for i := range sweep {
		sweep[i] = -float64(i) * 0x1p-20 / steps // near zero, where k = 0
	}
	requireELUBits(t, "sweep near 0", sweep)
}

// TestAVX2ELUNeedsFMA pins the gate: with the detected FMA flag clear —
// a host where math.Exp takes its non-FMA branch — avx2's ELU is the
// scalar loop and never reaches the assembly kernel; with it set, it does.
func TestAVX2ELUNeedsFMA(t *testing.T) {
	detected := expFMA
	defer func() { expFMA = detected }()
	calls := 0
	spy := func(x, dst []float64) int {
		calls++
		return eluAsm(x, dst)
	}
	x := make([]float64, 67)
	for i := range x {
		x[i] = float64(i-40) / 7
	}
	got := make([]float64, len(x))

	expFMA = false
	eluVia(spy, x, got)
	if calls != 0 {
		t.Fatalf("without FMA the kernel ran %d times", calls)
	}
	for i, v := range x {
		if math.Float64bits(got[i]) != math.Float64bits(eluWant(v)) {
			t.Fatalf("element %d: %v, want %v", i, got[i], eluWant(v))
		}
	}

	if !hasAVX2 || !detected {
		return // the kernel cannot run here
	}
	expFMA = true
	eluVia(spy, x, got)
	if calls == 0 {
		t.Fatal("with FMA the kernel never ran")
	}
}

// TestMatmulRowAsmStops pins the row kernel's exits: it walks whole
// quads, stops before the first quad holding a ±0 a-element (a NaN is
// nonzero, as in Go) and when fewer than four p-steps are left, and reads
// a at its stride.
func TestMatmulRowAsmStops(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host has no AVX2")
	}
	const n = 11
	for _, c := range []struct {
		name   string
		a      []float64
		stride int
		want   int
	}{
		{"full quads, then a tail", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1, 8},
		{"zero in the second quad", []float64{1, 2, 3, 4, 5, 0, 7, 8, 9}, 1, 4},
		{"negative zero first", []float64{math.Copysign(0, -1), 2, 3, 4}, 1, 0},
		{"NaN is nonzero", []float64{1, math.NaN(), 3, 4, 5}, 1, 4},
		{"fewer than four", []float64{1, 2, 3}, 1, 0},
		{"strided, zero off the stride", []float64{1, 0, 2, 0, 3, 0, 4, 0, 5, 9, 6, 9, 7, 9, 0, 9}, 2, 4},
	} {
		k := (len(c.a) + c.stride - 1) / c.stride
		b := make([]float64, k*n)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		out := make([]float64, n)
		if got := matmulRowAsm(c.a, b, out, k, c.stride); got != c.want {
			t.Errorf("%s: kernel did %d of %d p-steps, want %d", c.name, got, k, c.want)
		}
		want := make([]float64, n)
		for p := 0; p < c.want; p++ {
			for j := range want {
				want[j] += c.a[p*c.stride] * b[p*n+j]
			}
		}
		for j := range want {
			if math.Float64bits(out[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: out[%d] = %v, want %v", c.name, j, out[j], want[j])
			}
		}
	}
}
