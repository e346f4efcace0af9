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

// requireBits runs an avx2 elementwise kernel over x, into a fresh dst
// and in place, and pins every element to want's bits (NaN payloads
// included).
func requireBits(t *testing.T, ctx string, kernel func(x, dst []float64), want func(float64) float64, x []float64) {
	t.Helper()
	got := make([]float64, len(x))
	kernel(x, got)
	alias := append([]float64(nil), x...)
	kernel(alias, alias)
	for i, v := range x {
		w := math.Float64bits(want(v))
		if g := math.Float64bits(got[i]); g != w {
			t.Fatalf("%s: f(%v [%#x]) element %d of %d = %#x, want %#x", ctx, v, math.Float64bits(v), i, len(x), g, w)
		}
		if g := math.Float64bits(alias[i]); g != w {
			t.Fatalf("%s: f(%v) in place, element %d of %d = %#x, want %#x", ctx, v, i, len(x), g, w)
		}
	}
}

// requireELUBits pins avx2's ELU to eluWant over x.
func requireELUBits(t *testing.T, ctx string, x []float64) {
	t.Helper()
	requireBits(t, "ELU "+ctx, avx2Backend{}.ELU, eluWant, x)
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
	expVia(spy, eluLoop[float64], x, got)
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
	expVia(spy, eluLoop[float64], x, got)
	if calls == 0 {
		t.Fatal("with FMA the kernel never ran")
	}
}

// geluWant is the GELU every backend must return, bit for bit, written
// out apart from geluLoop.
func geluWant(v float64) float64 {
	return 0.5 * v * (1 + math.Tanh(0.7978845608028654*(v+0.044715*v*v*v)))
}

// requireGELUBits pins avx2's GELU to geluWant over x.
func requireGELUBits(t *testing.T, ctx string, x []float64) {
	t.Helper()
	requireBits(t, "GELU "+ctx, avx2Backend{}.GELU, geluWant, x)
}

// geluU is the tanh argument GELU evaluates at x, in the definition's
// rounding order.
func geluU(x float64) float64 { return geluC * (x + 0.044715*x*x*x) }

// xAtU returns the last x ≥ 0 whose geluU lies below u and the first
// whose geluU does not, by bisection over the float64s.
func xAtU(u float64) (below, at float64) {
	lo, hi := 0.0, 64.0
	for math.Nextafter(lo, hi) < hi {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			mid = math.Nextafter(lo, hi)
		}
		if geluU(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// TestAVX2GELUIsGELU pins the assembly GELU to the math.Tanh definition
// bit for bit: at tanh's branch points (u either side of 0.625 and of
// 0.5·MAXLOG), at ±0 and subnormals, where x³ overflows, at ±Inf and
// NaN, each in every lane position of a 4- and an 8-block and over every
// tail length, on random bit patterns and random blocks, and on a dense
// sweep through all three branches.
func TestAVX2GELUIsGELU(t *testing.T) {
	if !hasAVX2 || !expFMA {
		t.Skip("host has no AVX2 with FMA: avx2's GELU is the scalar loop")
	}
	const maxLog = 8.8029691931113054295988e+01 // math.tanh's MAXLOG
	var specials []float64
	for _, u := range []float64{0.625, 0.5 * maxLog} {
		below, at := xAtU(u)
		if !(geluU(below) < u && geluU(at) >= u) {
			t.Fatalf("bisection for u = %v: u(%v) = %v, u(%v) = %v", u, below, geluU(below), at, geluU(at))
		}
		for _, x := range []float64{math.Nextafter(below, 0), below, at, math.Nextafter(at, 64)} {
			specials = append(specials, x, -x)
		}
	}
	specials = append(specials,
		0, math.Copysign(0, -1),
		0x1p-1074, -0x1p-1074, 0x1p-1060, -0x1p-1060, 0x1p-1022-0x1p-1074, -(0x1p-1022 - 0x1p-1074), 0x1p-1022, -0x1p-1022,
		1e-300, -1e-300, 1e-160, -1e-160,
		// (0.044715·x)·x·x overflows from about 1.59e103: u is ±Inf there.
		1e102, -1e102, 1.5e103, -1.5e103, 1.6e103, -1.6e103, 1e104, -1e104, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
		math.Float64frombits(0x7ff4000000000000),
		0.5, -0.5, 1, -1, 3, -3, 10.5, -10.5, 30, -30,
	)
	// The kernel itself takes finite-u blocks and declines the rest.
	in := []float64{-3, -1, -0.5, 0, 0.5, 1, 3, 1e102, -1e-300, -2, -3, -4, -5, -6, -7, 42, -1}
	if got := geluAsm(in, make([]float64, len(in))); got != 16 {
		t.Fatalf("geluAsm took %d of 17 finite elements, want 16", got)
	}
	in[9] = -1e104
	if got := geluAsm(in, make([]float64, len(in))); got != 8 {
		t.Fatalf("geluAsm took %d elements up to a block whose x³ overflows, want 8", got)
	}
	in[2] = math.NaN()
	if got := geluAsm(in, make([]float64, len(in))); got != 0 {
		t.Fatalf("geluAsm took %d elements of a NaN block, want 0", got)
	}

	requireGELUBits(t, "specials", specials)
	for _, s := range specials {
		requireGELUBits(t, "alone", []float64{s})
	}

	rng := rand.New(rand.NewSource(55))
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
				requireGELUBits(t, "lane", x)
			}
		}
	}
	for _, head := range []int{0, 8, 16, 24} {
		for tail := 0; tail < 8; tail++ {
			x := normals(head + tail)
			requireGELUBits(t, "tail", x)
			if len(x) > 0 {
				x[len(x)-1] = math.Inf(-1) // a declined last block
				requireGELUBits(t, "tail", x)
			}
		}
	}

	random := make([]float64, 1<<16)
	for i := range random {
		random[i] = math.Float64frombits(rng.Uint64())
	}
	requireGELUBits(t, "random bits", random)
	// Random patterns are mostly huge magnitudes; these reach every branch.
	for i := range random {
		random[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(12)-6)
	}
	requireGELUBits(t, "random blocks", random)

	const steps = 1 << 20
	sweep := make([]float64, 2*steps+1)
	for i := range sweep {
		sweep[i] = 12 * float64(i-steps) / steps // u from −72 to 72
	}
	requireGELUBits(t, "sweep [-12, 12]", sweep)
	for i := range sweep {
		sweep[i] = float64(i-steps) * 0x1p-20 / steps // near zero
	}
	requireGELUBits(t, "sweep near 0", sweep)
}

// TestAVX2GELUFinishesInTheLoop pins where each element of avx2's GELU
// is computed: with the detected FMA flag clear the kernel never runs;
// with it set the kernel takes every block but those holding a NaN, an
// Inf or an x whose cube overflows, and the scalar loop finishes those
// and the tail. Either way every element has the definition's bits.
func TestAVX2GELUFinishesInTheLoop(t *testing.T) {
	detected := expFMA
	defer func() { expFMA = detected }()
	calls, took := 0, 0
	spy := func(x, dst []float64) int {
		calls++
		n := geluAsm(x, dst)
		took += n
		return n
	}
	x := make([]float64, 67)
	for i := range x {
		x[i] = float64(i-40) / 3
	}
	x[20] = math.NaN() // declines block [16, 24)
	x[41] = 1e200      // x³ overflows: declines block [40, 48)
	x[58] = math.Inf(-1)
	check := func(ctx string, got []float64) {
		t.Helper()
		for i, v := range x {
			if math.Float64bits(got[i]) != math.Float64bits(geluWant(v)) {
				t.Fatalf("%s: element %d: %v, want %v", ctx, i, got[i], geluWant(v))
			}
		}
	}
	got := make([]float64, len(x))

	expFMA = false
	expVia(spy, geluLoop[float64], x, got)
	if calls != 0 {
		t.Fatalf("without FMA the kernel ran %d times", calls)
	}
	check("without FMA", got)

	if !hasAVX2 || !detected {
		return // the kernel cannot run here
	}
	expFMA = true
	got = make([]float64, len(x))
	expVia(spy, geluLoop[float64], x, got)
	// Blocks [0, 16), [24, 40) and [48, 56) go to the kernel; three
	// declined blocks and the 3-element tail go to the loop.
	if took != 40 {
		t.Fatalf("with FMA the kernel took %d elements in %d calls, want 40", took, calls)
	}
	check("with FMA", got)
	copy(got, x)
	expVia(spy, geluLoop[float64], got, got)
	check("with FMA, in place", got)
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
