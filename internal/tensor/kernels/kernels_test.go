package kernels

import (
	"math"
	"strings"
	"testing"
)

func nan() float64      { return math.NaN() }
func inf(s int) float64 { return math.Inf(s) }
func negZero() float64  { return math.Copysign(0, -1) }
func maxFloat() float64 { return math.MaxFloat64 }

func TestRegistryHasPortableBackends(t *testing.T) {
	names := Names()
	for _, want := range []string{"scalar", "unrolled"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("backend %q missing from registry %v", want, names)
		}
	}
	for _, n := range names {
		b64, ok64 := Get[float64](n)
		b32, ok32 := Get[float32](n)
		if !ok64 || !ok32 {
			t.Fatalf("Names lists %q but Get cannot find it at both widths", n)
		}
		if b64.Name() != n || b32.Name() != n {
			t.Fatalf("backend registered as %q reports Name()=%q/%q", n, b64.Name(), b32.Name())
		}
	}
}

func TestChooseSelection(t *testing.T) {
	sc, un := registry["scalar"], registry["unrolled"]
	both := map[string]*widths{"scalar": sc, "unrolled": un}
	onlyScalar := map[string]*widths{"scalar": sc}

	if got := choose("", both); got != un {
		t.Fatalf("empty request should pick best available, got %q", got.f64.Name())
	}
	if got := choose("scalar", both); got != sc {
		t.Fatalf("explicit scalar request ignored, got %q", got.f64.Name())
	}
	// A known backend the host lacks degrades to the best available.
	if got := choose("avx2", onlyScalar); got != sc {
		t.Fatalf("unavailable avx2 should fall back, got %q", got.f64.Name())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown backend name should panic")
		}
		if !strings.Contains(r.(string), "not a backend") {
			t.Fatalf("unexpected panic message %v", r)
		}
	}()
	choose("typo", both)
}

// TestUseSwapsAndRestores also pins the pairing rule: Use(name) steers
// both widths at once.
func TestUseSwapsAndRestores(t *testing.T) {
	orig := Active().Name()
	for _, name := range Names() {
		restore, err := Use(name)
		if err != nil {
			t.Fatal(err)
		}
		if Active().Name() != name || ActiveOf[float64]().Name() != name || ActiveOf[float32]().Name() != name {
			t.Fatalf("Use(%s) left %q/%q/%q active", name,
				Active().Name(), ActiveOf[float64]().Name(), ActiveOf[float32]().Name())
		}
		restore()
	}
	if Active().Name() != orig {
		t.Fatalf("restore left %q active, want %q", Active().Name(), orig)
	}
	if _, err := Use("nope"); err == nil {
		t.Fatal("Use of unknown backend should error")
	}
}

func TestULPDiff(t *testing.T) {
	cases := []struct {
		a, b float64
		want uint64
	}{
		{1, 1, 0},
		{1, 1 + 0x1p-52, 1},
		{0, 0x1p-1074, 1},          // zero to smallest subnormal
		{0x1p-1074, -0x1p-1074, 2}, // across zero
		{0, negZero(), 0},          // ±0 are the same point
		{1, 2, 1 << 52},            // one binade apart
		{nan(), nan(), 0},          // NaN matches NaN
		{nan(), 1, ^uint64(0)},     // NaN vs number is max
		{inf(1), maxFloat(), 1},    // Inf is one past MaxFloat64
	}
	for _, c := range cases {
		if got := ULPDiff(c.a, c.b); got != c.want {
			t.Errorf("ULPDiff(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := ULPDiff(c.b, c.a); got != c.want {
			t.Errorf("ULPDiff(%v, %v) = %d, want %d (asymmetric)", c.b, c.a, got, c.want)
		}
	}
}

// TestULPDiffFloat32 pins the float32 line: one ULP at 1 is 2⁻²³, and the
// same pair is far apart on the float64 line.
func TestULPDiffFloat32(t *testing.T) {
	a, b := float32(1), float32(1+0x1p-23)
	if got := ULPDiff(a, b); got != 1 {
		t.Errorf("ULPDiff(float32 1, 1+2^-23) = %d, want 1", got)
	}
	if got := ULPDiff(float64(a), float64(b)); got != 1<<29 {
		t.Errorf("the same values at float64 are %d ULP apart, want 2^29", got)
	}
	if got := ULPDiff(float32(0x1p-149), float32(-0x1p-149)); got != 2 {
		t.Errorf("ULPDiff across zero at float32 = %d, want 2", got)
	}
	if err := CompareAccum(float32(1), float32(1+0x1p-20), 4, 1e3); err != nil {
		t.Errorf("within the float32 budget should pass: %v", err)
	}
	if err := CompareAccum(float32(1), float32(1+0x1p-20), 4, 1e-3); err == nil {
		t.Error("outside the float32 budget must fail")
	}
}

func TestCompareAccumNonFiniteRule(t *testing.T) {
	if err := CompareAccum(inf(1), inf(-1), 4, 1); err != nil {
		t.Errorf("both non-finite should compare equal: %v", err)
	}
	if err := CompareAccum(nan(), inf(1), 4, 1); err != nil {
		t.Errorf("NaN vs Inf are both non-finite: %v", err)
	}
	if err := CompareAccum(1.0, inf(1), 4, 1); err == nil {
		t.Error("finite reference vs non-finite result must fail")
	}
	if err := CompareAccum(1, 1+0x1p-50, 4, 1e9); err != nil {
		t.Errorf("within budget should pass: %v", err)
	}
	if err := CompareAccum(1.0, 2.0, 4, 1); err == nil {
		t.Error("gross divergence must fail")
	}
}
