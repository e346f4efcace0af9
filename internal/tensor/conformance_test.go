package tensor_test

// Kernel conformance harness: every registered backend is driven, at
// both element widths, through the shared shape/payload grid in
// kernels/table.go and pinned to the scalar reference of the same width.
// Every kernel must match bit-for-bit (NaN payloads compare NaN-to-NaN),
// the reductions too, since every backend sums in one order. The fused
// autograd ops reuse the same grid in internal/autograd's backend
// conformance test, so a backend that passes here and there is safe to
// enable for the whole model.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/tensor/kernels"
)

// bothWidths runs a width-generic test body at float64 and float32.
func bothWidths(t *testing.T, f64, f32 func(*testing.T)) {
	t.Run("f64", f64)
	t.Run("f32", f32)
}

// scalarRef returns the always-registered reference backend at width T.
func scalarRef[T kernels.Float](t testing.TB) kernels.Backend[T] {
	t.Helper()
	sc, ok := kernels.Get[T]("scalar")
	if !ok {
		t.Fatal("scalar reference backend not registered")
	}
	return sc
}

// fill produces a deterministic width-T payload for (payload, seed).
func fill[T kernels.Float](p kernels.Payload, seed int64, n int) []T {
	return kernels.FillAs[T](p, rand.New(rand.NewSource(seed)), n)
}

// requireExact pins got to ref bit-for-bit (NaN matches NaN).
func requireExact[T kernels.Float](t *testing.T, ctx string, ref, got []T) {
	t.Helper()
	for i := range ref {
		if err := kernels.CompareExact(ref[i], got[i]); err != nil {
			t.Fatalf("%s: element %d: %v", ctx, i, err)
		}
	}
}

// requireSameBits pins got to ref bit for bit, NaN payloads included.
func requireSameBits[T kernels.Float](t *testing.T, ctx string, ref, got []T) {
	t.Helper()
	for i := range ref {
		if r, g := bitsOf(ref[i]), bitsOf(got[i]); r != g {
			t.Fatalf("%s: element %d: want %v (%#x), got %v (%#x)", ctx, i, ref[i], r, got[i], g)
		}
	}
}

// requireReductions pins bk's Dot, Norm2Sq and Sum over x and y to sc's
// bits (NaN matches NaN).
func requireReductions[T kernels.Float](t *testing.T, ctx string, sc, bk kernels.Backend[T], x, y []T) {
	t.Helper()
	requireExact(t, ctx+"/Dot", []T{sc.Dot(x, y)}, []T{bk.Dot(x, y)})
	requireExact(t, ctx+"/Norm2Sq", []T{sc.Norm2Sq(x)}, []T{bk.Norm2Sq(x)})
	requireExact(t, ctx+"/Sum", []T{sc.Sum(x)}, []T{bk.Sum(x)})
}

// bitsOf returns v's IEEE pattern at its own width.
func bitsOf[T kernels.Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// TestElementwiseConformance pins the order-preserving vector kernels of
// every backend to the scalar reference, including exact-aliased dst and
// special-value payloads.
func TestElementwiseConformance(t *testing.T) {
	bothWidths(t, elementwiseConformance[float64], elementwiseConformance[float32])
}

func elementwiseConformance[T kernels.Float](t *testing.T) {
	sc := scalarRef[T](t)
	alphas := []T{0, 1, -1, 0.37, -2.5e3, T(math.Inf(1)), T(math.NaN())}
	for _, name := range kernels.Names() {
		bk, _ := kernels.Get[T](name)
		for _, p := range kernels.ConformancePayloads {
			for li, n := range kernels.ConformanceLens {
				seed := int64(li + 1)
				x := fill[T](p, seed, n)
				y := fill[T](p, seed+1000, n)
				base := fill[T](p, seed+2000, n)
				ctx := fmt.Sprintf("%s/%s/n=%d", name, p.Name, n)

				ref, got := make([]T, n), make([]T, n)
				sc.Add(x, y, ref)
				bk.Add(x, y, got)
				requireExact(t, ctx+"/Add", ref, got)

				sc.Sub(x, y, ref)
				bk.Sub(x, y, got)
				requireExact(t, ctx+"/Sub", ref, got)

				sc.Mul(x, y, ref)
				bk.Mul(x, y, got)
				requireExact(t, ctx+"/Mul", ref, got)

				copy(ref, base)
				copy(got, base)
				sc.MulAcc(x, y, ref)
				bk.MulAcc(x, y, got)
				requireExact(t, ctx+"/MulAcc", ref, got)

				for _, a := range alphas {
					actx := fmt.Sprintf("%s/alpha=%v", ctx, a)
					copy(ref, base)
					copy(got, base)
					sc.ScaledMulAcc(a, x, y, ref)
					bk.ScaledMulAcc(a, x, y, got)
					requireExact(t, actx+"/ScaledMulAcc", ref, got)

					copy(ref, base)
					copy(got, base)
					sc.Axpy(a, x, ref)
					bk.Axpy(a, x, got)
					requireExact(t, actx+"/Axpy", ref, got)

					sc.Scale(a, x, ref)
					bk.Scale(a, x, got)
					requireExact(t, actx+"/Scale", ref, got)
				}

				// Exact aliasing: dst is x, then dst is y. The reference
				// runs on copies with the same aliasing pattern.
				refX, gotX := append([]T(nil), x...), append([]T(nil), x...)
				sc.Add(refX, y, refX)
				bk.Add(gotX, y, gotX)
				requireExact(t, ctx+"/Add(dst=x)", refX, gotX)

				refY, gotY := append([]T(nil), y...), append([]T(nil), y...)
				sc.Mul(x, refY, refY)
				bk.Mul(x, gotY, gotY)
				requireExact(t, ctx+"/Mul(dst=y)", refY, gotY)

				refS, gotS := append([]T(nil), x...), append([]T(nil), x...)
				sc.Scale(-1.5, refS, refS)
				bk.Scale(-1.5, gotS, gotS)
				requireExact(t, ctx+"/Scale(dst=x)", refS, gotS)

				sc.ELU(x, ref)
				bk.ELU(x, got)
				requireSameBits(t, ctx+"/ELU", ref, got)
				refE, gotE := append([]T(nil), x...), append([]T(nil), x...)
				sc.ELU(refE, refE)
				bk.ELU(gotE, gotE)
				requireSameBits(t, ctx+"/ELU(dst=x)", refE, gotE)
			}
		}
	}
}

// TestReduceConformance pins the reductions (Dot, Norm2Sq, Sum) and the
// SumAxis0 sweep to the scalar reference bit-for-bit.
func TestReduceConformance(t *testing.T) {
	bothWidths(t, reduceConformance[float64], reduceConformance[float32])
}

func reduceConformance[T kernels.Float](t *testing.T) {
	sc := scalarRef[T](t)
	for _, name := range kernels.Names() {
		bk, _ := kernels.Get[T](name)
		for _, p := range kernels.ConformancePayloads {
			for li, n := range kernels.ConformanceLens {
				seed := int64(100*li + 7)
				x := fill[T](p, seed, n)
				y := fill[T](p, seed+1, n)
				ctx := fmt.Sprintf("%s/%s/n=%d", name, p.Name, n)

				requireReductions(t, ctx, sc, bk, x, y)
			}
			for di, dm := range kernels.ConformanceDims {
				r, c := dm.M, dm.N
				m := fill[T](p, int64(1000+di), r*c)
				ctx := fmt.Sprintf("%s/%s/%dx%d", name, p.Name, r, c)

				ref, got := make([]T, c), make([]T, c)
				sc.SumAxis0(m, ref, r, c)
				bk.SumAxis0(m, got, r, c)
				requireExact(t, ctx+"/SumAxis0", ref, got)
			}
		}
	}
}

// TestMatMulConformance drives the matmul family of every backend through
// the geometry grid and pins it bit-for-bit. Partial [lo, hi)
// ranges verify the worker-split contract: rows outside the range must not
// be touched, and a split into two row chunks cannot change results.
func TestMatMulConformance(t *testing.T) {
	bothWidths(t, matMulConformance[float64], matMulConformance[float32])
}

func matMulConformance[T kernels.Float](t *testing.T) {
	sc := scalarRef[T](t)
	const sentinel = -777.25
	for _, name := range kernels.Names() {
		bk, _ := kernels.Get[T](name)
		for _, p := range kernels.ConformancePayloads {
			for di, dm := range kernels.ConformanceDims {
				m, k, n := dm.M, dm.K, dm.N
				seed := int64(10_000*di + 13)
				a := fill[T](p, seed, m*k)
				b := fill[T](p, seed+1, k*n)
				at := fill[T](p, seed+2, k*m) // (k×m) operand for T1
				bt := fill[T](p, seed+3, n*k) // (n×k) operand for T2
				xv := fill[T](p, seed+4, k)
				ctx := fmt.Sprintf("%s/%s/%dx%dx%d", name, p.Name, m, k, n)

				ref, got := make([]T, m*n), make([]T, m*n)
				sc.MatMul(a, b, ref, k, n, 0, m)
				bk.MatMul(a, b, got, k, n, 0, m)
				requireExact(t, ctx+"/MatMul", ref, got)

				split := make([]T, m*n)
				bk.MatMul(a, b, split, k, n, 0, m/2)
				bk.MatMul(a, b, split, k, n, m/2, m)
				requireExact(t, ctx+"/MatMul(two chunks)", ref, split)

				for i := range ref {
					ref[i], got[i] = 0, 0
				}
				sc.MatMulT1(at, b, ref, k, m, n, 0, m)
				bk.MatMulT1(at, b, got, k, m, n, 0, m)
				requireExact(t, ctx+"/MatMulT1", ref, got)

				sc.MatMulT2(a, bt, ref, k, n, 0, m)
				bk.MatMulT2(a, bt, got, k, n, 0, m)
				requireExact(t, ctx+"/MatMulT2", ref, got)

				refV, gotV := make([]T, m), make([]T, m)
				sc.MatVec(a, xv, refV, k, 0, m)
				bk.MatVec(a, xv, gotV, k, 0, m)
				requireExact(t, ctx+"/MatVec", refV, gotV)

				// Partial range: rows outside [1, m) keep their sentinel.
				if m >= 2 {
					for i := range got {
						got[i] = sentinel
					}
					for j := n; j < len(got); j++ {
						got[j] = 0 // rows in range start zeroed, as New() guarantees
					}
					bk.MatMul(a, b, got, k, n, 1, m)
					for j := 0; j < n; j++ {
						if got[j] != sentinel {
							t.Fatalf("%s/MatMul lo=1 wrote out-of-range element %d", ctx, j)
						}
					}
					for i := range ref {
						ref[i] = 0
					}
					sc.MatMul(a, b, ref, k, n, 1, m)
					requireExact(t, ctx+"/MatMul[1:]", ref[n:], got[n:])
				}
			}
		}
	}
}

// FuzzMatMulBackends cross-checks every backend's matmul family against
// the scalar reference on fuzz-chosen shapes and payloads.
func FuzzMatMulBackends(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(4), uint8(5))
	f.Add([]byte{0xff, 0x0f, 0x80, 0x42}, uint8(1), uint8(1), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x7f}, uint8(7), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, mm, kk, nn uint8) {
		fuzzMatMul[float64](t, raw, int(mm%12), int(kk%12), int(nn%12))
		fuzzMatMul[float32](t, raw, int(mm%12), int(kk%12), int(nn%12))
	})
}

func fuzzMatMul[T kernels.Float](t *testing.T, raw []byte, m, k, n int) {
	a := make([]T, m*k)
	b := make([]T, k*n)
	bt := make([]T, n*k)
	kernels.FillFuzz(a, raw)
	if len(raw) > 1 {
		kernels.FillFuzz(b, raw[1:])
		kernels.FillFuzz(bt, raw[1:])
	} else {
		kernels.FillFuzz(b, raw)
		kernels.FillFuzz(bt, raw)
	}
	sc, _ := kernels.Get[T]("scalar")
	for _, name := range kernels.Names() {
		if name == "scalar" {
			continue
		}
		bk, _ := kernels.Get[T](name)
		ref, got := make([]T, m*n), make([]T, m*n)
		sc.MatMul(a, b, ref, k, n, 0, m)
		bk.MatMul(a, b, got, k, n, 0, m)
		for i := range ref {
			if err := kernels.CompareExact(ref[i], got[i]); err != nil {
				t.Fatalf("%s/MatMul(%d,%d,%d) element %d: %v", name, m, k, n, i, err)
			}
		}
		sc.MatMulT2(a, bt, ref, k, n, 0, m)
		bk.MatMulT2(a, bt, got, k, n, 0, m)
		requireExact(t, fmt.Sprintf("%s/MatMulT2(%d,%d,%d)", name, m, k, n), ref, got)
	}
}

// FuzzReduceBackends cross-checks the reductions against the scalar
// reference on fuzz-chosen lengths and payloads.
func FuzzReduceBackends(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(33))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint16(9))
	f.Fuzz(func(t *testing.T, raw []byte, ln uint16) {
		fuzzReduce[float64](t, raw, int(ln%600))
		fuzzReduce[float32](t, raw, int(ln%600))
	})
}

func fuzzReduce[T kernels.Float](t *testing.T, raw []byte, n int) {
	x := make([]T, n)
	y := make([]T, n)
	kernels.FillFuzz(x, raw)
	if len(raw) > 2 {
		kernels.FillFuzz(y, raw[2:])
	} else {
		kernels.FillFuzz(y, raw)
	}
	sc, _ := kernels.Get[T]("scalar")
	for _, name := range kernels.Names() {
		if name == "scalar" {
			continue
		}
		bk, _ := kernels.Get[T](name)
		requireReductions(t, fmt.Sprintf("%s/n=%d", name, n), sc, bk, x, y)
	}
}

// FuzzELUBackends cross-checks every backend's ELU against the scalar
// reference on raw, unclamped bit patterns — 8 bytes per float64 element,
// 4 per float32 — into a fresh dst and in place, bit for bit.
func FuzzELUBackends(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0x20, 0x86, 0xc0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // −708, NaN
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})       // −Inf, −0
	f.Fuzz(func(t *testing.T, raw []byte) {
		x64 := make([]float64, len(raw)/8)
		for i := range x64 {
			x64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		fuzzELU(t, x64)
		x32 := make([]float32, len(raw)/4)
		for i := range x32 {
			x32[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		fuzzELU(t, x32)
	})
}

func fuzzELU[T kernels.Float](t *testing.T, x []T) {
	sc, _ := kernels.Get[T]("scalar")
	ref := make([]T, len(x))
	sc.ELU(x, ref)
	for _, name := range kernels.Names() {
		bk, _ := kernels.Get[T](name)
		got := make([]T, len(x))
		bk.ELU(x, got)
		requireSameBits(t, name+"/ELU", ref, got)
		copy(got, x)
		bk.ELU(got, got)
		requireSameBits(t, name+"/ELU(dst=x)", ref, got)
	}
}
