package tensor

import (
	"math/rand"
	"testing"

	"edgekg/internal/flops"
	"edgekg/internal/parallel"
)

func countMeter(fn func()) (int64, int64) { return flops.Count(fn) }

// withWorkers runs f with the pool width pinned to n.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	f()
}

func randMat(rng *rand.Rand, r, c int) *Tensor {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// TestParallelMatmulFamilyEquivalence pins the determinism contract: every
// kernel decomposes over output rows, so parallel results must be
// bit-for-bit identical to the sequential ones at any worker count, on
// sizes straddling the parallel cutoff.
func TestParallelMatmulFamilyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []struct{ m, k, n int }{
		{3, 5, 4},      // far below cutoff
		{64, 64, 64},   // at the cutoff boundary
		{97, 130, 113}, // above cutoff, non-divisible dims
	}
	for _, sz := range sizes {
		a := randMat(rng, sz.m, sz.k)
		b := randMat(rng, sz.k, sz.n)
		at := randMat(rng, sz.k, sz.m)
		bt := randMat(rng, sz.n, sz.k)
		x := randMat(rng, 1, sz.k).Reshape(sz.k)

		var seqMM, seqT1, seqT2, seqMV *Tensor
		withWorkers(t, 1, func() {
			seqMM = MatMul(a, b)
			seqT1 = MatMulT1(at, b)
			seqT2 = MatMulT2(a, bt)
			seqMV = MatVec(a, x)
		})
		for _, w := range []int{2, 4, 8} {
			withWorkers(t, w, func() {
				if !AllClose(MatMul(a, b), seqMM, 0) {
					t.Errorf("MatMul %dx%dx%d: parallel(w=%d) != sequential", sz.m, sz.k, sz.n, w)
				}
				if !AllClose(MatMulT1(at, b), seqT1, 0) {
					t.Errorf("MatMulT1 %dx%dx%d: parallel(w=%d) != sequential", sz.m, sz.k, sz.n, w)
				}
				if !AllClose(MatMulT2(a, bt), seqT2, 0) {
					t.Errorf("MatMulT2 %dx%dx%d: parallel(w=%d) != sequential", sz.m, sz.k, sz.n, w)
				}
				if !AllClose(MatVec(a, x), seqMV, 0) {
					t.Errorf("MatVec %dx%d: parallel(w=%d) != sequential", sz.m, sz.k, w)
				}
			})
		}
	}
}

func TestParallelElementwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Above the elementwise cutoff so the parallel path engages.
	n := elemwiseParallelLen * 2
	a := randMat(rng, n/64, 64)
	b := randMat(rng, n/64, 64)
	var want [6]*Tensor
	withWorkers(t, 1, func() {
		want[0] = Add(a, b)
		want[1] = Sub(a, b)
		want[2] = Mul(a, b)
		want[3] = Scale(a, 1.7)
		want[4] = GELUInPlace(a.Clone())
		want[5] = SoftmaxRows(a)
	})
	withWorkers(t, 4, func() {
		got := [6]*Tensor{
			Add(a, b), Sub(a, b), Mul(a, b), Scale(a, 1.7),
			GELUInPlace(a.Clone()), SoftmaxRows(a),
		}
		names := [6]string{"Add", "Sub", "Mul", "Scale", "GELUInPlace", "SoftmaxRows"}
		for i := range got {
			if !AllClose(got[i], want[i], 0) {
				t.Errorf("%s: parallel != sequential", names[i])
			}
		}
		// In-place variants.
		ip := a.Clone()
		AddInPlace(ip, b)
		if !AllClose(ip, want[0], 0) {
			t.Error("AddInPlace: parallel != sequential")
		}
		axpyWant := Add(a, Scale(b, 0.5))
		ip = a.Clone()
		AxpyInPlace(ip, 0.5, b)
		if !AllClose(ip, axpyWant, 1e-15) {
			t.Error("AxpyInPlace: parallel mismatch")
		}
	})
}

func TestTransposeBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	// Sizes exercising partial tiles on both axes.
	for _, sz := range []struct{ r, c int }{{1, 1}, {7, 3}, {32, 32}, {33, 65}, {100, 47}} {
		a := randMat(rng, sz.r, sz.c)
		at := Transpose(a)
		if at.Rows() != sz.c || at.Cols() != sz.r {
			t.Fatalf("Transpose shape %v, want [%d %d]", at.Shape(), sz.c, sz.r)
		}
		for i := 0; i < sz.r; i++ {
			for j := 0; j < sz.c; j++ {
				if at.At2(j, i) != a.At2(i, j) {
					t.Fatalf("Transpose(%d,%d) mismatch", i, j)
				}
			}
		}
	}
}

func TestTransposeCountsBytes(t *testing.T) {
	// A transpose does no arithmetic; it reports byte traffic instead of
	// FLOPs so the op ledger stays comparable across revisions.
	ops, bytes := countMeter(func() { Transpose(Ones(8, 16)) })
	if ops != 0 {
		t.Errorf("Transpose reported %d FLOPs, want 0", ops)
	}
	if bytes != 16*8*16 {
		t.Errorf("Transpose reported %d bytes, want %d", bytes, 16*8*16)
	}
}

func TestWorkspacePooling(t *testing.T) {
	ws := NewWorkspace()
	f := Scratch[float64](ws, 100)
	if len(f) != 100 {
		t.Fatalf("Floats len %d", len(f))
	}
	for i := range f {
		f[i] = 7
	}
	m := Alloc[float64](ws, 4, 5)
	if m.Rows() != 4 || m.Cols() != 5 {
		t.Fatalf("workspace tensor shape %v", m.Shape())
	}
	m.Fill(3)
	ws.Release()

	// Recycled buffers must come back zeroed.
	ws2 := NewWorkspace()
	defer ws2.Release()
	f2 := Scratch[float64](ws2, 100)
	for i, v := range f2 {
		if v != 0 {
			t.Fatalf("recycled float buffer dirty at %d: %v", i, v)
		}
	}
	m2 := Alloc[float64](ws2, 4, 5)
	for _, v := range m2.Data() {
		if v != 0 {
			t.Fatal("recycled workspace tensor dirty")
		}
	}
}

func TestWorkspaceHugeRequest(t *testing.T) {
	ws := NewWorkspace()
	// Beyond the retain cap: must still work, and the slab it grew must
	// not stay with the pooled workspace.
	huge := Scratch[float64](ws, maxRetained+1)
	if len(huge) != maxRetained+1 || cap(huge) != maxRetained+1 {
		t.Fatalf("huge request: len %d cap %d, want %d", len(huge), cap(huge), maxRetained+1)
	}
	ws.Release()
	if n := len(ws.f64.slab); n > maxRetained {
		t.Fatalf("released workspace kept a %d-element slab, above the %d cap", n, maxRetained)
	}
}
