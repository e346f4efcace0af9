// Package kernels holds the dispatchable compute backends behind the
// tensor package's hot inner loops. A Backend bundles the scalar-level
// kernels — the matmul family, elementwise arithmetic, axpy, reductions,
// and the fused-op primitives the autograd layer leans on — operating on
// raw row-major []T storage (T is float32 or float64), so callers
// (internal/tensor and the fused ops in internal/autograd) keep owning
// shape checks, FLOP accounting and the parallel worker split and hand
// each worker's [lo, hi) range to the active backend.
//
// Three backends register at init, each at both widths:
//
//   - "scalar": the reference. Plain Go loops: the elementwise kernels
//     and matmuls byte-for-byte as the tensor package shipped them before
//     dispatch existed, and the reductions in the lane order below. Every
//     other backend is pinned against it by the conformance harness.
//   - "unrolled": 4×-unrolled, register-blocked, bounds-check-eliminated
//     Go loops, with scalar's reductions.
//   - "avx2" (amd64 with AVX2 only): hand-written Go assembly for the
//     dot/axpy/mul-accumulate/sum microkernels and, at float64 on hosts
//     with FMA, the ELU and GELU, with the unrolled loops filling in the
//     rest. At
//     float64 MatMul and MatMulT1 run a row kernel that walks one output
//     row's p-quads in one call and returns at the first quad holding a
//     zero a-element, which Go finishes p by p with the reference's zero
//     skip before calling the kernel again; at float32 they call a quad
//     kernel per four p-steps.
//
// scalar and unrolled are written once over T; the two assembly files
// and their Go stubs are the only width-specific kernels. Training and
// adaptation run at float64 only; float32 serves the eval-only scoring
// engine.
//
// Numeric contract. Every kernel returns the same bits on every backend,
// NaN/Inf/±0 payloads included (a NaN's payload bits aside), so the
// backend changes speed only. Elementwise kernels, MatMul, MatMulT1 and
// SumAxis0 keep each element's scalar-loop order: vectorisation runs
// across independent elements, and multiplies and adds round separately
// (no FMA contraction). Dot, Norm2Sq, Sum, and MatMulT2 and MatVec (dot
// products) sum in avx2's lane order, which dotLanes and sumLanes
// (scalar.go) write out in Go. ELU is bit-identical to math.Exp and GELU
// to math.Tanh: the avx2 kernels run the FMA sequence of Go's own amd64
// exp lane by lane (GELU around it math.Tanh's three branches, blended by
// lane masks), on exactly the hosts where math.Exp runs it; math.Exp
// rounds differently on a host without FMA, so the answer is one per host
// class (FMA or not). Every backend is deterministic at any worker count, which
// is what keeps the repo-wide bit-equivalence suites meaningful.
//
// Selection. The best available backend is chosen at init (avx2 when the
// CPU supports it, unrolled otherwise). EDGEKG_BACKEND=scalar|unrolled|avx2
// overrides; naming a backend the host cannot run (avx2 on a non-AVX2
// machine) falls back to the best available so one CI configuration runs
// everywhere, while an unknown name panics — that is a typo, not a
// capability gap.
package kernels

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// Float is the element-width constraint of every kernel and tensor.
type Float interface{ float32 | float64 }

// Backend is one complete kernel set at width T. All slice arguments are
// row-major storage; lengths are validated by the caller (the tensor
// package panics on shape errors before dispatch). Elementwise kernels
// permit dst to alias x or y exactly (same base, same length); partial
// overlap is undefined.
type Backend[T Float] interface {
	// Name returns the registry key ("scalar", "unrolled", "avx2").
	Name() string

	// Dot returns Σ x[i]·y[i], summed in the lane order.
	Dot(x, y []T) T
	// Norm2Sq returns Σ x[i]², summed in the lane order.
	Norm2Sq(x []T) T
	// Sum returns Σ x[i], summed in the lane order.
	Sum(x []T) T

	// Add stores x + y into dst. Order-preserving.
	Add(x, y, dst []T)
	// Sub stores x − y into dst. Order-preserving.
	Sub(x, y, dst []T)
	// Mul stores x ⊙ y into dst. Order-preserving.
	Mul(x, y, dst []T)
	// MulAcc accumulates dst += x ⊙ y. Order-preserving.
	MulAcc(x, y, dst []T)
	// ScaledMulAcc accumulates dst[i] += (alpha·x[i])·y[i], with exactly
	// that rounding order — it is the fused edge-aggregate backward's
	// inner kernel, and (alpha·x)·y is what the composed reference ops
	// compute. Order-preserving.
	ScaledMulAcc(alpha T, x, y, dst []T)
	// Axpy accumulates y += alpha·x. Order-preserving.
	Axpy(alpha T, x, y []T)
	// Scale stores alpha·x into dst. Order-preserving.
	Scale(alpha T, x, dst []T)
	// ELU stores the exponential linear unit (alpha = 1) of x into dst:
	// x where x > 0, else math.Exp(x) − 1 evaluated at float64 and rounded
	// to T. Order-preserving, and bit-identical to math.Exp.
	ELU(x, dst []T)
	// GELU stores the tanh-approximated Gaussian error linear unit of x
	// into dst: 0.5·x·(1 + math.Tanh(√(2/π)·(x + 0.044715·x³))) evaluated
	// at float64 in Go's order and rounded to T. Order-preserving, and
	// bit-identical to math.Tanh.
	GELU(x, dst []T)

	// MatMul computes output rows [lo, hi) of a(m×k)·b(k×n) into
	// out(m×n), accumulating over p in ascending order with the
	// reference's skip of zero a-elements. Order-preserving.
	MatMul(a, b, out []T, k, n, lo, hi int)
	// MatMulT1 computes output rows [lo, hi) of aᵀ·b where a is (kk×m)
	// and b is (kk×n), accumulating over p ascending with the zero skip.
	// Order-preserving.
	MatMulT1(a, b, out []T, kk, m, n, lo, hi int)
	// MatMulT2 computes output rows [lo, hi) of a(m×k)·bᵀ where b is
	// (n×k). Each output element is a k-term Dot.
	MatMulT2(a, b, out []T, k, n, lo, hi int)
	// MatVec computes elements [lo, hi) of a(m×k)·x into out(m), each a
	// k-term Dot.
	MatVec(a, x, out []T, k, lo, hi int)

	// SumAxis0 accumulates the column sums of m(r×c) into out(c),
	// sweeping rows in ascending order. Order-preserving.
	SumAxis0(m, out []T, r, c int)
}

// widths is one registered backend: the same kernel set at both widths
// under one name, so EDGEKG_BACKEND and Use steer them together.
type widths struct {
	f64 Backend[float64]
	f32 Backend[float32]
}

// is32 reports whether T is float32.
func is32[T Float]() bool {
	var z T
	_, ok := any(z).(float32)
	return ok
}

// at returns the backend's kernel set at width T. It asserts a pointer
// to the field, a concrete type, so the check is one type-word compare;
// asserting the interface value itself would look up an itab per call.
func at[T Float](w *widths) Backend[T] {
	if b, ok := any(&w.f64).(*Backend[T]); ok {
		return *b
	}
	return *any(&w.f32).(*Backend[T])
}

// registry is populated only from this package's init, so lookups after
// program start are lock-free.
var (
	registry = map[string]*widths{}
	active   atomic.Pointer[widths]
)

// register adds a backend to the registry. Called from init; duplicate
// or mismatched names are a programming error.
func register(f64 Backend[float64], f32 Backend[float32]) {
	name := f64.Name()
	if _, dup := registry[name]; dup || f32.Name() != name {
		panic(fmt.Sprintf("kernels: bad backend registration %q/%q", name, f32.Name()))
	}
	registry[name] = &widths{f64: f64, f32: f32}
}

// Names returns the registered backend names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the named backend at width T.
func Get[T Float](name string) (Backend[T], bool) {
	w, ok := registry[name]
	if !ok {
		return nil, false
	}
	return at[T](w), true
}

// ActiveOf returns the width-T kernel set of the backend the tensor and
// autograd kernels dispatch to.
func ActiveOf[T Float]() Backend[T] { return at[T](active.Load()) }

// Active returns the active backend at float64, the width of everything
// that differentiates.
func Active() Backend[float64] { return active.Load().f64 }

// Use activates the named backend (both widths) and returns a restore
// function that reinstates the previous one. It is the test/bench hook
// behind the per-backend conformance and benchmark matrices; swapping
// backends while kernels are executing on other goroutines is a data
// race, so callers must quiesce first.
func Use(name string) (func(), error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown backend %q (have %v)", name, Names())
	}
	prev := active.Swap(w)
	return func() { active.Store(prev) }, nil
}

// choose resolves the startup backend from an EDGEKG_BACKEND-style
// request against the registered set. Empty request → best available;
// a known-but-unregistered name (avx2 on a host without it) → best
// available; an unknown name panics.
func choose(request string, available map[string]*widths) *widths {
	best := func() *widths {
		for _, name := range []string{"avx2", "unrolled", "scalar"} {
			if w, ok := available[name]; ok {
				return w
			}
		}
		panic("kernels: no backends registered")
	}
	switch request {
	case "":
		return best()
	case "scalar", "unrolled", "avx2":
		if w, ok := available[request]; ok {
			return w
		}
		// A real backend this host cannot run: degrade, don't die.
		return best()
	default:
		panic(fmt.Sprintf("kernels: EDGEKG_BACKEND=%q is not a backend (want scalar|unrolled|avx2)", request))
	}
}

func init() {
	register(scalarBackend[float64]{}, scalarBackend[float32]{})
	register(unrolledBackend[float64]{}, unrolledBackend[float32]{})
	registerArch() // avx2 on capable amd64 hosts, nothing elsewhere
	active.Store(choose(os.Getenv("EDGEKG_BACKEND"), registry))
}
