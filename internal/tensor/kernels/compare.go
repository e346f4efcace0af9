package kernels

import (
	"fmt"
	"math"
)

// Divergence comparators: how the conformance harness pins a backend's
// result to the scalar reference. Two budgets exist, matching the two
// kernel classes in the Backend contract.

// ord maps a float onto a monotonic integer line at its own width, so
// distances work across zero; bits is its raw IEEE pattern for messages.
func ord[T Float](f T) (line int64, bits uint64) {
	switch v := any(f).(type) {
	case float32:
		b := math.Float32bits(v)
		line = int64(int32(b))
		if line < 0 {
			line = math.MinInt32 - line
		}
		return line, uint64(b)
	default:
		b := math.Float64bits(float64(f))
		line = int64(b)
		if line < 0 {
			line = math.MinInt64 - line
		}
		return line, b
	}
}

// ULPDiff returns the distance between a and b in units of last place at
// width T — the number of representable values strictly between them,
// plus one if they differ. NaN against anything is the maximum distance.
func ULPDiff[T Float](a, b T) uint64 {
	if a != a || b != b { // NaN
		if a != a && b != b {
			return 0
		}
		return math.MaxUint64
	}
	oa, _ := ord(a)
	ob, _ := ord(b)
	if oa > ob {
		oa, ob = ob, oa
	}
	return uint64(ob - oa)
}

// CompareExact enforces the order-preserving budget: identical bits,
// except that any NaN matches any NaN (payload bits may differ across
// hardware multiply paths).
func CompareExact[T Float](ref, got T) error {
	if ref != ref && got != got {
		return nil
	}
	_, rb := ord(ref)
	_, gb := ord(got)
	if rb != gb {
		return fmt.Errorf("want %v (%#x), got %v (%#x), %d ULP apart", ref, rb, got, gb, ULPDiff(ref, got))
	}
	return nil
}

// AccumBudget is the reassociating-kernel tolerance for an n-term
// reduction at width T whose terms have total magnitude absSum: the
// classic n·ε·Σ|tᵢ| backward-error bound with a 4× cushion for the split
// accumulator trees. absSum is computed in float64 so the budget itself
// carries no float32 rounding.
func AccumBudget[T Float](n int, absSum float64) float64 {
	eps := 0x1p-52
	if is32[T]() {
		eps = 0x1p-23
	}
	return 4 * float64(n+1) * eps * absSum
}

// CompareAccum enforces the reassociating budget: both NaN is equal,
// any non-finite reference requires a non-finite result (term order
// cannot rescue a sum that contains an Inf or NaN term), and finite
// values must sit within a few ULP or the AccumBudget bound for the
// term-magnitude sum.
func CompareAccum[T Float](ref, got T, n int, absSum float64) error {
	r64, g64 := float64(ref), float64(got)
	refBad := math.IsNaN(r64) || math.IsInf(r64, 0)
	gotBad := math.IsNaN(g64) || math.IsInf(g64, 0)
	if refBad || gotBad {
		if refBad && gotBad {
			return nil
		}
		return fmt.Errorf("want %v, got %v (finite/non-finite mismatch)", ref, got)
	}
	if ULPDiff(ref, got) <= 4 {
		return nil
	}
	if d := math.Abs(r64 - g64); d > AccumBudget[T](n, absSum) {
		return fmt.Errorf("want %v, got %v: |Δ|=%g exceeds budget %g (n=%d, Σ|terms|=%g, %d ULP)",
			ref, got, d, AccumBudget[T](n, absSum), n, absSum, ULPDiff(ref, got))
	}
	return nil
}
