package kernels

import (
	"fmt"
	"math"
)

// The comparator the conformance harness pins a backend's result to the
// scalar reference with: every kernel must return the reference's bits.

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

// CompareExact requires identical bits, except that any NaN matches any
// NaN (payload bits may differ across hardware multiply paths).
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
