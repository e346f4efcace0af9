package parallel

import (
	"sync/atomic"
	"testing"
)

// withWorkers runs f with the pool width pinned to n.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestForCoversRangeExactly(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 7, 64, 1000, 4096} {
			for _, grain := range []int{1, 16, 100, 5000} {
				withWorkers(t, w, func() {
					hits := make([]int32, n)
					For(n, grain, func(lo, hi int) {
						if lo >= hi {
							t.Errorf("w=%d n=%d grain=%d: empty range [%d,%d)", w, n, grain, lo, hi)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Fatalf("w=%d n=%d grain=%d: index %d visited %d times", w, n, grain, i, h)
						}
					}
				})
			}
		}
	}
}

func TestForSequentialWhenSmall(t *testing.T) {
	withWorkers(t, 8, func() {
		calls := 0
		For(10, 100, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 10 {
				t.Fatalf("expected single inline range [0,10), got [%d,%d)", lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("expected 1 inline call, got %d", calls)
		}
	})
}

func TestForRespectsGrain(t *testing.T) {
	withWorkers(t, 4, func() {
		For(1000, 128, func(lo, hi int) {
			if hi-lo < 128 && hi != 1000 {
				t.Errorf("chunk [%d,%d) smaller than grain 128", lo, hi)
			}
		})
	})
}

// TestForNested verifies that a For called from inside a For worker makes
// progress even when the pool is saturated (the caller-participates
// invariant).
func TestForNested(t *testing.T) {
	withWorkers(t, 4, func() {
		var total atomic.Int64
		For(64, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				For(64, 1, func(ilo, ihi int) {
					total.Add(int64(ihi - ilo))
				})
			}
		})
		if got := total.Load(); got != 64*64 {
			t.Fatalf("nested For executed %d inner indices, want %d", got, 64*64)
		}
	})
}

func TestSetWorkersClamps(t *testing.T) {
	prev := SetWorkers(0)
	defer SetWorkers(prev)
	if Workers() != 1 {
		t.Fatalf("SetWorkers(0) should clamp to 1, got %d", Workers())
	}
}

func BenchmarkForOverhead(b *testing.B) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	sink := make([]float64, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(len(sink), 1<<12, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				sink[k] += 1
			}
		})
	}
}
