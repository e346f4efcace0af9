package parallel

import (
	"sync/atomic"
	"testing"
)

func TestGroupRunsEveryTask(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var sum atomic.Int64
	var g Group
	const n = 100
	for i := 1; i <= n; i++ {
		i := i
		g.Go(func() { sum.Add(int64(i)) })
	}
	g.Wait()
	if got := sum.Load(); got != n*(n+1)/2 {
		t.Fatalf("sum = %d, want %d", got, n*(n+1)/2)
	}
}

// TestGroupSequentialAtOneWorker pins the degradation contract: with
// Workers() == 1 every Go call runs inline in submission order.
func TestGroupSequentialAtOneWorker(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	var order []int
	var g Group
	for i := 0; i < 5; i++ {
		i := i
		g.Go(func() { order = append(order, i) })
		if len(order) != i+1 {
			t.Fatalf("task %d did not run inline", i)
		}
	}
	g.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestGroupNested checks that group tasks can themselves use For and
// nested groups without deadlocking, even when the pool is saturated.
func TestGroupNested(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var total atomic.Int64
	var g Group
	for i := 0; i < 16; i++ {
		g.Go(func() {
			var inner Group
			for j := 0; j < 4; j++ {
				inner.Go(func() {
					For(64, 8, func(lo, hi int) {
						total.Add(int64(hi - lo))
					})
				})
			}
			inner.Wait()
		})
	}
	g.Wait()
	if got := total.Load(); got != 16*4*64 {
		t.Fatalf("total = %d, want %d", got, 16*4*64)
	}
}

func TestGroupReuseAfterWait(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	var count atomic.Int64
	var g Group
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			g.Go(func() { count.Add(1) })
		}
		g.Wait()
		if got := count.Load(); got != int64(8*(round+1)) {
			t.Fatalf("round %d: count = %d", round, got)
		}
	}
}
