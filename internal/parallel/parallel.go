// Package parallel provides the shared worker pool the numerical kernels
// and the detector pipeline run on. It exposes For, which splits a
// half-open index range across the pool, and Group, which runs tasks
// submitted one at a time.
//
// Design notes:
//
//   - The pool is process-wide and sized from GOMAXPROCS by default; the
//     EDGEKG_WORKERS environment variable (or SetWorkers) overrides it.
//     Workers(1) disables parallelism entirely and every call runs inline
//     on the caller's goroutine.
//
//   - The submitting goroutine always participates in its own job, claiming
//     chunks from the same atomic cursor as the pool workers. Pool workers
//     are pure accelerators: a job can always be finished by its caller
//     alone, so nested For calls (a parallel kernel invoked from inside a
//     parallel pipeline stage) cannot deadlock no matter how busy the pool
//     is. Job hand-off to the pool is non-blocking for the same reason.
//
//   - Chunk claiming is dynamic (atomic fetch-add over chunk indices), so
//     ranges with skewed per-index cost still balance, but each chunk is at
//     least `grain` indices so tiny inputs never pay goroutine overhead.
//     Callers pick grain so a chunk amortises scheduling (~1µs) over real
//     work.
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workers is the configured parallelism width (not the pool goroutine
// count: the caller of For counts as one worker).
var workers atomic.Int32

// init sizes the pool from EDGEKG_WORKERS, or GOMAXPROCS when it is unset.
// A value that is not an integer ≥ 1 stops the process at start-up.
func init() {
	w := runtime.GOMAXPROCS(0)
	if s := os.Getenv("EDGEKG_WORKERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			panic(fmt.Sprintf("parallel: EDGEKG_WORKERS=%q is not a worker count (want an integer ≥ 1)", s))
		}
		w = n
	}
	workers.Store(int32(w))
}

// Workers returns the configured parallelism width (≥1).
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the parallelism width and returns the previous value.
// n < 1 is clamped to 1 (fully sequential). It is safe for concurrent use;
// tests use it to pin determinism checks to a known width.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int32(n)))
}

// job is one For invocation: a range split into chunks claimed by an
// atomic cursor shared between the caller and any pool workers that join.
type job struct {
	fn     func(lo, hi int)
	n      int
	chunk  int
	chunks int32
	next   atomic.Int32
	done   atomic.Int32
	fin    chan struct{}
}

// run claims and executes chunks until the cursor is exhausted. The
// goroutine that finishes the last chunk closes fin.
func (j *job) run() {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= int(j.chunks) {
			return
		}
		lo := c * j.chunk
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.fn(lo, hi)
		if j.done.Add(1) == j.chunks {
			close(j.fin)
		}
	}
}

var (
	queue = make(chan *job, 256)

	poolMu   sync.Mutex
	poolSize int
)

// ensurePool grows the worker pool to at least target goroutines. Workers
// block on the queue when idle; they are never torn down (the pool is
// process-wide and at most ~GOMAXPROCS goroutines).
func ensurePool(target int) {
	if target <= 0 {
		return
	}
	poolMu.Lock()
	for poolSize < target {
		poolSize++
		go func() {
			for j := range queue {
				j.run()
			}
		}()
	}
	poolMu.Unlock()
}

// Inline reports whether For(n, grain, fn) runs fn(0, n) on the caller's
// goroutine; a hot path that asks first builds no closure for it.
func Inline(n, grain int) bool { return Workers() <= 1 || n <= max(grain, 1) }

// For executes fn over subranges covering [0, n), potentially in parallel.
// Each call fn(lo, hi) receives a non-empty half-open subrange; subranges
// are disjoint and cover [0, n) exactly. grain is the minimum subrange
// size (≥1): inputs of n ≤ grain — and any call when Workers() == 1 — run
// inline as fn(0, n) with no synchronisation.
//
// fn must be safe to call concurrently on disjoint ranges. For returns
// only after every subrange has completed.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if Inline(n, grain) {
		fn(0, n)
		return
	}
	grain = max(grain, 1)
	w := Workers()
	// Aim for a few chunks per worker so dynamic claiming can balance
	// skewed costs, without dropping below the requested grain.
	chunk := (n + 4*w - 1) / (4 * w)
	if chunk < grain {
		chunk = grain
	}
	chunks := (n + chunk - 1) / chunk
	if chunks == 1 {
		fn(0, n)
		return
	}
	j := &job{fn: fn, n: n, chunk: chunk, chunks: int32(chunks), fin: make(chan struct{})}
	helpers := w - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	ensurePool(helpers)
offer:
	for i := 0; i < helpers; i++ {
		select {
		case queue <- j:
		default:
			// Pool backlogged; the caller covers the remainder.
			break offer
		}
	}
	j.run()
	<-j.fin
}

// Group is a scoped task group over the shared pool: Go submits one task,
// Wait blocks until every submitted task has completed. Unlike For the
// task set need not be known up front, and tasks may start running on pool
// workers before Wait is called. The zero value is ready to use.
//
// When Workers() == 1 each Go call runs its task inline before returning,
// so a group degrades to a plain sequential loop in submission order: at
// one worker a stream's asynchronous adaptation round (internal/serve)
// completes inside the frame that dispatched it.
//
// Like For, the waiting goroutine participates: Wait runs every task the
// pool has not yet claimed on the caller's goroutine, so a group can
// always finish without any pool workers and nested groups cannot
// deadlock. A Group must not be shared between goroutines; tasks may
// themselves use For and Group freely.
type Group struct {
	jobs []*job
}

// Go submits one task to the group.
func (g *Group) Go(fn func()) {
	w := Workers()
	if w <= 1 {
		fn()
		return
	}
	j := &job{
		fn:     func(int, int) { fn() },
		n:      1,
		chunk:  1,
		chunks: 1,
		fin:    make(chan struct{}),
	}
	g.jobs = append(g.jobs, j)
	ensurePool(w - 1)
	select {
	case queue <- j:
	default:
		// Pool backlogged; Wait will run the task on the caller.
	}
}

// Wait blocks until every task submitted since the last Wait has
// completed, then resets the group for reuse. Unclaimed tasks are executed
// on the calling goroutine.
func (g *Group) Wait() {
	for _, j := range g.jobs {
		j.run()
	}
	for i, j := range g.jobs {
		<-j.fin
		g.jobs[i] = nil
	}
	g.jobs = g.jobs[:0]
}
