package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"edgekg/internal/netserve"
)

// Each submit round trip is bounded by submitTimeout. A frame that meets
// transient errors or ErrShardDown retries for at most recoverTimeout
// before the run fails — the window failover has to detect a worker's
// death and rehome the key.
const (
	submitTimeout  = 60 * time.Second
	recoverTimeout = 30 * time.Second
)

// Scenario describes one load-generation run against a Router.
type Scenario struct {
	// Keys are the stream keys, one camera feed each.
	Keys []string
	// Frames is how many frames each key submits.
	Frames int
	// Rate is each key's open-loop arrival rate in frames/second. Rate ≤ 0
	// runs closed-loop: the next frame is submitted as soon as the
	// previous result returns — the mode deterministic continuity runs use
	// (nothing is ever shed, every frame is scored).
	Rate float64
	// Frame synthesises the key's seq-th frame (required). It must be
	// deterministic in (key, seq) for runs to be comparable.
	Frame func(key string, seq int) []float64
	// MigrateKey, when non-empty, is migrated to shard MigrateTo
	// immediately before its frame MigrateAt is submitted — the key's feed
	// is quiescent at that point, as Migrate requires.
	MigrateKey string
	MigrateAt  int
	MigrateTo  int
	// Kill, when set, kills a worker mid-run: immediately before Keys[0]
	// submits its frame Kill.At, the run sends the Kill.Shard worker a
	// die request (an abrupt stop — in-flight connections are severed,
	// nothing drains). Requires failover to be armed (Config.SnapshotEvery
	// and a running HealthMonitor), or every frame routed to the dead
	// shard fails once recoverTimeout lapses.
	Kill *Kill
}

// Kill names a worker to crash mid-run and when.
type Kill struct {
	// Shard is the worker to kill.
	Shard int
	// At kills immediately before Keys[0]'s frame At is submitted.
	At int
}

// Report is one run's outcome. Latency percentiles are measured from
// each frame's scheduled arrival (not its actual send), so queueing delay
// behind a slow stream counts — the open-loop convention that avoids
// coordinated omission.
type Report struct {
	Sent, OK int
	Shed     int // router admission + worker 429 + local overload drops
	Failed   int
	// Retried counts extra submit attempts spent riding out transient
	// errors and ErrShardDown (a frame that eventually scored counts in
	// OK once; its failed attempts count here).
	Retried                     int
	Elapsed                     time.Duration
	Throughput                  float64 // scored frames per second, aggregate
	P50Ms, P99Ms, P999Ms, MaxMs float64
	// Traces are each key's scores in submission order (closed-loop runs
	// only — open-loop sheds leave gaps and traces are not recorded).
	Traces map[string][]float64
}

// Run drives the scenario: one goroutine per key submitting sequentially
// (a camera's feed is ordered), open-loop pacing per Rate, migration per
// MigrateKey. A context cancellation stops the run with its error.
func Run(ctx context.Context, r *Router, sc Scenario) (*Report, error) {
	if len(sc.Keys) == 0 || sc.Frames < 1 {
		return nil, fmt.Errorf("shard: scenario needs keys and frames")
	}
	if sc.Frame == nil {
		return nil, fmt.Errorf("shard: scenario needs a Frame synthesiser")
	}
	closed := sc.Rate <= 0
	var interval time.Duration // open-loop: fixed-rate arrivals from start
	if !closed {
		interval = time.Duration(float64(time.Second) / sc.Rate)
	}

	// Pre-route every key in declared order: placement becomes a pure
	// function of (keys, fleet shape) instead of goroutine scheduling, so
	// two runs of the same scenario land every key on the same slot —
	// which is what makes their score traces comparable bit-exactly. Slot
	// exhaustion surfaces here, before any frame is sent. With failover
	// armed, each key's initial snapshot is taken here too: a key whose
	// first frame would come only after its worker crashed has nothing
	// else to be rehomed from.
	for _, key := range sc.Keys {
		rt, err := r.Route(key)
		if err != nil {
			return nil, err
		}
		if r.cfg.SnapshotEvery > 0 {
			if err := r.ensureSnapshot(ctx, key, rt); err != nil {
				return nil, err
			}
		}
	}

	var mu sync.Mutex
	rep := &Report{}
	if closed {
		rep.Traces = make(map[string][]float64, len(sc.Keys))
	}
	var latencies []float64
	var runErr error
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, key := range sc.Keys {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			var scores []float64
			for seq := 0; seq < sc.Frames; seq++ {
				if ctx.Err() != nil {
					fail(ctx.Err())
					return
				}
				if key == sc.MigrateKey && seq == sc.MigrateAt {
					if _, err := r.Migrate(ctx, key, sc.MigrateTo); err != nil {
						fail(err)
						return
					}
				}
				if sc.Kill != nil && key == sc.Keys[0] && seq == sc.Kill.At {
					// The die request is fire-and-forget: the worker cuts
					// its connections before replying, and transport errors
					// are the expected shape of success.
					dctx, dcancel := context.WithTimeout(ctx, submitTimeout)
					err := r.Backend(sc.Kill.Shard).Die(dctx)
					dcancel()
					if err != nil && !netserve.IsTransient(err) {
						fail(fmt.Errorf("shard: kill shard %d: %w", sc.Kill.Shard, err))
						return
					}
				}
				sched := start
				if !closed {
					sched = start.Add(time.Duration(seq) * interval)
					if d := time.Until(sched); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							fail(ctx.Err())
							return
						}
					}
				} else {
					sched = time.Now()
				}
				frame := sc.Frame(key, seq)
				sctx, cancel := context.WithTimeout(ctx, submitTimeout)
				res, err := r.Submit(sctx, key, frame)
				cancel()
				// Ride out a worker crash: transient transport errors (the
				// in-flight frame died with its connection) and ErrShardDown
				// (the route still points at the corpse) retry the same
				// frame until failover rehomes the key onto a survivor. The
				// failed frame is never in the router's replay log — only
				// scored frames are — so the retry is the frame's first and
				// only scoring on the new home.
				if err != nil && (errors.Is(err, ErrShardDown) || netserve.IsTransient(err)) {
					deadline := time.Now().Add(recoverTimeout)
					for time.Now().Before(deadline) {
						select {
						case <-time.After(50 * time.Millisecond):
						case <-ctx.Done():
							fail(ctx.Err())
							return
						}
						mu.Lock()
						rep.Retried++
						mu.Unlock()
						sctx, cancel = context.WithTimeout(ctx, submitTimeout)
						res, err = r.Submit(sctx, key, frame)
						cancel()
						if err == nil || (!errors.Is(err, ErrShardDown) && !netserve.IsTransient(err)) {
							break
						}
					}
				}
				lat := time.Since(sched)
				mu.Lock()
				rep.Sent++
				switch {
				case err == nil:
					rep.OK++
					latencies = append(latencies, float64(lat.Nanoseconds())/1e6)
					if closed {
						scores = append(scores, res.Score)
					}
				case errors.Is(err, ErrOverload) || errors.Is(err, netserve.ErrBusy):
					rep.Shed++
				default:
					rep.Failed++
					mu.Unlock()
					fail(fmt.Errorf("shard: key %q frame %d: %w", key, seq, err))
					return
				}
				mu.Unlock()
			}
			if closed {
				mu.Lock()
				rep.Traces[key] = scores
				mu.Unlock()
			}
		}(key)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.OK) / rep.Elapsed.Seconds()
	}
	rep.P50Ms = percentile(latencies, 0.50)
	rep.P99Ms = percentile(latencies, 0.99)
	rep.P999Ms = percentile(latencies, 0.999)
	rep.MaxMs = percentile(latencies, 1)
	if runErr != nil {
		return rep, runErr
	}
	return rep, nil
}

// percentile returns the q-quantile of the samples in milliseconds
// (nearest-rank; q=1 is the max). NaN-free: returns 0 on no samples.
func percentile(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
