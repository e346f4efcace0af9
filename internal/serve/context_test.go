package serve_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgekg/internal/concept"
	"edgekg/internal/parallel"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// TestDoContextTimeoutOnBusyPipeline pins the deadline-bound barrier
// variant against the Do/Results deadlock footgun: with the stream's
// pipeline full and no consumer draining results, Do would block forever —
// serve.Call must instead give up at its deadline, and succeed normally
// once the pipeline drains.
func TestDoContextTimeoutOnBusyPipeline(t *testing.T) {
	backbone, gen := buildBackbone(t, 1)
	stream := frameSchedule(gen, 11, 2, 2, concept.Stealing, concept.Stealing)

	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(0)
	cfg.QueueDepth = 1
	srv, err := serve.NewServer(backbone, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	// Two unconsumed frames wedge the pipeline: the loop is parked writing
	// the second result into the full out channel.
	for _, f := range stream {
		if err := srv.Submit(0, f); err != nil {
			t.Fatal(err)
		}
	}

	// First barrier: the queue has room, so the fn is enqueued — but the
	// loop never reaches it, and the call gives up at its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	ran := make(chan struct{}, 1)
	start := time.Now()
	if _, err := serve.Call(ctx, srv, 0, func(*serve.Stream) (int, error) { ran <- struct{}{}; return 0, nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call on a wedged pipeline: %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Call did not honour its deadline")
	}
	// Second barrier: the queue is now full (the abandoned fn occupies it),
	// so this one times out in the enqueue itself and never runs at all.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, err := serve.Call(ctx2, srv, 0, func(*serve.Stream) (int, error) { t.Error("never-enqueued fn ran"); return 0, nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call on a full queue: %v, want deadline exceeded", err)
	}

	// Drain; the stream comes back and the same barrier now succeeds.
	res := resultsOf(t, srv, 0)
	for range stream {
		if r := <-res; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	ctx3, cancel3 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel3()
	frames, err := serve.Call(ctx3, srv, 0, func(st *serve.Stream) (int, error) { return st.Stats().Frames, nil })
	if err != nil {
		t.Fatalf("Call after drain: %v", err)
	}
	if frames != len(stream) {
		t.Fatalf("barrier saw %d frames, want %d", frames, len(stream))
	}
	// The first timed-out barrier's fn was still delivered (documented: a
	// fn already enqueued may run after its caller gave up).
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned barrier fn never ran after drain")
	}

	// Score-history reads ride the same path.
	if _, err := serve.Call(ctx3, srv, 0, func(st *serve.Stream) ([]float64, error) { return st.Scores(), nil }); err != nil {
		t.Fatalf("Call(Scores): %v", err)
	}
}

// TestShutdownCleansSpillFiles is the orphaned-spill regression test:
// a stream evicted to disk and never touched again must not leave its
// spill file behind after Shutdown — the state rehydrates on the way
// down, so post-shutdown accessors still work and SpillDir ends empty.
func TestShutdownCleansSpillFiles(t *testing.T) {
	backbone, gen := buildBackbone(t, 1)
	stream := frameSchedule(gen, 21, 8, 8, concept.Stealing, concept.Stealing)
	dir := t.TempDir()

	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(0)
	cfg.Stream.ScoreHistory = 16
	cfg.SpillDir = dir
	srv, err := serve.NewServer(backbone, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := pump(t, srv, 0, stream, len(stream))

	if err := srv.EvictStream(0); err != nil {
		t.Fatal(err)
	}
	spills, err := filepath.Glob(filepath.Join(dir, "*.spill.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spills) != 1 {
		t.Fatalf("evicted stream left %d spill files, want 1", len(spills))
	}

	srv.Shutdown()

	spills, err = filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spills) != 0 {
		t.Fatalf("Shutdown left %v behind in the spill dir", spills)
	}
	// The rehydrate-then-drain path keeps the state accessible.
	st := streamOf(t, srv, 0)
	if st.Evicted() {
		t.Fatal("stream still evicted after Shutdown")
	}
	stats := st.Stats()
	if stats.Frames != len(stream) || stats.Evictions != 1 {
		t.Fatalf("post-shutdown stats: %+v", stats)
	}
	if got := st.Scores(); len(got) == 0 || got[len(got)-1] != tr.scores[len(tr.scores)-1] {
		t.Fatalf("post-shutdown scores lost: %v", got)
	}
}

// TestEvictionErrorSurfaces pins satellite-level error plumbing: a failed
// background eviction has no Result to ride on, so it must land in
// Stats.LastErr — and a failed manual EvictStream must return its error.
func TestEvictionErrorSurfaces(t *testing.T) {
	backbone, gen := buildBackbone(t, 1)
	stream := frameSchedule(gen, 31, 24, 24, concept.Stealing, concept.Stealing)
	dir := filepath.Join(t.TempDir(), "spill")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(0)
	cfg.MemBudgetBytes = 1 // always over budget: every frame wants an eviction
	cfg.SpillDir = dir
	srv, err := serve.NewServer(backbone, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	// Break the spill target *after* construction, then make stream 0 the
	// idle LRU victim by pumping stream 1: its background eviction must
	// fail and retain the error.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(0, stream[0]); err != nil {
		t.Fatal(err)
	}
	if r := <-resultsOf(t, srv, 0); r.Err != nil {
		t.Fatal(r.Err)
	}
	res1 := resultsOf(t, srv, 1)
	deadline := time.Now().Add(30 * time.Second)
	var lastErr string
	for lastErr == "" {
		if time.Now().After(deadline) {
			t.Fatal("background eviction failure never surfaced in Stats.LastErr")
		}
		for _, f := range stream {
			if err := srv.Submit(1, f); err != nil {
				t.Fatal(err)
			}
			if r := <-res1; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		stats, err := srv.StreamStats(0)
		if err != nil {
			t.Fatal(err)
		}
		lastErr = stats.LastErr
	}
	// The victim keeps serving: the failed spill lost nothing.
	if err := srv.Submit(0, stream[1]); err != nil {
		t.Fatal(err)
	}
	if r := <-resultsOf(t, srv, 0); r.Err != nil {
		t.Fatalf("stream after failed eviction: %v", r.Err)
	}

	// Manual eviction against the broken directory fails loudly too.
	if err := srv.EvictStream(1); err == nil {
		t.Fatal("EvictStream with a missing spill dir: want error")
	}
}

// TestConcurrentCheckpointVsEviction races full-deployment checkpoints
// against budget-driven background eviction while every stream serves —
// the -race CI shard runs this at workers 1 and 8. The final checkpoint
// must restore into a fresh server that keeps serving.
func TestConcurrentCheckpointVsEviction(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)

			const nstreams, nframes = 4, 32
			backbone, gen := buildBackbone(t, 1)
			dir := t.TempDir()

			cfg := serve.DefaultConfig()
			cfg.Stream = streamCfg(2)
			cfg.MemBudgetBytes = 4096 // tight: evictions fire throughout
			cfg.SpillDir = dir
			srv, err := serve.NewServer(backbone, nstreams, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Feed all streams concurrently, lockstep per stream. Halfway
			// through, each feeder waits for the checkpointer's first
			// checkpoint, so the race below is never vacuous however fast
			// the fleet scores its frames.
			schedules := make([][]*tensor.Tensor, nstreams)
			for i := range schedules {
				schedules[i] = frameSchedule(gen, int64(41+i), nframes, nframes/2, concept.Stealing, concept.Robbery)
			}
			firstCP := make(chan struct{})
			var firstOnce sync.Once
			var wg sync.WaitGroup
			for i := 0; i < nstreams; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					fs := schedules[id]
					res := resultsOf(t, srv, id)
					for j, f := range fs {
						if j == nframes/2 {
							select {
							case <-firstCP:
							case <-time.After(time.Minute):
								t.Errorf("stream %d: no checkpoint completed within a minute", id)
								return
							}
						}
						if err := srv.Submit(id, f); err != nil {
							t.Errorf("stream %d frame %d: %v", id, j, err)
							return
						}
						if r := <-res; r.Err != nil {
							t.Errorf("stream %d frame %d: %v", id, j, r.Err)
							return
						}
					}
				}(i)
			}

			// Checkpoint continuously while the fleet serves and evicts.
			stop := make(chan struct{})
			var cpMu sync.Mutex
			var last *snapshot.Checkpoint
			var cpErr error
			var cpWg sync.WaitGroup
			cpWg.Add(1)
			go func() {
				defer cpWg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					cp, err := srv.Checkpoint(context.Background())
					cpMu.Lock()
					if err != nil {
						cpErr = err
					} else {
						last = cp
						firstOnce.Do(func() { close(firstCP) })
					}
					cpMu.Unlock()
				}
			}()

			wg.Wait()
			close(stop)
			cpWg.Wait()
			if cpErr != nil {
				t.Fatalf("concurrent checkpoint: %v", cpErr)
			}
			// One final settled checkpoint after the feed, restored below.
			final, err := srv.Checkpoint(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			srv.Shutdown()
			cpMu.Lock()
			if last == nil {
				t.Fatal("checkpointer never produced a checkpoint")
			}
			cpMu.Unlock()

			// The final checkpoint restores into a fresh server that serves.
			backbone2, gen2 := buildBackbone(t, 1)
			srv2, err := serve.NewServer(backbone2, nstreams, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Shutdown()
			if err := srv2.Restore(final); err != nil {
				t.Fatal(err)
			}
			extra := frameSchedule(gen2, 99, 1, 1, concept.Stealing, concept.Stealing)
			for i := 0; i < nstreams; i++ {
				if err := srv2.Submit(i, extra[0]); err != nil {
					t.Fatal(err)
				}
				r := <-resultsOf(t, srv2, i)
				if r.Err != nil {
					t.Fatalf("restored stream %d: %v", i, r.Err)
				}
				if r.Seq != nframes {
					t.Fatalf("restored stream %d resumed at seq %d, want %d", i, r.Seq, nframes)
				}
			}
		})
	}
}

// TestCallAbandonedBarrierIsRaceFree pins what Call owns so its callers need
// not: a barrier whose caller gave up still runs — once — when the loop gets
// to it, hands its result to a channel nobody reads, and blocks nothing.
// Meaningful under -race: fn touches loop-owned state after Call returned.
func TestCallAbandonedBarrierIsRaceFree(t *testing.T) {
	backbone, gen := buildBackbone(t, 1)
	stream := frameSchedule(gen, 11, 3, 3, concept.Stealing, concept.Stealing)

	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(0)
	cfg.QueueDepth = 1
	srv, err := serve.NewServer(backbone, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	// Two undrained results park the loop on the full out channel.
	for _, f := range stream[:2] {
		if err := srv.Submit(0, f); err != nil {
			t.Fatal(err)
		}
	}

	var ran atomic.Int32
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	frames, err := serve.Call(ctx, srv, 0, func(st *serve.Stream) (int, error) {
		ran.Add(1)
		return st.Stats().Frames, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || frames != 0 {
		t.Fatalf("Call on a wedged pipeline: %d, %v; want 0, deadline exceeded", frames, err)
	}
	if ran.Load() != 0 {
		t.Fatal("fn ran before the loop could have reached it")
	}

	// Drain: the abandoned fn runs, and the loop goes straight on to the
	// next frame and the next barrier.
	res := resultsOf(t, srv, 0)
	<-res
	<-res
	if r, err := srv.Process(0, stream[2]); err != nil || r.Err != nil || r.Seq != 2 {
		t.Fatalf("frame after the abandoned barrier: %+v, %v", r, err)
	}
	frames, err = serve.Call(context.Background(), srv, 0, func(st *serve.Stream) (int, error) { return st.Stats().Frames, nil })
	if err != nil || frames != 3 {
		t.Fatalf("Call after drain: %d, %v; want 3", frames, err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("abandoned fn ran %d times, want once", got)
	}
}

// TestDoJoinsCallDoesNot states the one difference between the two ways
// onto a stream's loop. A round triggers after 16 frames and is due at
// 16+lag: stats read through Call one frame later leave the swap frame and the
// whole trajectory bit-equal to an unobserved twin; the same read through
// Do settles the round there, so its report never reaches a Result.
func TestDoJoinsCallDoesNot(t *testing.T) {
	const frames, trigger, lag = 24, 16, 4
	run := func(observe func(*serve.Server) serve.Stats) (frameTrace, serve.Stats) {
		backbone, gen := buildBackbone(t, 4)
		stream := frameSchedule(gen, 401, frames, 0, concept.Robbery, concept.Robbery)
		cfg := serve.DefaultConfig()
		cfg.Stream = streamCfg(lag)
		cfg.Stream.AdaptEveryFrames = trigger // one round in the run
		cfg.Seeds = []int64{5}
		srv, err := serve.NewServer(backbone, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		var tr frameTrace
		var seen serve.Stats
		for i, f := range stream {
			if i == 4 {
				if err := srv.Do(0, func(st *serve.Stream) { st.Monitor().SetReference(1.0) }); err != nil {
					t.Fatal(err)
				}
			}
			if i == trigger+1 && observe != nil {
				seen = observe(srv)
			}
			res, err := srv.Process(0, f)
			if err != nil || res.Err != nil {
				t.Fatal(err, res.Err)
			}
			tr.record(res)
		}
		return tr, seen
	}
	plain, _ := run(nil)
	if len(plain.applied) != 1 || plain.applied[0] != trigger+lag {
		t.Fatalf("unobserved round applied at %v, want [%d]", plain.applied, trigger+lag)
	}

	called, seen := run(func(srv *serve.Server) serve.Stats {
		st, err := serve.Call(context.Background(), srv, 0, func(st *serve.Stream) (serve.Stats, error) { return st.Stats(), nil })
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
	if seen.Frames != trigger+1 || seen.AdaptRounds != 0 {
		t.Fatalf("Call saw %+v, want %d frames and the round still pending", seen, trigger+1)
	}
	if !equalTraces(called, plain) {
		t.Fatalf("Call-ed stats perturbed the trajectory:\n%+v\n%+v", called, plain)
	}

	joined, seen := run(func(srv *serve.Server) serve.Stats {
		st, err := srv.StreamStats(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
	if seen.AdaptRounds != 1 {
		t.Fatalf("Do saw %+v, want the round joined", seen)
	}
	if len(joined.applied) != 0 {
		t.Fatalf("a round Do joined was still delivered on a Result: %v", joined.applied)
	}
}
