package serve_test

import (
	"context"
	"fmt"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/serve"
)

// TestServedFrameBillsNoMemoBuild pins the eval memo's billing rule at the
// stream: a served frame bills what a warm one-frame score bills — the
// closed form core's engine tests pin against the tape — after deployment,
// after trained rounds, after an eviction and rehydration and after a
// migration to a second server, on static and adaptive streams at float64
// and float32. After each frame the stream's detector scores that frame
// twice more: equal counts show the memo was already warm, and the frame
// must have billed that count unless a round ran after it.
func TestServedFrameBillsNoMemoBuild(t *testing.T) {
	for _, p := range []core.Precision{core.PrecisionF64, core.PrecisionF32} {
		for _, adaptive := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/adaptive=%t", p, adaptive), func(t *testing.T) {
				_, gen := buildBackbone(t, 21)
				frames := frameSchedule(gen, 777, 24, 10, concept.Stealing, concept.Robbery)
				cfg := serve.DefaultConfig()
				cfg.Stream = streamCfg(0)
				cfg.Stream.Precision = p
				if !adaptive {
					cfg.Stream.AdaptEveryFrames = 0
				}
				cfg.SpillDir = t.TempDir()
				newServer := func() *serve.Server {
					det, _ := buildBackbone(t, 21)
					srv, err := serve.NewServer(det, 1, cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(srv.Shutdown)
					return srv
				}
				scoringOps := func(srv *serve.Server) int64 {
					s, err := srv.StreamStats(0)
					if err != nil {
						t.Fatal(err)
					}
					return s.ScoringOps
				}
				serveFrames := func(stage string, srv *serve.Server, lo, hi int) {
					t.Helper()
					for k := lo; k < hi; k++ {
						if k == 4 && adaptive {
							// Healthy operation scored far higher: rounds trigger.
							if err := srv.Do(0, func(st *serve.Stream) { st.Monitor().SetReference(1.0) }); err != nil {
								t.Fatal(err)
							}
						}
						before := scoringOps(srv)
						res, err := srv.Process(0, frames[k])
						if err == nil {
							err = res.Err
						}
						if err != nil {
							t.Fatal(err)
						}
						billed := scoringOps(srv) - before
						var first, second int64
						if err := srv.Do(0, func(st *serve.Stream) {
							pix := frames[k].Reshape(1, frames[k].Size())
							first, _ = flops.Count(func() { st.Detector().ScoreVideo(pix) })
							second, _ = flops.Count(func() { st.Detector().ScoreVideo(pix) })
						}); err != nil {
							t.Fatal(err)
						}
						if first != second {
							t.Fatalf("%s, frame %d: scoring it again bills %d ops, then %d: the memo was cold", stage, k, first, second)
						}
						if !res.AdaptApplied && billed != second {
							t.Fatalf("%s, frame %d billed %d ops, a warm one-frame score bills %d", stage, k, billed, second)
						}
					}
				}

				srv := newServer()
				serveFrames("deployed", srv, 0, 11)
				if err := srv.EvictStream(0); err != nil {
					t.Fatal(err)
				}
				serveFrames("rehydrated", srv, 11, 17)
				ss, err := srv.ExportStream(0)
				if err != nil {
					t.Fatal(err)
				}
				moved := newServer()
				if err := moved.RestoreStream(0, ss); err != nil {
					t.Fatal(err)
				}
				serveFrames("migrated", moved, 17, len(frames))
				if s, _ := moved.StreamStats(0); adaptive && s.TriggeredRounds == 0 {
					t.Fatal("no round trained: nothing followed a bank change")
				}
			})
		}
	}
}

// TestPendingRestoreFrameBillsNoMemoBuild covers the scoring snapshot a
// restore installs for a round still in flight (lag 3): the frames it
// serves until the swap bill the same, so the first of them paid no memo
// rebuild. The first server is shut down before the second starts, and a
// restored pending round runs no goroutine, so the shared counter's
// deltas are exact here.
func TestPendingRestoreFrameBillsNoMemoBuild(t *testing.T) {
	for _, p := range []core.Precision{core.PrecisionF64, core.PrecisionF32} {
		_, gen := buildBackbone(t, 22)
		frames := frameSchedule(gen, 778, 12, 12, concept.Stealing, concept.Stealing)
		cfg := serve.DefaultConfig()
		cfg.Stream = streamCfg(3)
		cfg.Stream.Precision = p
		start := func() *serve.Server {
			det, _ := buildBackbone(t, 22)
			srv, err := serve.NewServer(det, 1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		}
		srv := start()
		for _, f := range frames[:9] { // the round dispatched after frame 8 swaps in at 11
			if _, err := srv.Process(0, f); err != nil {
				t.Fatal(err)
			}
		}
		ss, err := srv.ExportStream(0)
		srv.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		if ss.Pending == nil {
			t.Fatal("no round in flight at the export: nothing to restore it into")
		}
		moved := start()
		if err := moved.RestoreStream(0, ss); err != nil {
			t.Fatal(err)
		}
		// Call, not StreamStats: a Do barrier would join the pending round.
		scoringOps := func() int64 {
			ops, err := serve.Call(context.Background(), moved, 0, func(st *serve.Stream) (int64, error) {
				return st.Ledger().PhaseOps(serve.PhaseScoring), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return ops
		}
		var billed []int64
		for _, f := range frames[9:11] {
			before := scoringOps()
			if res, err := moved.Process(0, f); err != nil || res.Err != nil {
				t.Fatal(err, res.Err)
			}
			billed = append(billed, scoringOps()-before)
		}
		moved.Shutdown()
		if billed[0] != billed[1] || billed[0] <= 0 {
			t.Errorf("%v: the frames before the swap bill %d and %d ops", p, billed[0], billed[1])
		}
	}
}
