package serve_test

import (
	"fmt"
	"math"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// requireLiveGateScores fails unless every sample in st's window has a gate
// score with exactly the bits of a fresh ScoreFrames of its frame under
// st's live detector, and returns how many of them differ from the score
// the sample was served with.
func requireLiveGateScores(t *testing.T, st *serve.Stream, ctx string) (moved int) {
	t.Helper()
	mon, det := st.Monitor(), st.Detector()
	if mon == nil || det == nil {
		t.Fatalf("%s: stream state unavailable: %v", ctx, st.Err())
	}
	win := mon.Window()
	if len(win) == 0 {
		return 0
	}
	batch := tensor.New(len(win), win[0].Frame.Size())
	for i, s := range win {
		copy(batch.Row(i), s.Frame.Data())
	}
	want := det.ScoreFrames(batch)
	for i, s := range win {
		g, ok := s.GateScore()
		if !ok || math.Float64bits(g) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d (seq %d) gate score %v (present %v), fresh static-window score %v", ctx, i, s.Seq, g, ok, want[i])
		}
		if g != s.Score {
			moved++
		}
	}
	return moved
}

// TestGateScoresFollowLiveBanks pins the gate scores an adaptive float64
// stream keeps for the loss gate: after every round, at lag 0 and at lag 3,
// every window sample's gate score is the fresh static-window score of its
// frame under the live detector, also across an evict/rehydrate, a Restore
// in the middle of a lag and a migration to a fresh stream — so the probe
// reads exactly what it would have computed. Rounds that trained must have
// moved some gate score off its served score, or the pin is vacuous.
func TestGateScoresFollowLiveBanks(t *testing.T) {
	for _, lag := range []int{0, 3} {
		t.Run(fmt.Sprintf("lag=%d", lag), func(t *testing.T) {
			backbone, gen := buildBackbone(t, 5)
			frames := frameSchedule(gen, 777, 56, 10, concept.Stealing, concept.Robbery)
			cfg := streamCfg(lag)
			cfg.Precision = core.PrecisionF64
			newStream := func() *serve.Stream {
				det, err := backbone.CloneCOW()
				if err != nil {
					t.Fatal(err)
				}
				st, err := serve.NewStream(0, det, cfg, rng.NewSource(29), &flops.Counter{})
				if err != nil {
					t.Fatal(err)
				}
				st.EnableSpill(t.TempDir(), backbone.CloneCOW)
				return st
			}
			st := newStream()
			trained, moved := 0, 0
			for i, f := range frames {
				if i == 8 {
					st.Monitor().SetReference(1.0)
				}
				res := st.Process(f)
				if res.Err != nil {
					t.Fatalf("frame %d: %v", i, res.Err)
				}
				if res.AdaptApplied {
					m := requireLiveGateScores(t, st, fmt.Sprintf("frame %d, after a round", i))
					if res.Adapt.Triggered {
						trained++
						moved += m
					}
				}
				switch i {
				case 24: // evict (at lag 3 inside the lag of the round dispatched at
					// frame 23); the next frame rehydrates from the spill file
					if err := st.Evict(); err != nil {
						t.Fatal(err)
					}
				case 33: // inside the lag of the round dispatched at frame 31
					b, err := st.AppendState(nil)
					if err != nil {
						t.Fatal(err)
					}
					ss, err := snapshot.DecodeStream(b)
					if err != nil {
						t.Fatal(err)
					}
					if err := st.Restore(ss); err != nil {
						t.Fatal(err)
					}
					requireLiveGateScores(t, st, fmt.Sprintf("frame %d, after a restore", i))
				case 48: // migrate to a fresh stream and retire this one
					ss, err := st.Export()
					if err != nil {
						t.Fatal(err)
					}
					to := newStream()
					if err := to.Restore(ss); err != nil {
						t.Fatal(err)
					}
					if err := st.Release(); err != nil {
						t.Fatal(err)
					}
					st = to
					requireLiveGateScores(t, st, fmt.Sprintf("frame %d, after a migration", i))
				}
			}
			if trained == 0 || moved == 0 {
				t.Fatalf("%d rounds trained, %d gate scores moved off their served score: the pin is vacuous", trained, moved)
			}
		})
	}
}

// TestStreamsWithoutGateScores pins who keeps today's probe: an f32
// adaptive stream (its served scores are not the probe's float64 ones) and
// a static one never give a sample a gate score.
func TestStreamsWithoutGateScores(t *testing.T) {
	for _, c := range []struct {
		name  string
		prec  core.Precision
		every int
	}{{"f32", core.PrecisionF32, 8}, {"static", core.PrecisionF64, 0}} {
		det, gen := buildBackbone(t, 5)
		cfg := streamCfg(0)
		cfg.Precision = c.prec
		cfg.AdaptEveryFrames = c.every
		st, err := serve.NewStream(0, det, cfg, rng.NewSource(29), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frameSchedule(gen, 777, 20, 10, concept.Stealing, concept.Robbery) {
			if i == 8 {
				st.Monitor().SetReference(1.0)
			}
			if res := st.Process(f); res.Err != nil {
				t.Fatalf("%s frame %d: %v", c.name, i, res.Err)
			}
		}
		for _, s := range st.Monitor().Window() {
			if g, ok := s.GateScore(); ok {
				t.Fatalf("%s stream: sample %d has gate score %v", c.name, s.Seq, g)
			}
		}
	}
}
