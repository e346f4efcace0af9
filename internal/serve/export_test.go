package serve_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// Stream.AppendState encodes straight from live state; Export and Save are
// its bytes, decoded or written. These tests pin that the bytes are a
// faithful state (they decode and re-encode to themselves, and name the
// graph the model is bound to) and that Export, which used to deep-copy,
// still shares nothing with the stream.

// adaptedAt is a frame of goldenStream's script with no round pending: the
// round triggered at 48 swapped in at 51, and the next triggers at 56.
const adaptedAt = 52

// exportCase is one stream state AppendState must encode. build returns
// the stream in that state and, when the stream can go on serving, a
// function that drives it on through at least one trained round.
type exportCase struct {
	name  string
	build func(t *testing.T) (st *serve.Stream, driveOn func(t *testing.T))
	// check asserts the decoded state is the one the case names.
	check func(t *testing.T, ss *snapshot.StreamState)
}

func exportCases() []exportCase {
	scripted := func(stop int) func(t *testing.T) (*serve.Stream, func(t *testing.T)) {
		return func(t *testing.T) (*serve.Stream, func(t *testing.T)) {
			st, frames := goldenStream(t)
			goldenDrive(t, st, frames, 0, stop)
			return st, func(t *testing.T) { goldenDrive(t, st, frames, stop, len(frames)) }
		}
	}
	return []exportCase{
		{
			name:  "adapted with moments",
			build: scripted(adaptedAt),
			check: func(t *testing.T, ss *snapshot.StreamState) {
				if ss.Pending != nil || ss.Adapter == nil || !anyNonZero(ss.Adapter.OptM) {
					t.Fatalf("want an adapted stream with moments and no pending round: pending=%v adapter=%v", ss.Pending != nil, ss.Adapter != nil)
				}
			},
		},
		{
			name:  "pending round",
			build: scripted(goldenStop),
			check: func(t *testing.T, ss *snapshot.StreamState) {
				if ss.Pending == nil {
					t.Fatal("want a round pending between its trigger and its swap frame")
				}
			},
		},
		{
			// The first export marshals the bound graph; the rounds after it
			// prune and create nodes, so a graph JSON kept past a Rebind
			// would show here.
			name: "after prune/create and Rebind",
			build: func(t *testing.T) (*serve.Stream, func(t *testing.T)) {
				st, frames := goldenStream(t)
				goldenDrive(t, st, frames, 0, 8)
				if _, err := st.AppendState(nil); err != nil {
					t.Fatal(err)
				}
				if s := st.Stats(); s.PrunedNodes != 0 {
					t.Fatalf("%d nodes pruned before the first export; the case needs them after it", s.PrunedNodes)
				}
				goldenDrive(t, st, frames, 8, adaptedAt)
				return st, func(t *testing.T) { goldenDrive(t, st, frames, adaptedAt, len(frames)) }
			},
			check: func(t *testing.T, ss *snapshot.StreamState) {
				if ss.PrunedNodes == 0 || ss.CreatedNodes == 0 {
					t.Fatalf("no node pruned (%d) or created (%d) after the first export", ss.PrunedNodes, ss.CreatedNodes)
				}
			},
		},
		{
			name: "tombstone",
			build: func(t *testing.T) (*serve.Stream, func(t *testing.T)) {
				st, _ := scripted(adaptedAt)(t)
				if err := st.Release(); err != nil {
					t.Fatal(err)
				}
				return st, nil
			},
			check: func(t *testing.T, ss *snapshot.StreamState) {
				if !ss.Released || ss.Frames != adaptedAt {
					t.Fatalf("want a tombstone keeping its %d frames: released=%v frames=%d", adaptedAt, ss.Released, ss.Frames)
				}
			},
		},
		{
			// Evicted with a round pending: AppendState rehydrates from the
			// spill file and must encode what the resident stream did.
			name: "evicted",
			build: func(t *testing.T) (*serve.Stream, func(t *testing.T)) {
				backbone, gen := buildBackbone(t, 5)
				det, err := backbone.CloneCOW()
				if err != nil {
					t.Fatal(err)
				}
				cfg := streamCfg(3)
				cfg.ScoreHistory = 6
				st, err := serve.NewStream(0, det, cfg, rng.NewSource(29), &flops.Counter{})
				if err != nil {
					t.Fatal(err)
				}
				st.EnableSpill(t.TempDir(), backbone.CloneCOW)
				frames := frameSchedule(gen, 777, 64, 10, concept.Stealing, concept.Robbery)
				goldenDrive(t, st, frames, 0, goldenStop)
				resident, err := st.AppendState(nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Evict(); err != nil {
					t.Fatal(err)
				}
				if !st.Evicted() {
					t.Fatal("stream not evicted")
				}
				got, err := st.AppendState(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, resident) {
					t.Fatal("the rehydrated stream encodes other bytes than the resident one did")
				}
				return st, func(t *testing.T) { goldenDrive(t, st, frames, goldenStop, len(frames)) }
			},
			check: func(t *testing.T, ss *snapshot.StreamState) {
				if ss.Pending == nil {
					t.Fatal("want the spilled round still pending")
				}
			},
		},
		{
			name: "PrecisionF32",
			build: func(t *testing.T) (*serve.Stream, func(t *testing.T)) {
				det, gen := buildBackbone(t, 5)
				cfg := streamCfg(3)
				cfg.ScoreHistory = 6
				cfg.Precision = core.PrecisionF32
				st, err := serve.NewStream(0, det, cfg, rng.NewSource(29), &flops.Counter{})
				if err != nil {
					t.Fatal(err)
				}
				frames := frameSchedule(gen, 777, 64, 10, concept.Stealing, concept.Robbery)
				goldenDrive(t, st, frames, 0, adaptedAt)
				return st, func(t *testing.T) { goldenDrive(t, st, frames, adaptedAt, len(frames)) }
			},
			check: func(t *testing.T, ss *snapshot.StreamState) {
				if ss.Adapter == nil || len(ss.Monitor.Frames) == 0 {
					t.Fatal("want an adaptive stream with a monitor window")
				}
				for i, f := range ss.Monitor.Frames {
					for _, v := range f.Data() {
						if float64(float32(v)) != v {
							t.Fatalf("monitor frame %d value %v is not a narrowed float32", i, v)
						}
					}
				}
			},
		},
	}
}

// TestAppendStateReencodesAndExportIsIndependent pins, in every case:
// AppendState's bytes decode and re-encode to themselves; each graph blob
// is json.Marshal of the graph the model is bound to; Export and Save are
// those bytes; and an Export taken before further frames and a trained
// round encodes unchanged afterwards, so it never aliases live state.
func TestAppendStateReencodesAndExportIsIndependent(t *testing.T) {
	for _, c := range exportCases() {
		t.Run(c.name, func(t *testing.T) {
			st, driveOn := c.build(t)
			b, err := st.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := snapshot.DecodeStream(b)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, ss)
			if re := snapshot.AppendStream(nil, ss); !bytes.Equal(re, b) {
				t.Fatalf("decoded state re-encodes to %d bytes, AppendState wrote %d", len(re), len(b))
			}
			if !ss.Released {
				for gi, gs := range ss.Detector.Graphs {
					want, err := json.Marshal(st.Detector().GNN(gi).Graph())
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gs.Graph, want) {
						t.Fatalf("graph %d blob is not json.Marshal of the bound graph", gi)
					}
				}
			}
			exp, err := st.Export()
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshot.AppendStream(nil, exp); !bytes.Equal(got, b) {
				t.Fatal("Export is not the decode of AppendState's bytes")
			}
			path := filepath.Join(t.TempDir(), "stream.ckpt")
			if err := st.Save(path); err != nil {
				t.Fatal(err)
			}
			if saved, err := os.ReadFile(path); err != nil || !bytes.Equal(saved, b) {
				t.Fatalf("Save did not write AppendState's bytes (err %v)", err)
			}

			if driveOn == nil {
				return
			}
			driveOn(t)
			after, err := st.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			moved, err := snapshot.DecodeStream(after)
			if err != nil {
				t.Fatal(err)
			}
			if !banksMoved(exp, moved) {
				t.Fatal("no token bank moved after the export: the drive trained no round")
			}
			if got := snapshot.AppendStream(nil, exp); !bytes.Equal(got, b) {
				t.Fatal("an Export taken earlier changed when the stream served on: it aliases live state")
			}
		})
	}
}

// TestAppendStateAllocCeiling pins what encoding an adapted quick stream's
// state costs: 24 allocations into a reused buffer, the same under the race
// detector (the ledger and moment maps, the trackers, the monitor's sample
// columns, the detector section's slices and the codec's sorted map
// entries). Before AppendState, Export's deep copy plus AppendStream of it
// took 131 on the same state (142 under the race detector).
func TestAppendStateAllocCeiling(t *testing.T) {
	st, frames := goldenStream(t)
	goldenDrive(t, st, frames, 0, adaptedAt)
	buf, err := st.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if buf, err = st.AppendState(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AppendState: %.2f allocs", got)
	if ceiling := 32.0; got > ceiling {
		t.Errorf("AppendState: %.0f allocs, ceiling %.0f", got, ceiling)
	}
}

// banksMoved reports whether any token bank of b differs from a's bank of
// the same node, or has none there: only a trained round writes the banks.
func banksMoved(a, b *snapshot.StreamState) bool {
	for gi, gs := range b.Detector.Graphs {
		old := map[int]*tensor.Tensor{}
		for _, bs := range a.Detector.Graphs[gi].Banks {
			old[bs.Node] = bs.Tokens
		}
		for _, bs := range gs.Banks {
			if o := old[bs.Node]; o == nil || !tensor.AllClose(o, bs.Tokens, 0) {
				return true
			}
		}
	}
	return false
}

// anyNonZero reports whether any moment holds a non-zero value.
func anyNonZero(moments map[string]*tensor.Tensor) bool {
	for _, m := range moments {
		for _, v := range m.Data() {
			if v != 0 {
				return true
			}
		}
	}
	return false
}
