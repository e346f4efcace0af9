package serve_test

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/kg"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// A StreamState can come from outside the process (a spill file, a
// POST …/restore body). These tests pin what happens when it is wrong: the
// decode or the Restore returns an error, and the stream goes on scoring
// exactly like a twin that never saw the attempt.

// hostileServed is how many frames hostileStream has served: two past the
// trigger at 16, so a lag-3 stream has a round pending.
const hostileServed = 18

// hostileStream builds an adaptive stream (lag 3 over an unmetered counter,
// or the bare lag-0 deployment) that has served hostileServed frames, and
// its whole schedule.
func hostileStream(t *testing.T, lag int) (*serve.Stream, []*tensor.Tensor) {
	t.Helper()
	det, gen := buildBackbone(t, 5)
	var shared *flops.Counter
	if lag > 0 {
		shared = &flops.Counter{}
	}
	st, err := serve.NewStream(0, det, streamCfg(lag), rng.NewSource(29), shared)
	if err != nil {
		t.Fatal(err)
	}
	frames := frameSchedule(gen, 777, 40, 10, concept.Stealing, concept.Robbery)
	goldenDrive(t, st, frames, 0, hostileServed)
	return st, frames
}

// skipLevelEdge returns the graph JSON with one more edge, from the sensor
// straight to the embedding terminal: the graph decodes, but the edge
// skips every reasoning level, so kg.Graph.Validate(true) refuses it.
func skipLevelEdge(raw json.RawMessage) json.RawMessage {
	var g kg.Graph
	var w map[string]any
	if err := errors.Join(json.Unmarshal(raw, &g), json.Unmarshal(raw, &w)); err != nil {
		panic(err)
	}
	w["edges"] = append(w["edges"].([]any), map[string]any{"Src": g.SensorNode().ID, "Dst": g.EmbeddingTerminal().ID})
	out, err := json.Marshal(w)
	if err != nil {
		panic(err)
	}
	return out
}

// restoreJSON is a version 1 file's restore: decode, then Restore.
func restoreJSON(st *serve.Stream, doc []byte) error {
	var ss snapshot.StreamState
	if err := json.Unmarshal(doc, &ss); err != nil {
		return err
	}
	return st.Restore(&ss)
}

// restoreBinary is the outside world's restore of a version 2 state (a
// POST …/restore body, a spill file): decode, then Restore.
func restoreBinary(st *serve.Stream, b []byte) error {
	ss, err := snapshot.DecodeStream(b)
	if err != nil {
		return err
	}
	return st.Restore(ss)
}

func TestFailedRestoreLeavesStreamUntouched(t *testing.T) {
	dim := 16 // buildBackbone's embedding width
	lastBank := func(ss *snapshot.StreamState) *snapshot.BankState {
		banks := ss.Detector.Graphs[0].Banks
		return &banks[len(banks)-1]
	}
	cases := []struct {
		name string
		lag  int
		// mutate edits the exported state, which is then restored from
		// both forms; rewrite, when set, edits its JSON (for states no
		// in-process value can hold).
		mutate  func(ss *snapshot.StreamState)
		rewrite func(doc string) string
	}{
		{name: "bank shape overflows to the empty payload", rewrite: func(doc string) string {
			// The last bank of the detector section, the one the adapter's
			// moments come after.
			i := strings.LastIndex(doc[:strings.Index(doc, `"monitor"`)], `"tokens":{"shape":[`)
			j := i + strings.Index(doc[i:], `}`)
			return doc[:i] + `"tokens":{"shape":[1152921504606846976,16],"data":""` + doc[j:]
		}},
		{name: "last bank has the wrong width", mutate: func(ss *snapshot.StreamState) {
			lastBank(ss).Tokens = tensor.New(2, dim+1)
		}},
		{name: "last bank has no rows", mutate: func(ss *snapshot.StreamState) {
			lastBank(ss).Tokens = tensor.New(0, dim)
		}},
		{name: "last bank is null", mutate: func(ss *snapshot.StreamState) {
			lastBank(ss).Tokens = nil
		}},
		{name: "a bank is given twice", mutate: func(ss *snapshot.StreamState) {
			banks := ss.Detector.Graphs[0].Banks
			banks[len(banks)-1].Node = banks[0].Node
		}},
		{name: "graph with an edge that skips levels", mutate: func(ss *snapshot.StreamState) {
			ss.Detector.Graphs[0].Graph = skipLevelEdge(ss.Detector.Graphs[0].Graph)
		}},
		{name: "graph of another depth", rewrite: func(doc string) string {
			return strings.Replace(doc, `"depth":2`, `"depth":3`, 1)
		}},
		{name: "monitor frame of the wrong length", mutate: func(ss *snapshot.StreamState) {
			ss.Monitor.Frames[len(ss.Monitor.Frames)-1] = tensor.New(1, 7)
		}},
		{name: "monitor columns disagree", mutate: func(ss *snapshot.StreamState) {
			ss.Monitor.Seqs = ss.Monitor.Seqs[1:]
		}},
		{name: "monitor of another window", mutate: func(ss *snapshot.StreamState) {
			ss.Monitor.N = 1 << 40
		}},
		{name: "moments of the wrong size", mutate: func(ss *snapshot.StreamState) {
			for name := range ss.Adapter.OptM {
				ss.Adapter.OptM[name] = tensor.New(1, 3)
				break
			}
		}},
		{name: "moments for a bank the checkpoint lacks", mutate: func(ss *snapshot.StreamState) {
			ss.Adapter.OptV["gnn0.tokens.node999"] = tensor.New(1, dim)
		}},
		{name: "pending round's scoring state is bad", lag: 3, mutate: func(ss *snapshot.StreamState) {
			banks := ss.Pending.ScoreDet.Graphs[0].Banks
			banks[len(banks)-1].Tokens = tensor.New(2, dim+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, frames := hostileStream(t, tc.lag)
			twin, _ := hostileStream(t, tc.lag)
			ss, err := st.Export()
			if err != nil {
				t.Fatal(err)
			}
			if tc.lag > 0 && ss.Pending == nil {
				t.Fatal("fixture has no pending round")
			}
			if tc.mutate != nil {
				tc.mutate(ss)
			}
			doc, err := json.Marshal(ss)
			if err != nil {
				t.Fatal(err)
			}
			if tc.rewrite != nil {
				rewritten := tc.rewrite(string(doc))
				if rewritten == string(doc) {
					t.Fatal("rewrite did not apply")
				}
				doc = []byte(rewritten)
			}
			if err := restoreJSON(st, doc); err == nil {
				t.Fatal("hostile state restored without error")
			}
			if tc.rewrite == nil {
				if err := restoreBinary(st, snapshot.AppendStream(nil, ss)); err == nil {
					t.Fatal("hostile state restored from the binary form without error")
				}
			}
			got := goldenDrive(t, st, frames, hostileServed, hostileServed+8)
			want := goldenDrive(t, twin, frames, hostileServed, hostileServed+8)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("frame %d after the failed restore: score %v, untouched twin %v", hostileServed+i, got[i], want[i])
				}
			}
		})
	}
}

// TestStateRestoresTheSameBitsTwice pins that a restore copies out of the
// state it is given: one *StreamState restored, adapted over, and restored
// again replays the same trajectory — and another stream restored from it
// afterwards does too.
func TestStateRestoresTheSameBitsTwice(t *testing.T) {
	st, frames := hostileStream(t, 3)
	ss, err := st.Export()
	if err != nil {
		t.Fatal(err)
	}
	want := goldenDrive(t, st, frames, hostileServed, len(frames))
	if s := st.Stats(); s.TriggeredRounds == 0 {
		t.Fatalf("no adaptation between the restores: %+v", s)
	}
	other, _ := hostileStream(t, 3)
	for i, target := range []*serve.Stream{st, st, other} {
		if err := target.Restore(ss); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		got := goldenDrive(t, target, frames, hostileServed, len(frames))
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("restore %d: frame %d scores %v, first pass %v", i, hostileServed+j, got[j], want[j])
			}
		}
	}
}

// FuzzRestoreStreamState feeds arbitrary bytes through the outside world's
// restore path into a tiny adaptive stream: decode and Restore must end in
// an error or a success, never a panic, and after an error the stream's
// next score equals an untouched twin's. The seeds are the version 2 states
// of the golden checkpoint and of the single-camera fixture, and the
// golden's state with an edge that skips levels (refused at CheckGraph).
func FuzzRestoreStreamState(f *testing.F) {
	var seeds [][]byte
	for _, fixture := range []string{goldenCheckpoint, "../../testdata/deploy_checkpoint_pr12.json"} {
		cp, err := snapshot.Load(fixture)
		if err != nil {
			f.Fatal(err)
		}
		state := snapshot.AppendStream(nil, &cp.Streams[0])
		f.Add(state)
		seeds = append(seeds, state)
	}
	skipping, err := snapshot.DecodeStream(seeds[0])
	if err != nil {
		f.Fatal(err)
	}
	skipping.Detector.Graphs[0].Graph = skipLevelEdge(skipping.Detector.Graphs[0].Graph)
	f.Add(snapshot.AppendStream(nil, skipping))
	// The golden's configuration, so that seed restores and its mutants get
	// past the config pin.
	backbone, gen := buildBackbone(f, 5)
	backbone.Deploy()
	cfg := streamCfg(3)
	cfg.ScoreHistory = 6
	cfg.Precision = core.PrecisionF64
	probe := frameSchedule(gen, 1, 1, 1, concept.Stealing, concept.Stealing)[0]
	clone := func(t testing.TB) *serve.Stream {
		det, err := backbone.CloneCOW()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(det.DiscardClone)
		st, err := serve.NewStream(0, det, cfg, rng.NewSource(29), &flops.Counter{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if err := restoreBinary(clone(f), seeds[0]); err != nil {
		f.Fatalf("the golden seed does not restore, so the fuzzer would only exercise rejections: %v", err)
	}
	f.Fuzz(func(t *testing.T, state []byte) {
		st := clone(t)
		if restoreBinary(st, state) == nil {
			return
		}
		got, want := st.Process(probe), clone(t).Process(probe)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("scoring after a failed restore: %v / %v", got.Err, want.Err)
		}
		if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
			t.Fatalf("score after a failed restore %v, untouched twin %v", got.Score, want.Score)
		}
	})
}

// hostileFrame is a frame of finite JSON numbers that overflows the image
// encoder: every slot 1.7e308, so the stream's score comes out NaN.
func hostileFrame(n int) *tensor.Tensor {
	pix := make([]float64, n)
	for i := range pix {
		pix[i] = 1.7e308
	}
	return tensor.FromSlice(pix, n)
}

// TestNonFiniteScoreLeavesStreamUntouched pins the refusal of a frame that
// scores NaN/±Inf: Result.Err wraps ErrBadFrame, and monitor, score history,
// frame counter and every later score equal — by bits — those of a twin
// that was fed the other 23 frames only. Before the check the NaN entered
// the monitor window and, on an adaptive stream, defeated the selection
// rule's Δm gate.
func TestNonFiniteScoreLeavesStreamUntouched(t *testing.T) {
	const frames, badAt = 24, 10
	for _, prec := range []core.Precision{core.PrecisionF64, core.PrecisionF32} {
		for _, lag := range []int{0, 3} {
			build := func() (*serve.Stream, []*tensor.Tensor) {
				det, gen := buildBackbone(t, 5)
				cfg := streamCfg(lag)
				cfg.ScoreHistory = frames
				cfg.Precision = prec
				var shared *flops.Counter
				if lag > 0 {
					shared = &flops.Counter{}
				}
				st, err := serve.NewStream(0, det, cfg, rng.NewSource(29), shared)
				if err != nil {
					t.Fatal(err)
				}
				return st, frameSchedule(gen, 777, frames-1, 10, concept.Stealing, concept.Robbery)
			}
			twin, sched := build()
			want := goldenDrive(t, twin, sched, 0, len(sched))

			st, _ := build()
			got := goldenDrive(t, st, sched, 0, badAt)
			res := st.Process(hostileFrame(sched[0].Size()))
			if !errors.Is(res.Err, serve.ErrBadFrame) {
				t.Fatalf("%v lag %d: hostile frame: err %v, want ErrBadFrame", prec, lag, res.Err)
			}
			if res.Seq != badAt || st.Stats().Frames != badAt || len(st.Scores()) != badAt {
				t.Fatalf("%v lag %d: refused frame advanced the stream: seq %d, frames %d, history %d",
					prec, lag, res.Seq, st.Stats().Frames, len(st.Scores()))
			}
			got = append(got, goldenDrive(t, st, sched, badAt, len(sched))...)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v lag %d: frame %d scored %v, the untouched twin %v", prec, lag, i, got[i], want[i])
				}
			}
			st.Sync()
			twin.Sync()
			a, b := st.Stats(), twin.Stats()
			a.ScoringOps, b.ScoringOps = 0, 0 // the refused frame was still scored, and metered
			if a != b {
				t.Fatalf("%v lag %d: stats diverged:\n%+v\n%+v", prec, lag, a, b)
			}
		}
	}
}
