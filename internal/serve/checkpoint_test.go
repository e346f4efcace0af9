package serve_test

import (
	"context"
	"path/filepath"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/kg"
	"edgekg/internal/parallel"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// pumpPart drives one stream over frames[lo:hi) in lockstep, asserting
// result sequence numbers against the absolute frame index. The anchored
// reference is forced to 1.0 before absolute frame refAt (when it falls in
// the range), matching pump's fixture behaviour.
func pumpPart(t *testing.T, s *serve.Server, id int, frames []*tensor.Tensor, lo, hi, refAt int) frameTrace {
	t.Helper()
	var tr frameTrace
	for i := lo; i < hi; i++ {
		if i == refAt {
			if err := s.Do(id, func(st *serve.Stream) { st.Monitor().SetReference(1.0) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Submit(id, frames[i]); err != nil {
			t.Fatal(err)
		}
		res, ok := <-resultsOf(t, s, id)
		if !ok {
			t.Fatalf("stream %d: results closed early", id)
		}
		if res.Err != nil {
			t.Fatalf("stream %d frame %d: %v", id, i, res.Err)
		}
		if res.Seq != i {
			t.Fatalf("stream %d: got seq %d, want %d", id, res.Seq, i)
		}
		tr.record(res)
	}
	return tr
}

func concatTraces(a, b frameTrace) frameTrace {
	return frameTrace{
		scores:    append(append([]float64(nil), a.scores...), b.scores...),
		applied:   append(append([]int(nil), a.applied...), b.applied...),
		triggered: append(append([]bool(nil), a.triggered...), b.triggered...),
		pruned:    append(append([]int(nil), a.pruned...), b.pruned...),
		created:   append(append([]int(nil), a.created...), b.created...),
	}
}

// checkpointCfg is the suite's server configuration: aggressive cadence,
// patience 1 (structural KG changes happen), score history on so the
// retained-history round trip is exercised too.
func checkpointCfg(lag int) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(lag)
	cfg.Stream.ScoreHistory = 6
	cfg.Seeds = []int64{31, 32}
	return cfg
}

// drainAndStats closes every stream, drains results, shuts down and
// returns per-stream stats, node sets and retained score histories.
func drainAndStats(t *testing.T, srv *serve.Server, n int) ([]serve.Stats, [][]kg.NodeID, [][]float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		srv.CloseStream(i)
		for range resultsOf(t, srv, i) {
		}
	}
	srv.Shutdown()
	stats := make([]serve.Stats, n)
	nodes := make([][]kg.NodeID, n)
	hist := make([][]float64, n)
	for i := 0; i < n; i++ {
		st := streamOf(t, srv, i)
		if err := st.Err(); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		stats[i] = st.Stats()
		nodes[i] = nodeIDs(st.Detector().Graphs()[0])
		hist[i] = st.Scores()
	}
	return stats, nodes, hist
}

// TestCheckpointResumeEquivalence is the warm-restart pin: an
// uninterrupted N-stream trajectory must be bit-identical to one that is
// checkpointed mid-run, torn down, restored into a fresh server over a
// freshly rebuilt backbone (the process-restart situation: only the seed
// and the checkpoint file survive), and continued — scores, adaptation
// decisions, stats, retained score history and final KG node sets — across
// worker counts and with or without an asynchronous adaptation round in
// flight at snapshot time.
func TestCheckpointResumeEquivalence(t *testing.T) {
	const seed = 11
	const frames = 24
	const split = 9 // with lag 3: round dispatched at frame 8, swap at 11 → in flight at the split
	const streams = 2

	mkSchedules := func() [][]*tensor.Tensor {
		_, gen := buildBackbone(t, seed)
		return [][]*tensor.Tensor{
			frameSchedule(gen, 501, frames, 8, concept.Stealing, concept.Robbery),
			frameSchedule(gen, 502, frames, 12, concept.Stealing, concept.Explosion),
		}
	}

	for _, workers := range []int{1, 8} {
		for _, lag := range []int{0, 3} {
			prev := parallel.SetWorkers(workers)

			// Arm 1: uninterrupted.
			backbone, _ := buildBackbone(t, seed)
			schedules := mkSchedules()
			srvA, err := serve.NewServer(backbone, streams, checkpointCfg(lag))
			if err != nil {
				t.Fatal(err)
			}
			refTraces := make([]frameTrace, streams)
			for i := 0; i < streams; i++ {
				refTraces[i] = pumpPart(t, srvA, i, schedules[i], 0, frames, 4)
			}
			refStats, refNodes, refHist := drainAndStats(t, srvA, streams)

			// Arm 2, phase 1: run to the split and checkpoint through the
			// file layer (Save/Load), then tear the server down completely.
			backboneB, _ := buildBackbone(t, seed)
			srvB, err := serve.NewServer(backboneB, streams, checkpointCfg(lag))
			if err != nil {
				t.Fatal(err)
			}
			preTraces := make([]frameTrace, streams)
			for i := 0; i < streams; i++ {
				preTraces[i] = pumpPart(t, srvB, i, schedules[i], 0, split, 4)
			}
			cp, err := srvB.Checkpoint(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < streams; i++ {
				if lag > 0 && cp.Streams[i].Pending == nil {
					t.Fatalf("lag %d: stream %d has no round in flight at the split — fixture is vacuous", lag, i)
				}
				if lag == 0 && cp.Streams[i].Pending != nil {
					t.Fatalf("synchronous stream %d checkpointed a pending round", i)
				}
				if cp.Streams[i].Frames != split {
					t.Fatalf("stream %d checkpointed at frame %d, want %d", i, cp.Streams[i].Frames, split)
				}
			}
			path := filepath.Join(t.TempDir(), "checkpoint.json")
			if err := snapshot.Save(path, cp); err != nil {
				t.Fatal(err)
			}
			drainAndStats(t, srvB, streams) // full teardown, adapted state discarded

			// Arm 2, phase 2: fresh backbone (rebuilt from the seed, as a
			// restarting process would), fresh server, restore, continue.
			loaded, err := snapshot.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			backboneC, _ := buildBackbone(t, seed)
			srvC, err := serve.NewServer(backboneC, streams, checkpointCfg(lag))
			if err != nil {
				t.Fatal(err)
			}
			if err := srvC.Restore(loaded); err != nil {
				t.Fatal(err)
			}
			resTraces := make([]frameTrace, streams)
			for i := 0; i < streams; i++ {
				resTraces[i] = pumpPart(t, srvC, i, schedules[i], split, frames, 4)
			}
			resStats, resNodes, resHist := drainAndStats(t, srvC, streams)

			parallel.SetWorkers(prev)

			anyTriggered := false
			for i := 0; i < streams; i++ {
				full := concatTraces(preTraces[i], resTraces[i])
				if !equalTraces(refTraces[i], full) {
					t.Fatalf("workers %d lag %d: stream %d resumed trajectory differs from uninterrupted run\nref: scores %v applied %v\ngot: scores %v applied %v",
						workers, lag, i, refTraces[i].scores, refTraces[i].applied, full.scores, full.applied)
				}
				anyTriggered = anyTriggered || anyTrue(refTraces[i].triggered)
				if refStats[i].Frames != resStats[i].Frames ||
					refStats[i].AdaptRounds != resStats[i].AdaptRounds ||
					refStats[i].TriggeredRounds != resStats[i].TriggeredRounds ||
					refStats[i].PrunedNodes != resStats[i].PrunedNodes ||
					refStats[i].CreatedNodes != resStats[i].CreatedNodes ||
					refStats[i].ResidentBytes != resStats[i].ResidentBytes {
					t.Fatalf("workers %d lag %d: stream %d stats mismatch: %+v vs %+v",
						workers, lag, i, refStats[i], resStats[i])
				}
				if len(refNodes[i]) != len(resNodes[i]) {
					t.Fatalf("workers %d lag %d: stream %d final node sets differ: %v vs %v",
						workers, lag, i, refNodes[i], resNodes[i])
				}
				for k := range refNodes[i] {
					if refNodes[i][k] != resNodes[i][k] {
						t.Fatalf("workers %d lag %d: stream %d final node sets differ: %v vs %v",
							workers, lag, i, refNodes[i], resNodes[i])
					}
				}
				if len(refHist[i]) != len(resHist[i]) {
					t.Fatalf("workers %d lag %d: stream %d score history length %d vs %d",
						workers, lag, i, len(refHist[i]), len(resHist[i]))
				}
				for k := range refHist[i] {
					if refHist[i][k] != resHist[i][k] {
						t.Fatalf("workers %d lag %d: stream %d retained score history differs at %d",
							workers, lag, i, k)
					}
				}
			}
			if !anyTriggered {
				t.Fatalf("workers %d lag %d: no adaptation round ever triggered — equivalence is vacuous", workers, lag)
			}
		}
	}
}

// TestCheckpointRestoreValidation pins the loud-failure contract of the
// restore path: wrong stream count, wrong per-stream configuration, and
// adaptive/static mode mismatches are all rejected.
func TestCheckpointRestoreValidation(t *testing.T) {
	backbone, _ := buildBackbone(t, 12)
	srv, err := serve.NewServer(backbone, 2, checkpointCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := srv.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()

	// Stream count mismatch.
	b2, _ := buildBackbone(t, 12)
	one, err := serve.NewServer(b2, 1, checkpointCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := one.Restore(cp); err == nil {
		t.Error("stream-count mismatch accepted")
	}
	one.Shutdown()

	// Config pin mismatch (different cadence).
	b3, _ := buildBackbone(t, 12)
	badCfg := checkpointCfg(0)
	badCfg.Stream.AdaptEveryFrames = 16
	mis, err := serve.NewServer(b3, 2, badCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mis.Restore(cp); err == nil {
		t.Error("config mismatch accepted")
	}
	mis.Shutdown()

	// Adaptive checkpoint into a static server.
	b4, _ := buildBackbone(t, 12)
	statCfg := checkpointCfg(0)
	statCfg.Stream.AdaptEveryFrames = 0
	stat, err := serve.NewServer(b4, 2, statCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := stat.Restore(cp); err == nil {
		t.Error("adaptive checkpoint restored into static server")
	}
	stat.Shutdown()

	// Header tampering.
	bad := *cp
	bad.Version = snapshot.Version + 1
	b5, _ := buildBackbone(t, 12)
	fresh, err := serve.NewServer(b5, 2, checkpointCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(&bad); err == nil {
		t.Error("version-mismatched checkpoint accepted")
	}
	fresh.Shutdown()
}

// TestServerAccessorValidation is the regression test for the harmonized
// accessor surface: Stream and Results validate ids and return errors like
// their siblings (Submit, StreamStats, Do) instead of panicking.
func TestServerAccessorValidation(t *testing.T) {
	backbone, _ := buildBackbone(t, 13)
	srv, err := serve.NewServer(backbone, 2, checkpointCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	for _, id := range []int{-1, 2, 99} {
		if _, err := srv.Stream(id); err == nil {
			t.Errorf("Stream(%d) accepted", id)
		}
		if _, err := srv.Results(id); err == nil {
			t.Errorf("Results(%d) accepted", id)
		}
		if err := srv.Submit(id, nil); err == nil {
			t.Errorf("Submit(%d) accepted", id)
		}
		if _, err := srv.StreamStats(id); err == nil {
			t.Errorf("StreamStats(%d) accepted", id)
		}
		if err := srv.Do(id, func(*serve.Stream) {}); err == nil {
			t.Errorf("Do(%d) accepted", id)
		}
	}
	for id := 0; id < 2; id++ {
		st, err := srv.Stream(id)
		if err != nil || st == nil {
			t.Fatalf("Stream(%d): %v", id, err)
		}
		if st.ID() != id {
			t.Fatalf("Stream(%d) returned stream %d", id, st.ID())
		}
		ch, err := srv.Results(id)
		if err != nil || ch == nil {
			t.Fatalf("Results(%d): %v", id, err)
		}
	}
}

// TestStreamScoresBoundaries is the table test for score-history
// retention: for every retention length and processed count, Scores
// returns exactly the most recent min(h, processed) scores; retention 0
// disables recording, and negative retention is rejected at construction.
func TestStreamScoresBoundaries(t *testing.T) {
	backbone, gen := buildBackbone(t, 14)
	frames := frameSchedule(gen, 601, 7, 7, concept.Stealing, concept.Stealing)

	cfgFor := func(h int) serve.StreamConfig {
		cfg := streamCfg(0)
		cfg.AdaptEveryFrames = 0 // static: the table is about retention only
		cfg.ScoreHistory = h
		return cfg
	}

	if _, err := serve.NewStream(0, backbone, cfgFor(-1), rng.NewSource(1), nil); err == nil {
		t.Fatal("negative ScoreHistory accepted")
	}

	for _, h := range []int{0, 1, 2, 5, 7, 10} {
		det, err := backbone.CloneShared()
		if err != nil {
			t.Fatal(err)
		}
		st, err := serve.NewStream(0, det, cfgFor(h), rng.NewSource(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		var all []float64
		for p := 0; p <= len(frames); p++ {
			got := st.Scores()
			if h <= 0 {
				if len(got) != 0 {
					t.Fatalf("h=%d processed=%d: retention disabled but got %d scores", h, p, len(got))
				}
			} else {
				want := all
				if len(want) > h {
					want = want[len(want)-h:]
				}
				if len(got) != len(want) {
					t.Fatalf("h=%d processed=%d: got %d scores, want %d", h, p, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("h=%d processed=%d: scores[%d] = %v, want %v", h, p, i, got[i], want[i])
					}
				}
			}
			if p < len(frames) {
				res := st.Process(frames[p])
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				all = append(all, res.Score)
			}
		}
	}
}

// TestStreamConfigValidation pins the constructor's rejection of negative
// cadence and lag values and of monitor and adapter settings their own
// constructors refuse.
func TestStreamConfigValidation(t *testing.T) {
	backbone, _ := buildBackbone(t, 15)
	bad := streamCfg(0)
	bad.AdaptEveryFrames = -1
	if _, err := serve.NewStream(0, backbone, bad, rng.NewSource(1), nil); err == nil {
		t.Error("negative AdaptEveryFrames accepted")
	}
	bad = streamCfg(0)
	bad.AdaptLagFrames = -2
	if _, err := serve.NewStream(0, backbone, bad, rng.NewSource(1), nil); err == nil {
		t.Error("negative AdaptLagFrames accepted")
	}
	bad = streamCfg(0)
	bad.MonitorN = 1
	if _, err := serve.NewStream(0, backbone, bad, rng.NewSource(1), nil); err == nil {
		t.Error("bad monitor config accepted")
	}
	bad = streamCfg(0)
	bad.Adapt.LR = 0
	if _, err := serve.NewStream(0, backbone, bad, rng.NewSource(1), nil); err == nil {
		t.Error("bad adapt config accepted")
	}
}
