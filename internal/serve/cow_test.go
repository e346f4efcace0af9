package serve_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/flops"
	"edgekg/internal/parallel"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// TestCOWStaticStreamsAliasBackbone pins the headline sharing invariant:
// with adaptation disabled, every stream's token pages ARE the backbone's
// tensors (pointer-identical, not copies), the stream owns zero bank and
// graph bytes, and scoring still works — the 10-100× density case. A
// server restored from those streams' checkpoint shares the same way and
// is charged the same resident bytes.
func TestCOWStaticStreamsAliasBackbone(t *testing.T) {
	backbone, gen := buildBackbone(t, 41)
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(0)
	cfg.Stream.AdaptEveryFrames = 0
	const streams = 4
	srv, err := serve.NewServer(backbone, streams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := frameSchedule(gen, 611, 6, 6, concept.Stealing, concept.Stealing)
	for i := 0; i < streams; i++ {
		for _, f := range frames {
			if err := srv.Submit(i, f); err != nil {
				t.Fatal(err)
			}
			if res, ok := <-resultsOf(t, srv, i); !ok || res.Err != nil {
				t.Fatalf("stream %d: ok=%v err=%v", i, ok, res.Err)
			}
		}
	}
	cp, err := srv.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := serve.NewServer(backbone, streams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}
	drain := func(srv *serve.Server) {
		for i := 0; i < streams; i++ {
			srv.CloseStream(i)
			for range resultsOf(t, srv, i) {
			}
		}
		srv.Shutdown()
	}
	drain(srv)
	drain(restored)

	bank := backbone.GNN(0).Tokens()
	for i := 0; i < streams; i++ {
		for name, srv := range map[string]*serve.Server{"served": srv, "restored": restored} {
			st := streamOf(t, srv, i)
			mem := st.Detector().Mem()
			if mem.BankOwned != 0 || mem.GraphOwned != 0 {
				t.Errorf("%s static stream %d owns bytes: banks %d graphs %d", name, i, mem.BankOwned, mem.GraphOwned)
			}
			if mem.BankShared == 0 || mem.GraphShared == 0 {
				t.Errorf("%s static stream %d reports no shared bytes", name, i)
			}
			sb := st.Detector().GNN(0).Tokens()
			for _, id := range bank.NodeIDs() {
				if sb.Bank(id).Data != bank.Bank(id).Data {
					t.Fatalf("%s stream %d node %d: page is a copy, not an alias", name, i, id)
				}
			}
		}
		served, back := streamOf(t, srv, i).Stats(), streamOf(t, restored, i).Stats()
		if served.ResidentBytes == 0 {
			t.Errorf("stream %d reports zero resident bytes (monitor window should be charged)", i)
		}
		if back.ResidentBytes != served.ResidentBytes {
			t.Errorf("restored stream %d charged %d resident bytes, served %d", i, back.ResidentBytes, served.ResidentBytes)
		}
	}
}

// TestCOWWriterIsolation is the copy-on-write isolation pin, run at 1 and
// 8 workers (the race shard runs this package under -race): a drifting
// stream whose adapter writes its banks materializes private pages; the
// backbone stays bit-unchanged; and the full multi-stream trajectory plus
// every final bank page is bit-equal to the deep-copy oracle — standalone
// streams over core.Detector.CloneShared copies of an identical backbone,
// which share no mutable state with it to begin with. COW is purely a
// memory optimisation.
func TestCOWWriterIsolation(t *testing.T) {
	const seed = 42
	const streams = 3
	const frames = 24

	mkSchedules := func() [][]*tensor.Tensor {
		_, gen := buildBackbone(t, seed)
		out := make([][]*tensor.Tensor, streams)
		// Stream 0 drifts (its forced reference makes adaptation write);
		// the others watch a stationary trend.
		out[0] = frameSchedule(gen, 621, frames, 8, concept.Stealing, concept.Robbery)
		for i := 1; i < streams; i++ {
			out[i] = frameSchedule(gen, 622+int64(i), frames, frames, concept.Stealing, concept.Stealing)
		}
		return out
	}
	refAt := func(stream int) int {
		if stream == 0 {
			return 4
		}
		return -1 // never force the reference: siblings mostly stay quiet
	}
	cfg := checkpointCfg(3)
	cfg.Seeds = []int64{31, 32, 33}

	pages := func(st *serve.Stream) [][]float64 {
		var out [][]float64
		sb := st.Detector().GNN(0).Tokens()
		for _, id := range sb.NodeIDs() {
			out = append(out, append([]float64(nil), sb.Bank(id).Data.Data()...))
		}
		return out
	}

	// run serves the schedules through a COW server; oracle drives the
	// same frames through deep-copied standalone streams.
	run := func() ([]frameTrace, [][]float64, [][][]float64) {
		backbone, _ := buildBackbone(t, seed)
		schedules := mkSchedules()
		srv, err := serve.NewServer(backbone, streams, cfg)
		if err != nil {
			t.Fatal(err)
		}

		bank := backbone.GNN(0).Tokens()
		before := make(map[int][]float64)
		for _, id := range bank.NodeIDs() {
			before[int(id)] = append([]float64(nil), bank.Bank(id).Data.Data()...)
		}

		traces := make([]frameTrace, streams)
		for i := 0; i < streams; i++ {
			traces[i] = pumpPart(t, srv, i, schedules[i], 0, frames, refAt(i))
		}
		_, _, hist := drainAndStats(t, srv, streams)

		// The backbone's pages never move.
		for _, id := range bank.NodeIDs() {
			got := bank.Bank(id).Data.Data()
			want := before[int(id)]
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("backbone bank %d moved at %d", id, k)
				}
			}
		}

		// The writer adapted and materialized private pages.
		if !anyTrue(traces[0].triggered) {
			t.Fatal("writer stream never triggered — fixture is vacuous")
		}
		if streamOf(t, srv, 0).Detector().Mem().BankOwned == 0 {
			t.Error("writer stream owns no bank bytes after adaptation writes")
		}

		banks := make([][][]float64, streams)
		for i := 0; i < streams; i++ {
			banks[i] = pages(streamOf(t, srv, i))
		}
		return traces, hist, banks
	}
	oracle := func() ([]frameTrace, [][]float64, [][][]float64) {
		backbone, _ := buildBackbone(t, seed)
		backbone.Deploy()
		schedules := mkSchedules()
		traces := make([]frameTrace, streams)
		hist := make([][]float64, streams)
		banks := make([][][]float64, streams)
		for i := 0; i < streams; i++ {
			det, err := backbone.CloneShared()
			if err != nil {
				t.Fatal(err)
			}
			st, err := serve.NewStream(i, det, cfg.Stream, rng.NewSource(cfg.Seeds[i]), &flops.Counter{})
			if err != nil {
				t.Fatal(err)
			}
			for f, frame := range schedules[i] {
				if f == refAt(i) {
					st.Monitor().SetReference(1.0)
				}
				res := st.Process(frame)
				if res.Err != nil || res.Seq != f {
					t.Fatalf("oracle stream %d frame %d: seq %d err %v", i, f, res.Seq, res.Err)
				}
				traces[i].record(res)
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			hist[i], banks[i] = st.Scores(), pages(st)
		}
		return traces, hist, banks
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)

			cowTraces, cowHist, cowBanks := run()
			eagerTraces, eagerHist, eagerBanks := oracle()
			for i := 0; i < streams; i++ {
				if !equalTraces(cowTraces[i], eagerTraces[i]) {
					t.Errorf("stream %d: COW trajectory differs from the deep-copy oracle\ncow: %v\ndeep: %v",
						i, cowTraces[i].scores, eagerTraces[i].scores)
				}
				if len(cowHist[i]) != len(eagerHist[i]) {
					t.Errorf("stream %d: history length %d vs %d", i, len(cowHist[i]), len(eagerHist[i]))
				}
				if len(cowBanks[i]) != len(eagerBanks[i]) {
					t.Fatalf("stream %d: bank count %d vs %d", i, len(cowBanks[i]), len(eagerBanks[i]))
				}
				for p := range cowBanks[i] {
					for k := range cowBanks[i][p] {
						if cowBanks[i][p][k] != eagerBanks[i][p][k] {
							t.Fatalf("stream %d page %d: COW bank bits differ from the deep copy at %d", i, p, k)
						}
					}
				}
			}
		})
	}
}

// TestEvictRehydrateEquivalence is the spill pin, structured like the
// warm-restart test: an uninterrupted run must be bit-identical to one
// whose streams are all evicted to disk mid-drift — including, at lag 3,
// with an asynchronous adaptation round in flight at the eviction point —
// and lazily rehydrated by the next frame.
func TestEvictRehydrateEquivalence(t *testing.T) {
	const seed = 11
	const frames = 24
	const split = 9 // with lag 3: round dispatched at frame 8, swap at 11 → in flight
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

			// Arm 1: uninterrupted reference.
			backbone, _ := buildBackbone(t, seed)
			schedules := mkSchedules()
			cfgA := checkpointCfg(lag)
			cfgA.SpillDir = t.TempDir()
			srvA, err := serve.NewServer(backbone, streams, cfgA)
			if err != nil {
				t.Fatal(err)
			}
			refTraces := make([]frameTrace, streams)
			for i := 0; i < streams; i++ {
				refTraces[i] = pumpPart(t, srvA, i, schedules[i], 0, frames, 4)
			}
			refStats, refNodes, refHist := drainAndStats(t, srvA, streams)

			// Arm 2: run to the split, evict every stream to disk, keep
			// pumping — the next frame rehydrates from the spill file.
			backboneB, _ := buildBackbone(t, seed)
			cfgB := checkpointCfg(lag)
			cfgB.SpillDir = t.TempDir()
			srvB, err := serve.NewServer(backboneB, streams, cfgB)
			if err != nil {
				t.Fatal(err)
			}
			preTraces := make([]frameTrace, streams)
			for i := 0; i < streams; i++ {
				preTraces[i] = pumpPart(t, srvB, i, schedules[i], 0, split, 4)
			}
			for i := 0; i < streams; i++ {
				if err := srvB.EvictStream(i); err != nil {
					t.Fatalf("evict stream %d: %v", i, err)
				}
				// Direct read, not a Do barrier: non-raw barriers settle the
				// stream, which would rehydrate a spilled pending round. The
				// EvictStream barrier already completed, so this is safe.
				if !streamOf(t, srvB, i).Evicted() {
					t.Errorf("stream %d not marked evicted after EvictStream", i)
				}
				// The spill file is a 1-stream checkpoint; with lag it must
				// carry the in-flight round so rehydration can replay it.
				spill := filepath.Join(cfgB.SpillDir, fmt.Sprintf("stream-%d.spill.json", i))
				cp, err := snapshot.Load(spill)
				if err != nil {
					t.Fatalf("stream %d spill: %v", i, err)
				}
				if lag > 0 && cp.Streams[0].Pending == nil {
					t.Fatalf("lag %d: stream %d spilled without its in-flight round — fixture is vacuous", lag, i)
				}
				if lag == 0 && cp.Streams[0].Pending != nil {
					t.Fatalf("synchronous stream %d spilled a pending round", i)
				}
			}
			resTraces := make([]frameTrace, streams)
			for i := 0; i < streams; i++ {
				resTraces[i] = pumpPart(t, srvB, i, schedules[i], split, frames, 4)
			}
			resStats, resNodes, resHist := drainAndStats(t, srvB, streams)

			parallel.SetWorkers(prev)

			anyTriggered := false
			for i := 0; i < streams; i++ {
				full := concatTraces(preTraces[i], resTraces[i])
				if !equalTraces(refTraces[i], full) {
					t.Fatalf("workers %d lag %d: stream %d evicted trajectory differs from uninterrupted run\nref: scores %v applied %v\ngot: scores %v applied %v",
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
				if resStats[i].Evictions != 1 {
					t.Errorf("workers %d lag %d: stream %d evictions = %d, want 1",
						workers, lag, i, resStats[i].Evictions)
				}
				if len(refNodes[i]) != len(resNodes[i]) {
					t.Fatalf("workers %d lag %d: stream %d final node sets differ", workers, lag, i)
				}
				for k := range refNodes[i] {
					if refNodes[i][k] != resNodes[i][k] {
						t.Fatalf("workers %d lag %d: stream %d final node sets differ", workers, lag, i)
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
				// Rehydration consumed the spill file.
				spill := filepath.Join(cfgB.SpillDir, fmt.Sprintf("stream-%d.spill.json", i))
				if _, err := os.Stat(spill); !os.IsNotExist(err) {
					t.Errorf("stream %d spill file survived rehydration: %v", i, err)
				}
			}
			if !anyTriggered {
				t.Fatalf("workers %d lag %d: no adaptation round ever triggered — equivalence is vacuous", workers, lag)
			}
		}
	}
}

// TestBudgetEvictionEquivalence pins the automatic eviction policy: under
// an impossibly tight budget every idle stream spills, yet the per-stream
// trajectories remain bit-identical to an unbudgeted run — eviction timing
// is nondeterministic, trajectories are not.
func TestBudgetEvictionEquivalence(t *testing.T) {
	const seed = 17
	const frames = 24
	const chunk = 8
	const streams = 3

	mkSchedules := func() [][]*tensor.Tensor {
		_, gen := buildBackbone(t, seed)
		return [][]*tensor.Tensor{
			frameSchedule(gen, 701, frames, 8, concept.Stealing, concept.Robbery),
			frameSchedule(gen, 702, frames, 12, concept.Stealing, concept.Explosion),
			frameSchedule(gen, 703, frames, frames, concept.Normal, concept.Normal),
		}
	}

	// Interleave chunks across streams so each stream goes idle between its
	// chunks — exactly when the budget-driven policy evicts it.
	run := func(budget int64) ([]frameTrace, []serve.Stats) {
		backbone, _ := buildBackbone(t, seed)
		schedules := mkSchedules()
		cfg := checkpointCfg(0)
		cfg.Seeds = []int64{31, 32, 33}
		cfg.MemBudgetBytes = budget
		cfg.SpillDir = t.TempDir()
		srv, err := serve.NewServer(backbone, streams, cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces := make([]frameTrace, streams)
		for lo := 0; lo < frames; lo += chunk {
			for i := 0; i < streams; i++ {
				part := pumpPart(t, srv, i, schedules[i], lo, lo+chunk, 4)
				traces[i] = concatTraces(traces[i], part)
			}
		}
		stats, _, _ := drainAndStats(t, srv, streams)
		return traces, stats
	}

	refTraces, refStats := run(0) // unbudgeted: nothing ever evicts
	tightTraces, tightStats := run(1)

	evictions := 0
	for i := 0; i < streams; i++ {
		if refStats[i].Evictions != 0 {
			t.Errorf("unbudgeted stream %d evicted %d times", i, refStats[i].Evictions)
		}
		evictions += tightStats[i].Evictions
		if !equalTraces(refTraces[i], tightTraces[i]) {
			t.Errorf("stream %d: budgeted trajectory differs from unbudgeted run\nref: %v\ngot: %v",
				i, refTraces[i].scores, tightTraces[i].scores)
		}
		if refStats[i].Frames != tightStats[i].Frames ||
			refStats[i].AdaptRounds != tightStats[i].AdaptRounds ||
			refStats[i].TriggeredRounds != tightStats[i].TriggeredRounds {
			t.Errorf("stream %d: stats mismatch: %+v vs %+v", i, refStats[i], tightStats[i])
		}
	}
	if evictions == 0 {
		t.Fatal("tight budget never evicted a stream — policy test is vacuous")
	}
}
