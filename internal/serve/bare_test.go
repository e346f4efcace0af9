package serve_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// The bare lag-0 stream — serve.NewStream(0, det, cfg, src, nil) driven by
// Process on the caller's detector — is the deployed object of the paper's
// Fig. 2(C) and what the experiments run. These
// tests pin its single-camera semantics: exclusive metering, device-derived
// cost figures and the 1-stream checkpoint file.

// raceEnabled is set by race_flag_test.go when the race detector is on.
var raceEnabled bool

func bareStream(t *testing.T, seed int64, src rand.Source) (*serve.Stream, []*tensor.Tensor) {
	t.Helper()
	det, gen := buildBackbone(t, seed)
	st, err := serve.NewStream(0, det, streamCfg(0), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, frameSchedule(gen, 777, 24, 10, concept.Stealing, concept.Robbery)
}

func TestBareStreamScoresAndMeters(t *testing.T) {
	st, frames := bareStream(t, 1, rand.NewSource(11))
	if !st.Adaptive() {
		t.Fatal("stream should be adaptive")
	}
	for i, f := range frames[:16] {
		if i == 8 {
			// Force a mean drop so the second round triggers: pretend healthy
			// operation scored far higher than what we see now.
			st.Monitor().SetReference(1.0)
		}
		res := st.Process(f)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Score < 0 || res.Score > 1 {
			t.Fatalf("score %v out of range", res.Score)
		}
	}
	s := st.Stats()
	if s.Frames != 16 || s.AdaptRounds != 2 {
		t.Errorf("frames %d rounds %d, want 16 and 2 (every 8 frames)", s.Frames, s.AdaptRounds)
	}
	if s.TriggeredRounds == 0 {
		t.Error("forced mean drop did not trigger")
	}
	if s.ScoringOps <= 0 || s.AdaptOps <= 0 {
		t.Errorf("exclusive metering recorded scoring %d adaptation %d ops", s.ScoringOps, s.AdaptOps)
	}
	if n := st.Ledger().PhaseEvents(serve.PhaseScoring); n != 16 {
		t.Errorf("scoring events = %d", n)
	}
}

func TestBareStreamStatsDeviceDerived(t *testing.T) {
	st, frames := bareStream(t, 3, rand.NewSource(13))
	for _, f := range frames[:8] {
		if res := st.Process(f); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	s := st.Stats()
	if s.AdaptRounds != 1 {
		t.Fatalf("adapt rounds = %d", s.AdaptRounds)
	}
	dev := streamCfg(0).Device
	if want := dev.EnergyJoules(s.AdaptOpsPerRound); s.EnergyPerAdaptJ != want {
		t.Errorf("energy %v, want %v", s.EnergyPerAdaptJ, want)
	}
	if want := dev.LatencySeconds(s.AdaptOpsPerRound); s.AdaptLatencyS != want {
		t.Errorf("latency %v, want %v", s.AdaptLatencyS, want)
	}
}

// TestBareStreamRequiresSerializableRNG pins the loud failure when a
// stream built over a non-serializable random source is checkpointed or
// restored.
func TestBareStreamRequiresSerializableRNG(t *testing.T) {
	good, _ := bareStream(t, 22, rng.NewSource(1))
	ss, err := good.Export()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := bareStream(t, 22, rand.NewSource(1))
	if _, err := st.Export(); err == nil {
		t.Error("export over a stdlib rand source accepted")
	}
	if err := st.Save(filepath.Join(t.TempDir(), "s.json")); err == nil {
		t.Error("save over a stdlib rand source accepted")
	}
	if err := st.Restore(ss); err == nil {
		t.Error("restore over a stdlib rand source accepted")
	}
}

// drive processes frames[lo:hi) on a bare stream, forcing the anchored
// reference before frame 4 like the server fixtures do.
func drive(t *testing.T, st *serve.Stream, frames []*tensor.Tensor, lo, hi int) frameTrace {
	t.Helper()
	var tr frameTrace
	for i := lo; i < hi; i++ {
		if i == 4 {
			st.Monitor().SetReference(1.0)
		}
		res := st.Process(frames[i])
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		tr.record(res)
	}
	return tr
}

// TestStreamSaveLoadResumeEquivalence pins warm restart at the file level
// for the bare stream: Save mid-run, rebuild the fixture from the seed (the
// process-restart situation), Load, continue — scores, round reports,
// stats and ledger totals (exclusive metering is deterministic) are
// bit-identical to the uninterrupted run, on the detector adapted in
// place. The same file also restores into a 1-stream Server built with
// the identical StreamConfig, whose own checkpoint loads back into a bare
// stream — the two deployments share one on-disk format.
func TestStreamSaveLoadResumeEquivalence(t *testing.T) {
	const seed, split, mid, frames = 21, 11, 17, 24
	dir := t.TempDir()

	stA, stream := bareStream(t, seed, rng.NewSource(5))
	want := drive(t, stA, stream, 0, frames)
	wantStats := stA.Stats()
	if wantStats.TriggeredRounds == 0 {
		t.Fatal("fixture never adapted — equivalence is vacuous")
	}

	stB, _ := bareStream(t, seed, rng.NewSource(5))
	got := drive(t, stB, stream, 0, split)
	bare := filepath.Join(dir, "bare.json")
	if err := stB.Save(bare); err != nil {
		t.Fatal(err)
	}

	// Bare → bare. The construction seed is irrelevant: Load restores the
	// RNG state.
	stC, _ := bareStream(t, seed, rng.NewSource(999))
	if err := stC.Load(bare); err != nil {
		t.Fatal(err)
	}
	if !equalTraces(concatTraces(got, drive(t, stC, stream, split, frames)), want) {
		t.Fatal("bare stream resumed from its file diverged from the uninterrupted run")
	}
	if s := stC.Stats(); s != wantStats {
		t.Fatalf("resumed stats %+v != uninterrupted %+v", s, wantStats)
	}
	for _, ph := range []string{serve.PhaseScoring, serve.PhaseAdaptation} {
		if a, b := stC.Ledger().PhaseOps(ph), stA.Ledger().PhaseOps(ph); a != b {
			t.Fatalf("%s ledger total %d after resume, want %d", ph, a, b)
		}
		if a, b := stC.Ledger().PhaseEvents(ph), stA.Ledger().PhaseEvents(ph); a != b {
			t.Fatalf("%s ledger events %d after resume, want %d", ph, a, b)
		}
	}
	if a, b := nodeIDs(stC.Detector().Graphs()[0]), nodeIDs(stA.Detector().Graphs()[0]); !reflect.DeepEqual(a, b) {
		t.Fatalf("final node sets differ: %v vs %v", a, b)
	}

	// Bare → 1-stream server → bare.
	backbone, _ := buildBackbone(t, seed)
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(0)
	srv, err := serve.NewServer(backbone, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := snapshot.Load(bare)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Restore(cp); err != nil {
		t.Fatalf("bare stream's file into a 1-stream server: %v", err)
	}
	viaServer := concatTraces(got, pumpPart(t, srv, 0, stream, split, mid, 4))
	cp, err = srv.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	served := filepath.Join(dir, "served.json")
	if err := snapshot.Save(served, cp); err != nil {
		t.Fatal(err)
	}
	stD, _ := bareStream(t, seed, rng.NewSource(999))
	if err := stD.Load(served); err != nil {
		t.Fatalf("1-stream server's file into a bare stream: %v", err)
	}
	if !equalTraces(concatTraces(viaServer, drive(t, stD, stream, mid, frames)), want) {
		t.Fatal("bare → server → bare resume diverged from the uninterrupted run")
	}
	if s := stD.Stats(); s != wantStats {
		t.Fatalf("stats after bare → server → bare %+v != uninterrupted %+v", s, wantStats)
	}
}

// TestStreamLoadMismatch pins Load's refusals: a multi-stream checkpoint
// and a static/adaptive mismatch (either way round) return
// ErrCheckpointMismatch and leave the stream exactly as it was.
func TestStreamLoadMismatch(t *testing.T) {
	const seed, split, frames = 23, 11, 24
	dir := t.TempDir()

	ref, stream := bareStream(t, seed, rng.NewSource(5))
	want := drive(t, ref, stream, 0, frames)

	adaptive, _ := bareStream(t, seed, rng.NewSource(5))
	head := drive(t, adaptive, stream, 0, split)
	det, _ := buildBackbone(t, seed)
	staticCfg := streamCfg(0)
	staticCfg.AdaptEveryFrames = 0
	static, err := serve.NewStream(0, det, staticCfg, rng.NewSource(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, static, stream, 0, split)

	export := func(st *serve.Stream) *snapshot.StreamState {
		t.Helper()
		ss, err := st.Export()
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	// write saves streams as one checkpoint file, with the config pin of
	// the stream it will be loaded into so the check under test — not the
	// cadence pin — is what refuses it.
	write := func(name string, into *serve.Stream, streams ...*snapshot.StreamState) string {
		t.Helper()
		cp := snapshot.New(len(streams))
		for i, ss := range streams {
			cp.Streams[i] = *ss
			cp.Streams[i].Config = export(into).Config
		}
		path := filepath.Join(dir, name)
		if err := snapshot.Save(path, cp); err != nil {
			t.Fatal(err)
		}
		return path
	}

	for _, c := range []struct {
		name string
		into *serve.Stream
		path string
	}{
		{"two streams", adaptive, write("two.json", adaptive, export(adaptive), export(adaptive))},
		{"static into adaptive", adaptive, write("static.json", adaptive, export(static))},
		{"adaptive into static", static, write("adaptive.json", static, export(adaptive))},
	} {
		before := export(c.into)
		if err := c.into.Load(c.path); !errors.Is(err, serve.ErrCheckpointMismatch) {
			t.Fatalf("%s: Load returned %v, want ErrCheckpointMismatch", c.name, err)
		}
		if !reflect.DeepEqual(before, export(c.into)) {
			t.Fatalf("%s: refused Load changed the stream's state", c.name)
		}
	}
	if !equalTraces(concatTraces(head, drive(t, adaptive, stream, split, frames)), want) {
		t.Fatal("stream diverged from the uninterrupted run after refused Loads")
	}
}

// TestStaticStreamProcessAllocCeiling keeps a static stream's served frame
// from creeping back up in allocations. The frame's reshape header and the
// engine's returned scores are left, plus the monitor's float32 copy of
// the frame at float32: measured 2 at float64 and 3 at float32, one more
// each while exclusive metering allocated a fresh counter per phase
// (flops.Count) and another while Reshape's panic message sent its shape
// argument to the heap. Under the race detector sync.Pool
// drops a quarter of the workspaces put back, and each drop is re-made on
// the next call, so the ceiling there is looser.
func TestStaticStreamProcessAllocCeiling(t *testing.T) {
	for p, ceiling := range map[core.Precision]float64{core.PrecisionF64: 2, core.PrecisionF32: 3} {
		det, gen := buildBackbone(t, 4)
		cfg := streamCfg(0)
		cfg.AdaptEveryFrames = 0
		cfg.Precision = p
		st, err := serve.NewStream(0, det, cfg, rng.NewSource(4), nil)
		if err != nil {
			t.Fatal(err)
		}
		frame := gen.Frame(rand.New(rand.NewSource(41)), concept.Normal)
		for i := 0; i < cfg.MonitorN+cfg.MonitorLag; i++ {
			st.Process(frame) // fill the monitor's window first
		}
		got := testing.AllocsPerRun(200, func() {
			if res := st.Process(frame); res.Err != nil {
				t.Fatal(res.Err)
			}
		})
		t.Logf("static Stream.Process at %v: %.2f allocs", p, got)
		if raceEnabled {
			ceiling = 70
		}
		if got > ceiling {
			t.Errorf("static Stream.Process at %v: %.0f allocs, ceiling %.0f", p, got, ceiling)
		}
	}
}
