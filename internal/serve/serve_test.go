package serve_test

import (
	"math/rand"
	"testing"

	"edgekg/internal/bpe"
	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/decision"
	"edgekg/internal/embed"
	"edgekg/internal/gnn"
	"edgekg/internal/kg"
	"edgekg/internal/kggen"
	"edgekg/internal/oracle"
	"edgekg/internal/parallel"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/temporal"
	"edgekg/internal/tensor"
)

// buildBackbone assembles the small deployment fixture: detector + frame
// generator, fully determined by seed.
func buildBackbone(t testing.TB, seed int64) (*core.Detector, *dataset.Generator) {
	t.Helper()
	ont := concept.Builtin()
	tok := bpe.Train(ont.Concepts(), 600)
	space, err := embed.NewSpace(tok, ont.Concepts(), embed.Config{Dim: 16, PixDim: 32, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	llm := oracle.NewSim(ont, rng, oracle.Config{EdgeProb: 0.9})
	g, _, err := kggen.Generate(llm, "Stealing",
		kggen.Options{Depth: 2, InitialFanout: 4, Fanout: 3, MaxCorrectionIters: 3, Tokenize: tok.Encode}, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(rng, space, []*kg.Graph{g}, core.Config{
		GNN:              gnn.Config{Width: 8},
		Temporal:         temporal.Config{InnerDim: 16, Heads: 2, Window: 4},
		NumClasses:       2,
		Loss:             decision.DefaultLossConfig(),
		ScoreTemperature: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataset.DefaultConfig()
	dcfg.FramesPerVideo = 16
	gen, err := dataset.NewGenerator(space, ont, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return det, gen
}

// streamCfg is the small-scale per-stream configuration used throughout:
// aggressive cadence so short runs exercise many adaptation rounds, and
// patience 1 so structural KG changes (prune + create) actually happen.
func streamCfg(lag int) serve.StreamConfig {
	cfg := serve.DefaultStreamConfig()
	cfg.MonitorN = 8
	cfg.MonitorLag = 4
	cfg.AdaptEveryFrames = 8
	cfg.AdaptLagFrames = lag
	cfg.Adapt.Patience = 1
	return cfg
}

// frameSchedule synthesises n deterministic frames: class a, drifting to
// class b at frame driftAt (driftAt ≥ n keeps the trend at a).
func frameSchedule(gen *dataset.Generator, seed int64, n, driftAt int, a, b concept.Class) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, n)
	for i := range out {
		cls := a
		if i >= driftAt {
			cls = b
		}
		out[i] = gen.Frame(rng, cls)
	}
	return out
}

// streamOf fetches a stream context, failing the test on a bad id.
func streamOf(t *testing.T, s *serve.Server, id int) *serve.Stream {
	t.Helper()
	st, err := s.Stream(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// resultsOf fetches a stream's result channel, failing the test on a bad id.
func resultsOf(t *testing.T, s *serve.Server, id int) <-chan serve.Result {
	t.Helper()
	ch, err := s.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// frameTrace is one stream's observed trajectory.
type frameTrace struct {
	scores    []float64
	applied   []int // seqs at which a round's result became visible
	triggered []bool
	pruned    []int
	created   []int
}

// record appends one frame's result to the trajectory.
func (tr *frameTrace) record(res serve.Result) {
	tr.scores = append(tr.scores, res.Score)
	if res.AdaptApplied {
		tr.applied = append(tr.applied, res.Seq)
		tr.triggered = append(tr.triggered, res.Adapt.Triggered)
		tr.pruned = append(tr.pruned, len(res.Adapt.Pruned))
		tr.created = append(tr.created, len(res.Adapt.Created))
	}
}

// pump drives one stream in lockstep (submit one, receive one), setting
// the anchored reference to 1.0 after refAfter frames so the monitor sees
// a persistent mean drop and adaptation keeps engaging.
func pump(t *testing.T, s *serve.Server, id int, frames []*tensor.Tensor, refAfter int) frameTrace {
	t.Helper()
	var tr frameTrace
	for i, f := range frames {
		if i == refAfter {
			if err := s.Do(id, func(st *serve.Stream) { st.Monitor().SetReference(1.0) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Submit(id, f); err != nil {
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

func equalTraces(a, b frameTrace) bool {
	if len(a.scores) != len(b.scores) || len(a.applied) != len(b.applied) {
		return false
	}
	for i := range a.scores {
		if a.scores[i] != b.scores[i] {
			return false
		}
	}
	for i := range a.applied {
		if a.applied[i] != b.applied[i] || a.triggered[i] != b.triggered[i] ||
			a.pruned[i] != b.pruned[i] || a.created[i] != b.created[i] {
			return false
		}
	}
	return true
}

// nodeIDs returns a graph's node id set in deterministic order.
func nodeIDs(g *kg.Graph) []kg.NodeID {
	var out []kg.NodeID
	for _, n := range g.Nodes() {
		out = append(out, n.ID)
	}
	return out
}

// TestServerSingleStreamEquivalentToBareStream pins the serving runtime
// to the bare single-camera deployment the experiments use (and with it
// the facade's single camera, a 1-stream Serve): a 1-stream lag-0 server
// (COW clone, loop, channels,
// counter-or-exclusive metering) must be bit-identical to a serve.Stream
// driven directly on the caller's detector over the same seeded stream —
// scores, per-round adaptation decisions, metered FLOPs and the final KG
// node set.
func TestServerSingleStreamEquivalentToBareStream(t *testing.T) {
	const frames = 48
	const seed = 1

	// Drifting stream: the trend the detector was built for, then a shift.
	backbone, gen := buildBackbone(t, seed)
	stream := frameSchedule(gen, 101, frames, 24, concept.Stealing, concept.Robbery)

	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(0)
	cfg.Seeds = []int64{7}
	srv, err := serve.NewServer(backbone, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveTrace := pump(t, srv, 0, stream, 4)
	srv.CloseStream(0)
	for range resultsOf(t, srv, 0) {
	}
	srv.Shutdown()
	serveStats := streamOf(t, srv, 0).Stats()
	serveNodes := nodeIDs(streamOf(t, srv, 0).Detector().Graphs()[0])

	// The reference arm runs on an independent, identically-seeded build
	// (the server arm adapted its own clone, not the backbone).
	det2, gen2 := buildBackbone(t, seed)
	stream2 := frameSchedule(gen2, 101, frames, 24, concept.Stealing, concept.Robbery)
	rt, err := serve.NewStream(0, det2, streamCfg(0), rng.NewSource(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	var bareTrace frameTrace
	for i, f := range stream2 {
		if i == 4 {
			rt.Monitor().SetReference(1.0)
		}
		res := rt.Process(f)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		bareTrace.record(res)
	}

	for i := range stream2 {
		if stream2[i].Data()[0] != stream[i].Data()[0] {
			t.Fatal("fixture streams diverge — backbone build is not deterministic")
		}
	}
	for i := range serveTrace.scores {
		if serveTrace.scores[i] != bareTrace.scores[i] {
			t.Fatalf("frame %d: server score %v != bare-stream score %v", i, serveTrace.scores[i], bareTrace.scores[i])
		}
	}
	// Round-for-round decisions: both arms report a synchronous round on
	// the frame that ran it.
	if len(serveTrace.applied) != len(bareTrace.applied) {
		t.Fatalf("server ran %d rounds, bare stream ran %d", len(serveTrace.applied), len(bareTrace.applied))
	}
	for i := range serveTrace.applied {
		if serveTrace.applied[i] != bareTrace.applied[i] ||
			serveTrace.triggered[i] != bareTrace.triggered[i] ||
			serveTrace.pruned[i] != bareTrace.pruned[i] ||
			serveTrace.created[i] != bareTrace.created[i] {
			t.Fatalf("round %d decision mismatch: server (seq %d trig %v p %d c %d) vs bare stream (seq %d trig %v p %d c %d)",
				i, serveTrace.applied[i], serveTrace.triggered[i], serveTrace.pruned[i], serveTrace.created[i],
				bareTrace.applied[i], bareTrace.triggered[i], bareTrace.pruned[i], bareTrace.created[i])
		}
	}
	if !anyTrue(serveTrace.triggered) {
		t.Fatal("fixture never triggered adaptation — equivalence test is vacuous")
	}

	bst := rt.Stats()
	if serveStats.Frames != bst.Frames || serveStats.AdaptRounds != bst.AdaptRounds ||
		serveStats.TriggeredRounds != bst.TriggeredRounds ||
		serveStats.PrunedNodes != bst.PrunedNodes || serveStats.CreatedNodes != bst.CreatedNodes {
		t.Fatalf("stats mismatch: server %+v vs bare stream %+v", serveStats, bst)
	}
	if serveStats.ScoringOps != bst.ScoringOps || serveStats.AdaptOps != bst.AdaptOps {
		t.Fatalf("metered ops mismatch: server scoring %d adapt %d vs bare stream scoring %d adapt %d",
			serveStats.ScoringOps, serveStats.AdaptOps, bst.ScoringOps, bst.AdaptOps)
	}

	bareNodes := nodeIDs(rt.Detector().Graphs()[0])
	if len(serveNodes) != len(bareNodes) {
		t.Fatalf("final node sets differ in size: %d vs %d", len(serveNodes), len(bareNodes))
	}
	for i := range serveNodes {
		if serveNodes[i] != bareNodes[i] {
			t.Fatalf("final node sets differ: %v vs %v", serveNodes, bareNodes)
		}
	}
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// multiStreamRun drives one N-stream server over per-stream schedules and
// returns each stream's trace plus its final node set.
func multiStreamRun(t *testing.T, backbone *core.Detector, schedules [][]*tensor.Tensor, lag int, seeds []int64) ([]frameTrace, [][]kg.NodeID) {
	t.Helper()
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(lag)
	cfg.Stream.ScoreHistory = 256
	cfg.Seeds = seeds
	srv, err := serve.NewServer(backbone, len(schedules), cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]frameTrace, len(schedules))
	done := make(chan int, len(schedules))
	for i := range schedules {
		i := i
		go func() {
			traces[i] = pump(t, srv, i, schedules[i], 4)
			srv.CloseStream(i)
			for range resultsOf(t, srv, i) {
			}
			done <- i
		}()
	}
	for range schedules {
		<-done
	}
	srv.Shutdown()
	nodes := make([][]kg.NodeID, len(schedules))
	for i := range schedules {
		if err := streamOf(t, srv, i).Err(); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		nodes[i] = nodeIDs(streamOf(t, srv, i).Detector().Graphs()[0])
	}
	return traces, nodes
}

// TestServerWorkerCountDeterminism pins the central serving guarantee:
// per-stream score trajectories and adaptation decisions are bit-exact at
// any EDGEKG_WORKERS setting, including with asynchronous adaptation
// overlapping scoring.
func TestServerWorkerCountDeterminism(t *testing.T) {
	backbone, gen := buildBackbone(t, 2)
	const frames = 40
	schedules := [][]*tensor.Tensor{
		frameSchedule(gen, 201, frames, 16, concept.Stealing, concept.Robbery),
		frameSchedule(gen, 202, frames, 24, concept.Stealing, concept.Explosion),
		frameSchedule(gen, 203, frames, frames, concept.Normal, concept.Normal),
	}
	seeds := []int64{11, 12, 13}

	var ref []frameTrace
	var refNodes [][]kg.NodeID
	for _, w := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(w)
		traces, nodes := multiStreamRun(t, backbone, schedules, 3, seeds)
		parallel.SetWorkers(prev)
		if ref == nil {
			ref, refNodes = traces, nodes
			continue
		}
		for i := range traces {
			if !equalTraces(ref[i], traces[i]) {
				t.Fatalf("stream %d trajectory differs at %d workers", i, w)
			}
			if len(refNodes[i]) != len(nodes[i]) {
				t.Fatalf("stream %d final node set differs at %d workers", i, w)
			}
			for k := range nodes[i] {
				if refNodes[i][k] != nodes[i][k] {
					t.Fatalf("stream %d final node set differs at %d workers", i, w)
				}
			}
		}
	}
	trig := 0
	for _, tr := range ref {
		for _, b := range tr.triggered {
			if b {
				trig++
			}
		}
	}
	if trig == 0 {
		t.Fatal("no stream ever triggered adaptation — determinism test is vacuous")
	}
}

// TestServerCrossStreamIsolation pins per-stream isolation: a stream's
// trajectory is a pure function of its own frames and seed — changing the
// other streams' drift schedules, or removing the other streams entirely,
// must not move a single bit.
func TestServerCrossStreamIsolation(t *testing.T) {
	backbone, gen := buildBackbone(t, 3)
	const frames = 40
	s0 := frameSchedule(gen, 301, frames, 16, concept.Stealing, concept.Robbery)

	runA, _ := multiStreamRun(t, backbone, [][]*tensor.Tensor{
		s0,
		frameSchedule(gen, 302, frames, 8, concept.Stealing, concept.Explosion),
		frameSchedule(gen, 303, frames, frames, concept.Robbery, concept.Robbery),
	}, 3, []int64{21, 22, 23})

	runB, _ := multiStreamRun(t, backbone, [][]*tensor.Tensor{
		s0,
		frameSchedule(gen, 902, frames, 30, concept.Explosion, concept.Stealing),
		frameSchedule(gen, 903, frames, frames, concept.Normal, concept.Normal),
	}, 3, []int64{21, 99, 77})

	if !equalTraces(runA[0], runB[0]) {
		t.Fatal("stream 0 trajectory depends on sibling streams' schedules")
	}

	solo, _ := multiStreamRun(t, backbone, [][]*tensor.Tensor{s0}, 3, []int64{21})
	if !equalTraces(runA[0], solo[0]) {
		t.Fatal("stream 0 trajectory differs between multi-stream and solo runs")
	}
}

// TestStreamSnapshotSwapTiming pins the snapshot/swap semantics: with lag
// L, the L frames after a trigger are scored on the pre-round state (bit-
// identical to a never-adapting deployment), and the round's effect (and
// report) lands exactly at frame trigger+L.
func TestStreamSnapshotSwapTiming(t *testing.T) {
	backbone, gen := buildBackbone(t, 4)
	const frames = 16
	const lag = 3
	stream := frameSchedule(gen, 401, frames, 0, concept.Robbery, concept.Robbery)

	// Static arm: adaptation disabled, same frames.
	staticCfg := serve.DefaultConfig()
	staticCfg.Stream = streamCfg(0)
	staticCfg.Stream.AdaptEveryFrames = 0
	srvS, err := serve.NewServer(backbone, 1, staticCfg)
	if err != nil {
		t.Fatal(err)
	}
	staticTrace := pump(t, srvS, 0, stream, 4)
	srvS.CloseStream(0)
	for range resultsOf(t, srvS, 0) {
	}
	srvS.Shutdown()

	// Lagged arm: first trigger fires after frame seq 7 (8 processed).
	lagCfg := serve.DefaultConfig()
	lagCfg.Stream = streamCfg(lag)
	lagCfg.Seeds = []int64{5}
	srvL, err := serve.NewServer(backbone, 1, lagCfg)
	if err != nil {
		t.Fatal(err)
	}
	lagTrace := pump(t, srvL, 0, stream, 4)
	srvL.CloseStream(0)
	for range resultsOf(t, srvL, 0) {
	}
	srvL.Shutdown()

	// Frames 0..7 trivially identical; frames 8..8+lag-1 must still be:
	// they are scored on the pre-round snapshot.
	for i := 0; i < 8+lag; i++ {
		if lagTrace.scores[i] != staticTrace.scores[i] {
			t.Fatalf("frame %d scored on adapted state before the swap frame (lag %d)", i, lag)
		}
	}
	// The round's report lands exactly at seq 8-1+lag+1 = 8+lag... i.e.
	// the first frame scored on the adapted state.
	if len(lagTrace.applied) == 0 || lagTrace.applied[0] != 8+lag {
		t.Fatalf("first round applied at %v, want seq %d", lagTrace.applied, 8+lag)
	}
	if !lagTrace.triggered[0] {
		t.Fatal("first round did not trigger despite forced reference drop")
	}
	// And the adapted state must actually change the score stream after
	// the swap (the round updates token banks toward the pseudo-labels).
	diverged := false
	for i := 8 + lag; i < frames; i++ {
		if lagTrace.scores[i] != staticTrace.scores[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("post-swap scores identical to static arm — round had no effect?")
	}
}

// TestServerAPIErrors covers the small-surface error paths.
func TestServerAPIErrors(t *testing.T) {
	backbone, gen := buildBackbone(t, 5)
	if _, err := serve.NewServer(backbone, 0, serve.DefaultConfig()); err == nil {
		t.Error("0-stream server accepted")
	}
	bad := serve.DefaultConfig()
	bad.Stream.MonitorN = 1
	if _, err := serve.NewServer(backbone, 1, bad); err == nil {
		t.Error("bad monitor config accepted")
	}
	if _, err := serve.NewStream(0, backbone, streamCfg(4), rng.NewSource(1), nil); err == nil {
		t.Error("exclusive metering with async adaptation accepted")
	}

	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg(2)
	srv, err := serve.NewServer(backbone, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(5, gen.Frame(rand.New(rand.NewSource(1)), concept.Normal)); err == nil {
		t.Error("submit to unknown stream accepted")
	}
	srv.CloseStream(0)
	if err := srv.Submit(0, gen.Frame(rand.New(rand.NewSource(1)), concept.Normal)); err == nil {
		t.Error("submit to closed stream accepted")
	}
	// Stats on a drained stream run inline; on a live stream via barrier.
	if _, err := srv.StreamStats(0); err != nil {
		t.Errorf("stats on closed stream: %v", err)
	}
	if _, err := srv.StreamStats(1); err != nil {
		t.Errorf("stats on live stream: %v", err)
	}
	srv.Shutdown()
	srv.Shutdown() // idempotent
}
