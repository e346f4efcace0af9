package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/bpe"
	"edgekg/internal/concept"
	"edgekg/internal/dataset"
	"edgekg/internal/decision"
	"edgekg/internal/embed"
	"edgekg/internal/gnn"
	"edgekg/internal/kg"
	"edgekg/internal/kggen"
	"edgekg/internal/oracle"
	"edgekg/internal/temporal"
	"edgekg/internal/tensor"
)

// testRig bundles the small end-to-end fixture shared by core tests.
type testRig struct {
	space *embed.Space
	gen   *dataset.Generator
	det   *Detector
	graph *kg.Graph
}

func tinyConfig() Config {
	return Config{
		GNN:              gnn.Config{Width: 8},
		Temporal:         temporal.Config{InnerDim: 16, Heads: 2, Window: 4},
		NumClasses:       2,
		Loss:             decision.DefaultLossConfig(),
		ScoreTemperature: 4,
	}
}

func newRig(t *testing.T, mission string, seed int64) *testRig {
	t.Helper()
	return newRigWith(t, mission, seed, tinyConfig())
}

// newRigWith is newRig over a detector built from cfg.
func newRigWith(t *testing.T, mission string, seed int64, cfg Config) *testRig {
	t.Helper()
	corpus := concept.Builtin().Concepts()
	tok := bpe.Train(corpus, 600)
	space, err := embed.NewSpace(tok, corpus, embed.Config{Dim: 16, PixDim: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	llm := oracle.NewSim(concept.Builtin(), rng, oracle.Config{EdgeProb: 0.9})
	opts := kggen.Options{Depth: 2, InitialFanout: 5, Fanout: 4, MaxCorrectionIters: 3, Tokenize: tok.Encode}
	g, _, err := kggen.Generate(llm, mission, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(rng, space, []*kg.Graph{g}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataset.DefaultConfig()
	dcfg.FramesPerVideo = 24
	gen, err := dataset.NewGenerator(space, concept.Builtin(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{space: space, gen: gen, det: det, graph: g}
}

func (r *testRig) clipSource(t *testing.T, rng *rand.Rand, cls concept.Class, batch int) *dataset.ClipSource {
	t.Helper()
	vids := r.gen.TaskVideos(rng, cls, 4, 4)
	src, err := dataset.NewClipSource(vids, r.det.Window(), batch)
	if err != nil {
		t.Fatal(err)
	}
	return src.WithLabelMap(dataset.BinaryLabelMap)
}

func (r *testRig) evalAUC(t *testing.T, rng *rand.Rand, cls concept.Class) float64 {
	t.Helper()
	vids := r.gen.TaskVideos(rng, cls, 3, 3)
	frames, labels := dataset.FlattenEval(vids)
	auc, err := EvalAUC(r.det, frames, labels)
	if err != nil {
		t.Fatal(err)
	}
	return auc
}

func TestDetectorAssemblyShapes(t *testing.T) {
	r := newRig(t, "Stealing", 1)
	if r.det.NumGNNs() != 1 {
		t.Errorf("gnns = %d", r.det.NumGNNs())
	}
	if r.det.ReasoningDim() != 8 {
		t.Errorf("reasoning dim = %d", r.det.ReasoningDim())
	}
	if r.det.Window() != 4 {
		t.Errorf("window = %d", r.det.Window())
	}
	rng := rand.New(rand.NewSource(2))
	clip := tensor.RandN(rng, 1, 4+3-1, r.space.PixDim())
	logits := r.det.ForwardClip(clip, 3)
	if logits.Data.Rows() != 3 || logits.Data.Cols() != 2 {
		t.Errorf("logits shape %v", logits.Shape())
	}
}

func TestDetectorValidation(t *testing.T) {
	r := newRig(t, "Stealing", 3)
	rng := rand.New(rand.NewSource(3))
	if _, err := NewDetector(rng, r.space, nil, tinyConfig()); err == nil {
		t.Error("no graphs accepted")
	}
}

func TestMultiKGConcatenation(t *testing.T) {
	r := newRig(t, "Stealing", 4)
	rng := rand.New(rand.NewSource(4))
	llm := oracle.NewSim(concept.Builtin(), rng, oracle.Config{EdgeProb: 0.9})
	tok := r.space.Tokenizer()
	opts := kggen.Options{Depth: 2, InitialFanout: 4, Fanout: 3, MaxCorrectionIters: 3, Tokenize: tok.Encode}
	g2, _, err := kggen.Generate(llm, "Robbery", opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(rng, r.space, []*kg.Graph{r.graph, g2}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det.ReasoningDim() != 16 {
		t.Errorf("multi-KG reasoning dim = %d, want 16", det.ReasoningDim())
	}
	frames := tensor.RandN(rng, 1, 2, r.space.PixDim())
	emb := det.EmbedFrames(frames)
	if emb.Data.Cols() != 16 {
		t.Errorf("embed cols = %d", emb.Data.Cols())
	}
}

func TestScoreVideoLengthAndRange(t *testing.T) {
	r := newRig(t, "Stealing", 5)
	rng := rand.New(rand.NewSource(5))
	v := r.gen.Video(rng, concept.Stealing)
	scores := r.det.ScoreVideo(v.Frames)
	if len(scores) != v.NumFrames() {
		t.Fatalf("scores %d for %d frames", len(scores), v.NumFrames())
	}
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Errorf("score[%d] = %v outside [0,1]", i, s)
		}
	}
}

func TestDeployFreezesEverything(t *testing.T) {
	r := newRig(t, "Stealing", 6)
	r.det.Deploy()
	rng := rand.New(rand.NewSource(6))
	frames := tensor.RandN(rng, 1, 1, r.space.PixDim())
	out := autograd.Sum(r.det.EmbedFrames(frames))
	out.Backward()
	for _, p := range append(r.det.Params(), r.det.TokenParams()...) {
		if p.V.Grad != nil {
			t.Errorf("deployed parameter %s received gradient", p.Name)
		}
	}
}

func TestEnableAdaptationUnfreezesOnlyTokens(t *testing.T) {
	r := newRig(t, "Stealing", 7)
	r.det.EnableAdaptation()
	rng := rand.New(rand.NewSource(7))
	clip := tensor.RandN(rng, 1, 4, r.space.PixDim())
	emb := r.det.EmbedFrames(clip)
	win := r.det.Temporal().ForwardSeq(emb)
	logits := r.det.Head().Logits(win)
	autograd.Sum(logits).Backward()
	for _, p := range r.det.Params() {
		if p.V.Grad != nil {
			t.Errorf("frozen weight %s received gradient during adaptation", p.Name)
		}
	}
	got := false
	for _, p := range r.det.TokenParams() {
		if p.V.Grad != nil {
			got = true
		}
	}
	if !got {
		t.Error("no token bank received gradient")
	}
}

func TestTrainerReducesLoss(t *testing.T) {
	r := newRig(t, "Stealing", 8)
	rng := rand.New(rand.NewSource(8))
	src := r.clipSource(t, rng, concept.Stealing, 8)
	cfg := DefaultTrainConfig()
	cfg.Steps = 60
	tr := NewTrainer(r.det, cfg)
	var first, last float64
	for i := 0; i < cfg.Steps; i++ {
		loss := tr.Step(rng, src)
		if i < 5 {
			first += loss / 5
		}
		if i >= cfg.Steps-5 {
			last += loss / 5
		}
	}
	if tr.StepsTaken() != 60 {
		t.Errorf("steps = %d", tr.StepsTaken())
	}
	if last >= first {
		t.Errorf("loss did not decrease: first≈%v last≈%v", first, last)
	}
}

func TestMonitorSelectionRule(t *testing.T) {
	mon, err := NewMonitor(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	frame := tensor.Ones(1, 4)
	// Fill with high scores: mean stable, no trigger.
	for i := 0; i < 20; i++ {
		mon.Push(frame, 0.9)
	}
	if !mon.Ready() {
		t.Fatal("monitor should be ready")
	}
	if mon.K() != 0 {
		t.Errorf("stable mean triggered K=%d", mon.K())
	}
	// Mean drops: scores fall to 0.1.
	for i := 0; i < 10; i++ {
		mon.Push(frame, 0.1)
	}
	dm := mon.DeltaM()
	if dm >= 0 {
		t.Fatalf("Δm = %v, want negative", dm)
	}
	k := mon.K()
	wantK := int(-dm * 10)
	if wantK < 1 {
		wantK = 1
	}
	if k != wantK {
		t.Errorf("K = %d, want |Δm|·N = %d", k, wantK)
	}
	top := mon.TopK()
	if len(top) != k {
		t.Fatalf("TopK returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Error("TopK not sorted by score")
		}
	}
}

func TestMonitorRisingMeanNeverTriggers(t *testing.T) {
	mon, err := NewMonitor(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	frame := tensor.Ones(1, 4)
	for i := 0; i < 30; i++ {
		mon.Push(frame, float64(i)*0.01)
		if mon.K() != 0 {
			t.Fatalf("rising mean triggered at push %d", i)
		}
	}
}

func TestMonitorBottomKAndReset(t *testing.T) {
	mon, _ := NewMonitor(5, 2)
	frame := tensor.Ones(1, 4)
	for _, s := range []float64{0.5, 0.1, 0.9, 0.3, 0.7} {
		mon.Push(frame, s)
	}
	low := mon.BottomK(2)
	if len(low) != 2 || low[0].Score != 0.1 || low[1].Score != 0.3 {
		t.Errorf("BottomK = %+v", low)
	}
	if got := mon.BottomK(99); len(got) != 5 {
		t.Errorf("BottomK clamp = %d", len(got))
	}
	mon.Reset()
	if mon.Ready() || len(mon.TopK()) != 0 {
		t.Error("reset incomplete")
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(1, 1); err == nil {
		t.Error("window 1 accepted")
	}
	if _, err := NewMonitor(5, 0); err == nil {
		t.Error("lag 0 accepted")
	}
}

// TestAdapterNoTriggerNoChange drives one round through every gate that
// returns Triggered = false — monitor not ready, flat mean (K = 0), a drop
// smaller than MinDrop, and the SkipLossBelow probe — on a copy-on-write
// clone, and requires the round to leave every exported byte as it was:
// the adapter's exported state, every graph, every token bank, the
// clone's memory breakdown (no page privatised) and the adapter's RNG.
func TestAdapterNoTriggerNoChange(t *testing.T) {
	r := newRig(t, "Stealing", 9)
	r.det.Deploy()
	frng := rand.New(rand.NewSource(9))
	push := func(mon *Monitor, n int, score float64) {
		for i := 0; i < n; i++ {
			mon.Push(tensor.RandN(frng, 1, 1, r.space.PixDim()), score)
		}
	}
	gates := []struct {
		name string
		fill func(*Monitor)
		cfg  func(*AdaptConfig)
		// gated reports whether the monitor reaches this gate and no other.
		gated func(mon *Monitor, cfg AdaptConfig) bool
		// gate is where the report must say Step stopped.
		gate Gate
	}{
		{"not-ready", func(m *Monitor) { push(m, 4, 0.9) }, nil,
			func(m *Monitor, _ AdaptConfig) bool { return !m.Ready() }, GateNotReady},
		{"flat-mean", func(m *Monitor) { push(m, 12, 0.5) }, nil,
			func(m *Monitor, _ AdaptConfig) bool { return m.Ready() && m.K() == 0 }, GateNoDrop},
		{"below-min-drop", func(m *Monitor) { push(m, 6, 0.5); push(m, 6, 0.49) }, nil,
			func(m *Monitor, c AdaptConfig) bool { return m.Ready() && m.K() > 0 && m.DeltaM() >= -c.MinDrop }, GateMinDrop},
		// A binary score loss never exceeds 1, so this probe always passes.
		{"skip-loss-probe", func(m *Monitor) { push(m, 6, 0.9); push(m, 6, 0.1) },
			func(c *AdaptConfig) { c.SkipLossBelow = 2 },
			func(m *Monitor, c AdaptConfig) bool { return m.Ready() && m.K() > 0 && m.DeltaM() < -c.MinDrop }, GateSkipLoss},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultAdaptConfig()
			if g.cfg != nil {
				g.cfg(&cfg)
			}
			mon, err := NewMonitor(6, 3)
			if err != nil {
				t.Fatal(err)
			}
			g.fill(mon)
			if !g.gated(mon, cfg) {
				t.Fatalf("fixture misses its gate: ready=%v K=%d Δm=%v", mon.Ready(), mon.K(), mon.DeltaM())
			}
			det, err := r.det.CloneCOW()
			if err != nil {
				t.Fatal(err)
			}
			arng, twin := rand.New(rand.NewSource(90)), rand.New(rand.NewSource(90))
			adapter, err := NewAdapter(det, cfg, arng)
			if err != nil {
				t.Fatal(err)
			}
			before, mem := exportedBytes(t, det, adapter), det.Mem()
			rep, err := adapter.Step(mon)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Triggered {
				t.Fatal("round triggered")
			}
			if rep.Gate != g.gate {
				t.Errorf("report gate %d, want %d", rep.Gate, g.gate)
			}
			if after := exportedBytes(t, det, adapter); after != before {
				t.Error("untriggered round changed the exported adapter state, a graph or a token bank")
			}
			if got := det.Mem(); got != mem {
				t.Errorf("untriggered round moved the memory breakdown %+v → %+v", mem, got)
			}
			if arng.Int63() != twin.Int63() {
				t.Error("untriggered round drew from the adapter's RNG")
			}
		})
	}
}

// exportedBytes renders the adapter's exported state, every graph's JSON
// and every token bank's float64 bits into one string.
func exportedBytes(t *testing.T, det *Detector, a *Adapter) string {
	t.Helper()
	var b strings.Builder
	js, err := json.Marshal(a.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	b.Write(js)
	for i, g := range det.Graphs() {
		js, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(js)
		bank := det.GNN(i).Tokens()
		for _, id := range bank.NodeIDs() {
			fmt.Fprintf(&b, "|%d:", id)
			for _, v := range bank.Bank(id).Data.Data() {
				fmt.Fprintf(&b, "%x,", math.Float64bits(v))
			}
		}
	}
	return b.String()
}

func TestAdapterUpdatesOnlyTokens(t *testing.T) {
	r := newRig(t, "Stealing", 10)
	rng := rand.New(rand.NewSource(10))
	adapter, err := NewAdapter(r.det, DefaultAdaptConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	weightsBefore := make([]*tensor.Tensor, 0)
	for _, p := range r.det.Params() {
		weightsBefore = append(weightsBefore, p.V.Data.Clone())
	}
	mon, _ := NewMonitor(8, 4)
	// High scores then a drop → trigger.
	for i := 0; i < 8; i++ {
		mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.9)
	}
	for i := 0; i < 8; i++ {
		mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.1)
	}
	tokBefore := r.det.GNN(0).Tokens().Snapshot(r.graph.NodesAtLevel(1)[0].ID)
	rep, err := adapter.Step(mon)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Triggered || rep.K == 0 {
		t.Fatalf("expected trigger, report %+v", rep)
	}
	for i, p := range r.det.Params() {
		if !tensor.AllClose(p.V.Data, weightsBefore[i], 0) {
			t.Errorf("frozen weight %s changed during adaptation", p.Name)
		}
	}
	tokAfter := r.det.GNN(0).Tokens().Snapshot(r.graph.NodesAtLevel(1)[0].ID)
	if tensor.AllClose(tokBefore, tokAfter, 0) {
		t.Error("token embeddings did not move")
	}
	if len(rep.NodeDistances[0]) == 0 {
		t.Error("no node distances recorded")
	}
}

func TestAdapterPrunesOnForcedDivergence(t *testing.T) {
	r := newRig(t, "Stealing", 11)
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultAdaptConfig()
	cfg.Patience = 1
	cfg.LR = 2.0 // absurdly high: guarantees growing update distances
	cfg.Epochs = 2
	adapter, err := NewAdapter(r.det, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := NewMonitor(8, 4)
	nodesBefore := r.graph.NumNodes()
	pruned := 0
	for round := 0; round < 6; round++ {
		for i := 0; i < 8; i++ {
			mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.9)
		}
		for i := 0; i < 8; i++ {
			mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.05)
		}
		rep, err := adapter.Step(mon)
		if err != nil {
			t.Fatal(err)
		}
		pruned += len(rep.Pruned)
		if len(rep.Pruned) != len(rep.Created) {
			t.Errorf("pruned %d but created %d", len(rep.Pruned), len(rep.Created))
		}
	}
	if pruned == 0 {
		t.Fatal("forced divergence never pruned a node")
	}
	if issues := r.graph.Validate(true); len(issues) != 0 {
		t.Fatalf("graph invalid after prune/create churn: %v", issues)
	}
	if r.graph.NumNodes() != nodesBefore {
		t.Errorf("node count drifted: %d → %d (replace should preserve)", nodesBefore, r.graph.NumNodes())
	}
	// The pipeline still runs end to end after structural churn.
	v := r.gen.Video(rng, concept.Stealing)
	scores := r.det.ScoreVideo(v.Frames)
	if len(scores) != v.NumFrames() {
		t.Error("scoring broken after churn")
	}
}

func TestAdapterConfigValidation(t *testing.T) {
	r := newRig(t, "Stealing", 12)
	rng := rand.New(rand.NewSource(12))
	bad := DefaultAdaptConfig()
	bad.LR = 0
	if _, err := NewAdapter(r.det, bad, rng); err == nil {
		t.Error("lr 0 accepted")
	}
	bad = DefaultAdaptConfig()
	bad.Patience = 0
	if _, err := NewAdapter(r.det, bad, rng); err == nil {
		t.Error("patience 0 accepted")
	}
}

// TestTrainDetectShiftAdapt is the end-to-end integration test of the
// paper's full protocol at miniature scale: train on Stealing, verify
// detection; shift the trend to Robbery (weak shift), verify degradation;
// adapt via the monitor loop; verify recovery relative to the static KG.
func TestTrainDetectShiftAdapt(t *testing.T) {
	r := newRig(t, "Stealing", 13)
	rng := rand.New(rand.NewSource(13))

	// Phase 1: pre-deployment training on Stealing.
	src := r.clipSource(t, rng, concept.Stealing, 8)
	cfg := DefaultTrainConfig()
	cfg.Steps = 250
	tr := NewTrainer(r.det, cfg)
	tr.Train(rng, src, nil)

	aucStealing := r.evalAUC(t, rng, concept.Stealing)
	if aucStealing < 0.75 {
		t.Fatalf("trained detector AUC on Stealing = %v, want ≥0.75", aucStealing)
	}

	// Phase 2: the trend shifts to Robbery; the static model degrades.
	aucRobberyStatic := r.evalAUC(t, rng, concept.Robbery)
	if aucRobberyStatic >= aucStealing {
		t.Logf("note: shift did not degrade AUC (%v vs %v)", aucRobberyStatic, aucStealing)
	}

	// Phase 3: continuous adaptation on a Robbery-dominated stream.
	r.det.Deploy()
	acfg := DefaultAdaptConfig()
	acfg.Patience = 4
	adapter, err := NewAdapter(r.det, acfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := NewMonitor(32, 16)
	sched := dataset.Schedule{Phases: []dataset.Phase{
		{Class: concept.Stealing, Steps: 64},
		{Class: concept.Robbery, Steps: 512},
	}}
	stream, err := dataset.NewStream(r.gen, sched, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	triggered := 0
	for i := 0; i < 320; i++ {
		pix, _, _ := stream.Next()
		frame := pix.Reshape(1, r.space.PixDim())
		scores := r.det.ScoreVideo(frame)
		mon.Push(frame, scores[0])
		if i > 0 && i%32 == 0 {
			rep, err := adapter.Step(mon)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Triggered {
				triggered++
			}
		}
	}
	if triggered == 0 {
		t.Fatal("adaptation never triggered across the trend shift")
	}

	aucRobberyAdapted := r.evalAUC(t, rng, concept.Robbery)
	t.Logf("AUC stealing=%.3f robbery(static)=%.3f robbery(adapted)=%.3f triggered=%d",
		aucStealing, aucRobberyStatic, aucRobberyAdapted, triggered)
	if aucRobberyAdapted < aucRobberyStatic-0.05 {
		t.Errorf("adaptation made things worse: %v → %v", aucRobberyStatic, aucRobberyAdapted)
	}
}
