package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/tensor"
)

func TestAnchoredMonitorReference(t *testing.T) {
	mon, err := NewAnchoredMonitor(4)
	if err != nil {
		t.Fatal(err)
	}
	if !mon.Anchored() {
		t.Fatal("not anchored")
	}
	frame := tensor.Ones(1, 2)
	for _, s := range []float64{0.8, 0.8, 0.8, 0.8} {
		mon.Push(frame, s)
	}
	if !mon.Ready() {
		t.Fatal("should be ready once window fills")
	}
	if math.Abs(mon.Reference()-0.8) > 1e-12 {
		t.Errorf("reference = %v, want 0.8", mon.Reference())
	}
	// Sustained degradation keeps Δm pinned to the anchored reference.
	for i := 0; i < 20; i++ {
		mon.Push(frame, 0.2)
		if i >= 4 && math.Abs(mon.DeltaM()+0.6) > 1e-9 {
			t.Fatalf("push %d: Δm = %v, want −0.6 sustained", i, mon.DeltaM())
		}
	}
	if mon.K() == 0 {
		t.Error("sustained drop must keep K > 0")
	}
	// Manual re-anchor.
	mon.SetReference(0.2)
	if mon.K() != 0 {
		t.Errorf("after re-anchor K = %d, want 0", mon.K())
	}
	mon.Reset()
	if mon.Reference() != 0 || mon.Ready() {
		t.Error("reset did not clear anchor")
	}
}

func TestAnchoredMonitorValidation(t *testing.T) {
	if _, err := NewAnchoredMonitor(1); err == nil {
		t.Error("window 1 accepted")
	}
}

func TestAdapterMinDropGate(t *testing.T) {
	r := newRig(t, "Stealing", 21)
	rng := rand.New(rand.NewSource(21))
	cfg := DefaultAdaptConfig()
	cfg.MinDrop = 0.5 // only catastrophic drops engage
	adapter, err := NewAdapter(r.det, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := NewMonitor(8, 4)
	frame := tensor.RandN(rng, 1, 1, r.space.PixDim())
	for i := 0; i < 8; i++ {
		mon.Push(frame, 0.6)
	}
	for i := 0; i < 8; i++ {
		mon.Push(frame, 0.4) // drop of 0.2 < MinDrop 0.5
	}
	rep, err := adapter.Step(mon)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triggered {
		t.Error("sub-threshold drop engaged adaptation")
	}
	if rep.Gate != GateMinDrop {
		t.Errorf("report gate %d, want GateMinDrop", rep.Gate)
	}
}

func TestAdapterMaxKFracCap(t *testing.T) {
	r := newRig(t, "Stealing", 22)
	rng := rand.New(rand.NewSource(22))
	cfg := DefaultAdaptConfig()
	cfg.MaxKFrac = 0.25
	cfg.SkipLossBelow = 0 // do not skip; we want the update path
	adapter, err := NewAdapter(r.det, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := NewMonitor(16, 8)
	for i := 0; i < 16; i++ {
		mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.95)
	}
	for i := 0; i < 16; i++ {
		mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.05)
	}
	// Raw K would be ≈14; the adapter must consume at most 4.
	if mon.K() <= 4 {
		t.Fatalf("precondition failed: monitor K = %d", mon.K())
	}
	wantPos, wantAnchors := seqsOf(mon.TopK()[:4]), seqsOf(mon.BottomK(cfg.NormalAnchors))
	rep, err := adapter.Step(mon)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Triggered || rep.Gate != GateTrained {
		t.Fatalf("expected a trained round, got triggered=%v gate %d", rep.Triggered, rep.Gate)
	}
	if !slices.Equal(rep.Positives, wantPos) || !slices.Equal(rep.Anchors, wantAnchors) {
		t.Errorf("report selected positives %v and anchors %v, want the capped top %v and anchors %v",
			rep.Positives, rep.Anchors, wantPos, wantAnchors)
	}
	// The report carries the monitor's K; the cap governs consumption,
	// which we can only observe indirectly — the loss must be finite and
	// the step must not panic with a mismatched batch.
	if rep.K != mon.K() {
		t.Errorf("report K = %d, want monitor K %d", rep.K, mon.K())
	}
}

func TestAdapterSkipLossGate(t *testing.T) {
	r := newRig(t, "Stealing", 23)
	rng := rand.New(rand.NewSource(23))
	cfg := DefaultAdaptConfig()
	cfg.SkipLossBelow = 1e9 // everything is "already satisfied"
	adapter, err := NewAdapter(r.det, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := NewMonitor(8, 4)
	for i := 0; i < 8; i++ {
		mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.9)
	}
	for i := 0; i < 8; i++ {
		mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.1)
	}
	before := r.det.GNN(0).Tokens().Snapshot(r.graph.NodesAtLevel(1)[0].ID)
	maxK := int(cfg.MaxKFrac * float64(mon.N()))
	wantPos, wantAnchors := seqsOf(mon.TopK()[:maxK]), seqsOf(mon.BottomK(cfg.NormalAnchors))
	rep, err := adapter.Step(mon)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triggered {
		t.Error("loss gate did not skip")
	}
	if rep.Gate != GateSkipLoss {
		t.Errorf("report gate %d, want GateSkipLoss", rep.Gate)
	}
	if len(wantPos) == 0 || !slices.Equal(rep.Positives, wantPos) || !slices.Equal(rep.Anchors, wantAnchors) {
		t.Errorf("skipped round reports positives %v and anchors %v, want %v and %v",
			rep.Positives, rep.Anchors, wantPos, wantAnchors)
	}
	after := r.det.GNN(0).Tokens().Snapshot(r.graph.NodesAtLevel(1)[0].ID)
	if !tensor.AllClose(before, after, 0) {
		t.Error("skipped round still modified tokens")
	}
}

func TestScoreTemperatureMonotone(t *testing.T) {
	r := newRig(t, "Stealing", 24)
	rng := rand.New(rand.NewSource(24))
	v := r.gen.Video(rng, concept.Stealing)
	scores := r.det.ScoreVideo(v.Frames)
	// Temperature must not saturate scores to exact 0/1 everywhere.
	graded := 0
	for _, s := range scores {
		if s > 1e-9 && s < 1-1e-9 {
			graded++
		}
	}
	if graded == 0 {
		t.Error("all scores saturated despite temperature")
	}
	if r.det.ScoreTemperature() != 4 {
		t.Errorf("temperature = %v", r.det.ScoreTemperature())
	}
}

func TestAdapterRenormalizationPreservesRowNorms(t *testing.T) {
	r := newRig(t, "Stealing", 25)
	rng := rand.New(rand.NewSource(25))
	cfg := DefaultAdaptConfig()
	cfg.SkipLossBelow = 0
	adapter, err := NewAdapter(r.det, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	id := r.graph.NodesAtLevel(1)[0].ID
	normsBefore := rowNorms(r.det.GNN(0).Tokens().Bank(id).Data)
	mon, _ := NewMonitor(8, 4)
	for i := 0; i < 8; i++ {
		mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.9)
	}
	for i := 0; i < 8; i++ {
		mon.Push(tensor.RandN(rng, 1, 1, r.space.PixDim()), 0.1)
	}
	rep, err := adapter.Step(mon)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Triggered {
		t.Fatalf("adaptation round did not trigger: with SkipLossBelow=0 and a split high/low-score window the step must fire (loss=%v)", rep.Loss)
	}
	normsAfter := rowNorms(r.det.GNN(0).Tokens().Bank(id).Data)
	for i := range normsBefore {
		if math.Abs(normsBefore[i]-normsAfter[i]) > 1e-9 {
			t.Errorf("row %d norm drifted: %v → %v", i, normsBefore[i], normsAfter[i])
		}
	}
}

func rowNorms(m *tensor.Tensor) []float64 {
	out := make([]float64, m.Rows())
	for i := range out {
		s := 0.0
		for _, v := range m.Row(i) {
			s += v * v
		}
		out[i] = math.Sqrt(s)
	}
	return out
}

// seqsOf returns the samples' Seqs in order.
func seqsOf(ss []Sample) []int {
	seqs := make([]int, len(ss))
	for i, s := range ss {
		seqs[i] = s.Seq
	}
	return seqs
}
