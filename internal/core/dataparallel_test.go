package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/concept"
	"edgekg/internal/parallel"
	"edgekg/internal/tensor"
)

// maxParamDiff returns the largest absolute element difference across the
// two detectors' full parameter sets (weights + token banks).
func maxParamDiff(t *testing.T, a, b *Detector) float64 {
	t.Helper()
	pa := append(a.Params(), a.TokenParams()...)
	pb := append(b.Params(), b.TokenParams()...)
	if len(pa) != len(pb) {
		t.Fatalf("parameter count %d vs %d", len(pa), len(pb))
	}
	worst := 0.0
	for i := range pa {
		da, db := pa[i].V.Data.Data(), pb[i].V.Data.Data()
		if len(da) != len(db) {
			t.Fatalf("parameter %s size mismatch", pa[i].Name)
		}
		for j := range da {
			if d := math.Abs(da[j] - db[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// trainRig builds a rig plus a clip source from deterministic seeds, so
// two calls with the same seeds yield bit-identical fixtures.
func trainRig(t *testing.T, seed int64) (*testRig, ClipSource) {
	t.Helper()
	r := newRig(t, "Stealing", seed)
	src := r.clipSource(t, rand.New(rand.NewSource(seed+1000)), concept.Stealing, 6)
	return r, src
}

// TestTrainStepDeterministicAcrossWorkers pins the concurrency contract of
// the trainer: with a fixed seed the loss trajectory and the final
// parameters are bit-identical no matter how many pool workers execute the
// per-KG fan-out and the parallel kernels.
func TestTrainStepDeterministicAcrossWorkers(t *testing.T) {
	const steps = 4
	run := func(workers int) ([]float64, *Detector) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		r, src := trainRig(t, 43)
		tr := NewTrainer(r.det, DefaultTrainConfig())
		rng := rand.New(rand.NewSource(9))
		losses := make([]float64, steps)
		for s := range losses {
			losses[s] = tr.Step(rng, src)
		}
		return losses, r.det
	}

	wantLoss, wantDet := run(1)
	for _, w := range []int{2, 8} {
		gotLoss, gotDet := run(w)
		for s := range wantLoss {
			if gotLoss[s] != wantLoss[s] {
				t.Fatalf("workers=%d: step %d loss %v != sequential %v", w, s, gotLoss[s], wantLoss[s])
			}
		}
		if d := maxParamDiff(t, gotDet, wantDet); d != 0 {
			t.Fatalf("workers=%d: final params differ by %v from sequential", w, d)
		}
	}
}

// adaptFixture builds a deployed rig, an adapter with the loss gate off (so
// every round takes the update path), and a monitor primed with a
// deterministic mean drop. Adapter.Step leaves the monitor alone, so every
// round against it selects the same batch.
func adaptFixture(t *testing.T, seed int64) (*testRig, *Adapter, *Monitor) {
	t.Helper()
	r := newRig(t, "Stealing", seed)
	cfg := DefaultAdaptConfig()
	cfg.SkipLossBelow = 0
	adapter, err := NewAdapter(r.det, cfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	frng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < 16; i++ {
		mon.Push(r.gen.Frame(frng, concept.Stealing).Reshape(1, r.space.PixDim()), 0.9)
	}
	for i := 0; i < 16; i++ {
		mon.Push(r.gen.Frame(frng, concept.Robbery).Reshape(1, r.space.PixDim()), 0.1)
	}
	return r, adapter, mon
}

// tokenBankState flattens every token bank into one comparable slice set.
func tokenBankState(det *Detector) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range det.TokenParams() {
		out = append(out, p.V.Data.Clone())
	}
	return out
}

// plainRound is one adaptation round written out from the adapter's parts,
// with each epoch's gradient step as the textbook loop: zero the gradients,
// forward the selected batch, temperature-scaled pseudo-label loss,
// backward, one AdamW update. Selection, renormalisation, the per-node
// convergence test and node replacement are Step's own. It returns the last
// epoch's loss and the number of nodes replaced.
func plainRound(t *testing.T, a *Adapter, mon *Monitor) (float64, int) {
	t.Helper()
	return plainRoundWith(t, a, mon, a.forwardFrames)
}

// plainRoundWith is plainRound with the batch scored by forward.
func plainRoundWith(t *testing.T, a *Adapter, mon *Monitor, forward func(*tensor.Tensor) *autograd.Value) (float64, int) {
	t.Helper()
	a.det.SetTraining(false)
	if !mon.Ready() || mon.K() == 0 || mon.DeltaM() >= -a.cfg.MinDrop {
		t.Fatal("fixture monitor does not trigger a round")
	}
	positives := mon.TopK()
	if maxK := int(a.cfg.MaxKFrac * float64(mon.N())); maxK >= 1 && len(positives) > maxK {
		positives = positives[:maxK]
	}
	var frames []*tensor.Tensor
	var targets []float64
	for _, s := range positives {
		frames = append(frames, s.Pix())
		targets = append(targets, 1)
	}
	for _, s := range mon.BottomK(a.cfg.NormalAnchors) {
		frames = append(frames, s.Pix())
		targets = append(targets, 0)
	}
	batch := stackFrames(frames)

	before := a.banks(true)
	invT := 1 / a.det.ScoreTemperature()
	var loss float64
	for e := 0; e < a.cfg.Epochs; e++ {
		a.opt.ZeroGrad()
		l := autograd.BinaryScoreLoss(autograd.Scale(forward(batch), invT), targets)
		l.Backward()
		a.opt.Step()
		loss = l.Scalar()
		a.renormalize()
	}

	replaced := 0
	for gi, m := range a.det.gnns {
		bank := m.Tokens()
		for _, id := range bank.NodeIDs() {
			old, ok := before[gi][id]
			if !ok {
				continue
			}
			dist := tensor.L2Distance(old, bank.Bank(id).Data)
			tr := a.trackers[gi][id]
			if tr == nil {
				tr = &TrackerState{}
				a.trackers[gi][id] = tr
			}
			if tr.HasLast && dist > float64(tr.LastDist) {
				tr.IncStreak++
			} else {
				tr.IncStreak = 0
			}
			tr.LastDist = tensor.F64Bits(dist)
			tr.HasLast = true
			if tr.IncStreak >= a.cfg.Patience {
				if _, _, err := a.replaceNode(gi, id); err != nil {
					t.Fatal(err)
				}
				replaced++
			}
		}
	}
	return loss, replaced
}

// TestAdapterStepIsThePlainLoop pins Adapter.Step to the single-loss step
// of the paper written out by hand (plainRound). Two identically seeded
// rigs, one driven each way through three rounds at Patience 1 — so a later
// round prunes and re-creates nodes — must agree on every round's loss,
// every token bank, and the adapter's exported state (AdamW moments,
// trackers, row norms) to the bit. The semantic pull is off: it rotates
// rows after the step and is not part of it.
func TestAdapterStepIsThePlainLoop(t *testing.T) {
	_, aStep, mStep := adaptFixture(t, 63)
	_, aLoop, mLoop := adaptFixture(t, 63)
	for _, a := range []*Adapter{aStep, aLoop} {
		a.cfg.Patience = 1
		a.cfg.SemanticPull = 0
	}

	replacedTotal := 0
	for round := 0; round < 3; round++ {
		rep, err := aStep.Step(mStep)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Triggered {
			t.Fatalf("round %d did not trigger", round)
		}
		loss, replaced := plainRound(t, aLoop, mLoop)
		if math.Float64bits(float64(rep.Loss)) != math.Float64bits(loss) {
			t.Fatalf("round %d: Step loss %.17g, plain loop %.17g", round, float64(rep.Loss), loss)
		}
		if len(rep.Pruned) != replaced || len(rep.Created) != replaced {
			t.Fatalf("round %d: Step replaced %d/%d nodes, plain loop %d", round, len(rep.Pruned), len(rep.Created), replaced)
		}
		replacedTotal += replaced

		want, got := tokenBankState(aLoop.det), tokenBankState(aStep.det)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d token banks, want %d", round, len(got), len(want))
		}
		for i := range want {
			requireSameBits(t, fmt.Sprintf("round %d token bank %d", round, i), want[i].Data(), got[i].Data())
		}
		// The exported state is the checkpoint wire form, which writes every
		// float as its bit pattern.
		wantState, err := json.Marshal(aLoop.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		gotState, err := json.Marshal(aStep.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState, wantState) {
			t.Fatalf("round %d: adapter state (moments, trackers, row norms) differs from the plain loop", round)
		}
	}
	if replacedTotal == 0 {
		t.Fatal("no round pruned and re-created a node")
	}
}

// TestAdapterStepDeterministicAcrossWorkers checks the adaptation step is
// bit-identical across pool sizes: the parallel kernels under it split work,
// never a summation order.
func TestAdapterStepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (AdaptReport, []*tensor.Tensor) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		_, a, m := adaptFixture(t, 62)
		rep, err := a.Step(m)
		if err != nil {
			t.Fatal(err)
		}
		return rep, tokenBankState(a.det)
	}
	wantRep, wantBanks := run(1)
	if !wantRep.Triggered {
		t.Fatal("fixture did not trigger adaptation")
	}
	for _, w := range []int{2, 8} {
		gotRep, gotBanks := run(w)
		if gotRep.Loss != wantRep.Loss {
			t.Fatalf("workers=%d: loss %v != %v", w, gotRep.Loss, wantRep.Loss)
		}
		for i := range wantBanks {
			if !tensor.AllClose(gotBanks[i], wantBanks[i], 0) {
				t.Fatalf("workers=%d: token bank %d not bit-identical", w, i)
			}
		}
	}
}

// TestTrainerTrainProgress covers Trainer.Train's loop and callback
// contract, which previously had no direct test.
func TestTrainerTrainProgress(t *testing.T) {
	r, src := trainRig(t, 44)
	cfg := DefaultTrainConfig()
	cfg.Steps = 5
	tr := NewTrainer(r.det, cfg)
	var steps []int
	tr.Train(rand.New(rand.NewSource(10)), src, func(step int, loss float64) {
		steps = append(steps, step)
		if math.IsNaN(loss) {
			t.Fatalf("step %d: NaN loss", step)
		}
	})
	if len(steps) != cfg.Steps {
		t.Fatalf("progress called %d times, want %d", len(steps), cfg.Steps)
	}
	for i, s := range steps {
		if s != i {
			t.Fatalf("progress steps %v not sequential", steps)
		}
	}
	if tr.StepsTaken() != cfg.Steps {
		t.Errorf("StepsTaken = %d, want %d", tr.StepsTaken(), cfg.Steps)
	}
}

// TestEvalAUCValidation covers EvalAUC's error branch and the happy path.
func TestEvalAUCValidation(t *testing.T) {
	r, _ := trainRig(t, 45)
	rng := rand.New(rand.NewSource(11))
	frames := tensor.RandN(rng, 1, 4, r.space.PixDim())
	if _, err := EvalAUC(r.det, frames, []bool{true}); err == nil {
		t.Error("mismatched label count accepted")
	}
	vids := r.gen.TaskVideos(rng, concept.Stealing, 2, 2)
	evalFrames := tensor.New(0, 0)
	var labels []bool
	{
		total := 0
		for _, v := range vids {
			total += v.NumFrames()
		}
		evalFrames = tensor.New(total, r.space.PixDim())
		row := 0
		for _, v := range vids {
			for i := 0; i < v.NumFrames(); i++ {
				copy(evalFrames.Row(row), v.Frames.Row(i))
				labels = append(labels, v.FrameAnomalous(i))
				row++
			}
		}
	}
	auc, err := EvalAUC(r.det, evalFrames, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0 || auc > 1 {
		t.Errorf("AUC = %v outside [0,1]", auc)
	}
}

// TestAdapterStepMonitorNotReady covers Adapter.Step's monitor gate: an
// unfilled monitor must produce an untriggered report and leave the token
// banks untouched.
func TestAdapterStepMonitorNotReady(t *testing.T) {
	r := newRig(t, "Stealing", 46)
	cfg := DefaultAdaptConfig()
	adapter, err := NewAdapter(r.det, cfg, rand.New(rand.NewSource(47)))
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := NewMonitor(8, 4)
	mon.Push(tensor.Ones(1, r.space.PixDim()), 0.5) // far from full
	before := tokenBankState(r.det)
	rep, err := adapter.Step(mon)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triggered {
		t.Error("unready monitor triggered adaptation")
	}
	after := tokenBankState(r.det)
	for i := range before {
		if !tensor.AllClose(before[i], after[i], 0) {
			t.Fatal("unready round modified token embeddings")
		}
	}
}
