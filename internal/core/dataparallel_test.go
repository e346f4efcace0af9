package core

import (
	"math"
	"math/rand"
	"testing"

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

// adaptFixture builds a deployed rig, an adapter with the given shard
// count, and a monitor primed with a deterministic mean drop.
func adaptFixture(t *testing.T, seed int64, shards int) (*testRig, *Adapter, *Monitor) {
	t.Helper()
	r := newRig(t, "Stealing", seed)
	cfg := DefaultAdaptConfig()
	cfg.SkipLossBelow = 0 // force the update path
	cfg.Shards = shards
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

// TestAdapterShardedMatchesSingleTape pins the adapter's data-parallel
// pseudo-label step to the single-tape epoch: sharded per-row-range losses
// weighted by row fraction and tree-reduced must move the token banks to
// within 1e-12 of the full-batch reference.
func TestAdapterShardedMatchesSingleTape(t *testing.T) {
	_, a1, m1 := adaptFixture(t, 61, 1)
	_, a4, m4 := adaptFixture(t, 61, 4)

	rep1, err := a1.Step(m1)
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := a4.Step(m4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Triggered || !rep4.Triggered {
		t.Fatalf("fixture did not trigger adaptation (%v, %v)", rep1.Triggered, rep4.Triggered)
	}
	if math.Abs(float64(rep1.Loss-rep4.Loss)) > 1e-12 {
		t.Errorf("loss %v (single tape) vs %v (sharded)", rep1.Loss, rep4.Loss)
	}
	s1 := tokenBankState(a1.det)
	s4 := tokenBankState(a4.det)
	for i := range s1 {
		if !tensor.AllClose(s1[i], s4[i], 1e-12) {
			t.Fatalf("token bank %d diverged beyond 1e-12", i)
		}
	}
}

// TestAdapterStepDeterministicAcrossWorkers checks the sharded adaptation
// step is bit-identical across pool sizes: the shard count is part of the
// configuration, not the machine.
func TestAdapterStepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (AdaptReport, []*tensor.Tensor) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		_, a, m := adaptFixture(t, 62, 4)
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
