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
	"edgekg/internal/decision"
	"edgekg/internal/flops"
	"edgekg/internal/nn"
	"edgekg/internal/optim"
	"edgekg/internal/parallel"
	"edgekg/internal/temporal"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// The pins that keep the tape's last-row temporal block honest. The tape
// runs the encoder block past its K/V over the last row of each window
// only. The reference below is the composition it replaced, written out in
// test code from exported ops: the block over all batch·T rows, then the
// final norm, the last-row gather and out. Training and adaptation must
// not be able to tell the two apart, to the bit.

// allRowsTemporal rebuilds m's tape forward in the all-rows form from m's
// own parameter values (so gradients land in the same Grad fields): the
// input projection, the positional add, the encoder block over every row —
// its attention one BatchedAttention with every row a query — the final
// norm, GatherRows of each window's last row and out. heads is m's
// attention head count.
func allRowsTemporal(t *testing.T, m *temporal.Model, heads int) func(wins *autograd.Value, batch int) *autograd.Value {
	t.Helper()
	p := map[string]*autograd.Value{}
	for _, q := range m.Params() {
		p[q.Name] = q.V
	}
	used := 0
	get := func(name string) *autograd.Value {
		v := p[name]
		if v == nil {
			t.Fatalf("temporal model has no parameter %q", name)
		}
		used++
		return v
	}
	lin := func(name string) *nn.Linear { return &nn.Linear{W: get(name + ".w"), B: get(name + ".b")} }
	ln := func(name string) *nn.LayerNorm {
		l := nn.NewLayerNorm(1)
		l.Gamma, l.Beta = get(name+".gamma"), get(name+".beta")
		return l
	}
	inProj, norm, out := lin("inproj"), ln("norm"), lin("out")
	wq, wk, wv, wo := lin("block0.attn.wq"), lin("block0.attn.wk"), lin("block0.attn.wv"), lin("block0.attn.wo")
	ln1, ln2, ff1, ff2 := ln("block0.ln1"), ln("block0.ln2"), lin("block0.ff1"), lin("block0.ff2")
	if used != len(p) {
		t.Fatalf("all-rows reference reads %d of the model's %d parameters", used, len(p))
	}
	dim := inProj.W.Data.Cols()
	scale := 1 / math.Sqrt(float64(dim/heads))
	win := m.Window()
	pos := nn.PositionalEncoding(win, dim)
	return func(wins *autograd.Value, batch int) *autograd.Value {
		x := autograd.AddTiled(inProj.Forward(wins), pos)
		a := ln1.Forward(x)
		q, k, v := wq.Forward(a), wk.Forward(a), wv.Forward(a)
		h := autograd.Add(x, wo.Forward(autograd.BatchedAttention(q, k, v, batch, heads, scale)))
		h = autograd.Add(h, ff2.Forward(autograd.GELU(ff1.Forward(ln2.Forward(h)))))
		last := make([]int, batch)
		for k := range last {
			last[k] = (k+1)*win - 1
		}
		return out.Forward(autograd.GatherRows(norm.Forward(h), last))
	}
}

// forwardClipAllRows is Detector.ForwardClip over the all-rows temporal
// reference.
func forwardClipAllRows(d *Detector, temp func(*autograd.Value, int) *autograd.Value, clip *tensor.Tensor, batch int) *autograd.Value {
	t := d.temp.Window()
	rows := make([]int, batch*t)
	for k := 0; k < batch; k++ {
		for i := 0; i < t; i++ {
			rows[k*t+i] = k + i
		}
	}
	return d.head.Logits(temp(autograd.GatherRows(d.EmbedFrames(clip), rows), batch))
}

// forwardFramesAllRows is Adapter.forwardFrames over the all-rows temporal
// reference.
func forwardFramesAllRows(a *Adapter, temp func(*autograd.Value, int) *autograd.Value) func(*tensor.Tensor) *autograd.Value {
	return func(frames *tensor.Tensor) *autograd.Value {
		t, b := a.det.Window(), frames.Rows()
		rows := make([]int, b*t)
		for k := 0; k < b; k++ {
			for i := 0; i < t; i++ {
				rows[k*t+i] = k
			}
		}
		return a.det.head.Logits(temp(autograd.GatherRows(a.det.EmbedFrames(frames), rows), b))
	}
}

// TestTapeMatchesAllRowsComposition pins one training forward and backward
// through the last-row tape to the all-rows composition: the same logits,
// the same loss and the same gradient in every weight and token bank, by
// Float64bits, on every backend, at one worker and at four.
// The all-rows form sums extra exact zeros into some adjoints, which could
// at most flip the sign of an entry that is zero on both sides; none does
// here, so the pin allows no difference at all.
func TestTapeMatchesAllRowsComposition(t *testing.T) {
	r := newRigWith(t, "Stealing", 71, tinyConfig())
	det := r.det
	det.UnfreezeAll()
	src := r.clipSource(t, rand.New(rand.NewSource(72)), concept.Stealing, 6)
	clip, labels := src.NextClip(rand.New(rand.NewSource(73)))
	ref := allRowsTemporal(t, det.temp, det.cfg.Temporal.Heads)
	params := append(det.Params(), det.TokenParams()...)

	type pass struct {
		logits, loss []float64
		grads        [][]float64
	}
	run := func(forward func() *autograd.Value) pass {
		for _, p := range params {
			p.V.ZeroGrad()
		}
		logits := forward()
		loss := decision.Loss(logits, labels, det.cfg.Loss, true)
		loss.Backward()
		out := pass{logits: logits.Data.Data(), loss: loss.Data.Data()}
		for _, p := range params {
			if p.V.Grad == nil {
				t.Fatalf("parameter %s took no gradient", p.Name)
			}
			out.grads = append(out.grads, p.V.Grad.Clone().Data())
		}
		return out
	}

	for _, name := range kernels.Names() {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			prev := parallel.SetWorkers(workers)
			ctx := fmt.Sprintf("%s/workers=%d", name, workers)
			want := run(func() *autograd.Value { return forwardClipAllRows(det, ref, clip, src.Batch()) })
			got := run(func() *autograd.Value { return det.ForwardClip(clip, src.Batch()) })
			requireSameBits(t, ctx+"/logits", want.logits, got.logits)
			requireSameBits(t, ctx+"/loss", want.loss, got.loss)
			for i, p := range params {
				requireSameBits(t, ctx+"/grad "+p.Name, want.grads[i], got.grads[i])
			}
			parallel.SetWorkers(prev)
		}
		restore()
	}
}

// TestTrainStepMatchesAllRowsComposition drives one rig through 24
// Trainer.Steps and an identically seeded twin through the plain training
// loop over the all-rows composition: every loss, every trained value and
// the deployed detectors' scores must agree to the bit.
func TestTrainStepMatchesAllRowsComposition(t *testing.T) {
	const steps = 24
	cfg := DefaultTrainConfig()
	rStep := newRigWith(t, "Stealing", 74, tinyConfig())
	srcStep := rStep.clipSource(t, rand.New(rand.NewSource(75)), concept.Stealing, 6)
	tr := NewTrainer(rStep.det, cfg)

	rLoop := newRigWith(t, "Stealing", 74, tinyConfig())
	srcLoop := rLoop.clipSource(t, rand.New(rand.NewSource(75)), concept.Stealing, 6)
	det := rLoop.det
	det.UnfreezeAll()
	values := nn.Values(append(det.Params(), det.TokenParams()...))
	opt := optim.NewAdamW(values, trainAdamW)
	ref := allRowsTemporal(t, det.temp, det.cfg.Temporal.Heads)

	rngStep, rngLoop := rand.New(rand.NewSource(76)), rand.New(rand.NewSource(76))
	for s := 0; s < steps; s++ {
		got := tr.Step(rngStep, srcStep)

		det.SetTraining(true)
		frames, labels := srcLoop.NextClip(rngLoop)
		opt.ZeroGrad()
		loss := decision.Loss(forwardClipAllRows(det, ref, frames, srcLoop.Batch()), labels, det.cfg.Loss, true)
		loss.Backward()
		optim.ClipGradNorm(values, trainClipNorm)
		opt.SetLR(trainAdamW.LR * math.Pow(trainDecayRate, float64(s)))
		opt.Step()

		if want := loss.Scalar(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: Step loss %.17g, all-rows loop %.17g", s, got, want)
		}
	}
	want, got := trainedState(det), trainedState(rStep.det)
	for i := range want {
		requireSameBits(t, fmt.Sprintf("trained tensor %d", i), want[i].Data(), got[i].Data())
	}
	video := tensor.RandN(rand.New(rand.NewSource(77)), 1, 9, rStep.space.PixDim())
	rStep.det.Deploy()
	det.Deploy()
	requireSameBits(t, "ScoreVideo", det.ScoreVideo(video), rStep.det.ScoreVideo(video))
}

// TestAdapterStepMatchesAllRowsComposition drives three Adapter.Steps at
// Patience 1 — so a later round prunes and re-creates nodes — against the
// plain round over the all-rows composition: every round's loss, every
// token bank and the adapter's exported state must agree to the bit.
func TestAdapterStepMatchesAllRowsComposition(t *testing.T) {
	_, aStep, mStep := adaptFixture(t, 78)
	_, aLoop, mLoop := adaptFixture(t, 78)
	for _, a := range []*Adapter{aStep, aLoop} {
		a.cfg.Patience = 1
		a.cfg.SemanticPull = 0
	}
	forward := forwardFramesAllRows(aLoop, allRowsTemporal(t, aLoop.det.temp, aLoop.det.cfg.Temporal.Heads))

	replacedTotal := 0
	for round := 0; round < 3; round++ {
		rep, err := aStep.Step(mStep)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Triggered {
			t.Fatalf("round %d did not trigger", round)
		}
		loss, replaced := plainRoundWith(t, aLoop, mLoop, forward)
		if math.Float64bits(float64(rep.Loss)) != math.Float64bits(loss) {
			t.Fatalf("round %d: Step loss %.17g, all-rows round %.17g", round, float64(rep.Loss), loss)
		}
		if len(rep.Pruned) != replaced || len(rep.Created) != replaced {
			t.Fatalf("round %d: Step replaced %d/%d nodes, all-rows round %d", round, len(rep.Pruned), len(rep.Created), replaced)
		}
		replacedTotal += replaced
		want, got := tokenBankState(aLoop.det), tokenBankState(aStep.det)
		for i := range want {
			requireSameBits(t, fmt.Sprintf("round %d token bank %d", round, i), want[i].Data(), got[i].Data())
		}
		wantState, err := json.Marshal(aLoop.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		gotState, err := json.Marshal(aStep.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState, wantState) {
			t.Fatalf("round %d: adapter state differs from the all-rows round", round)
		}
	}
	if replacedTotal == 0 {
		t.Fatal("no round pruned and re-created a node")
	}
}

// skippedFinalBlockFLOPs is the closed-form count of what the last-row
// final temporal block does not compute for n windows, against the
// all-rows form: forward, Wq, Wo, both residual adds and the feed-forward
// (FF1 + GELU + FF2) on the T−1 rows per window nobody reads, and the
// attention of their queries; backward, the adjoints of those ops, of the
// final norm's bias and of the residual stream on those rows. LayerNorm's
// arithmetic and row gathers bill nothing; a gather's adjoint bills its
// scatter, and the tape gathers two (n × d) row sets where the all-rows
// form gathered one.
func skippedFinalBlockFLOPs(tc temporal.Config, n int) (fwd, bwd int64) {
	d, t, heads := tc.InnerDim, tc.Window, tc.Heads
	dk, ff := d/heads, 4*d
	affine := func(in, out int) int { return 2*in*out + out }
	// dX and dW are one matmul each; dB is a column sum.
	affineBack := func(in, out int) int { return 4*in*out + out }
	fwdRow := 2*affine(d, d) + 2*d + affine(d, ff) + ff + affine(ff, d)
	// The two column sums are LN2's and the final norm's bias adjoints; the
	// third d is the second adjoint summed into the post-attention residual.
	bwdRow := 2*affineBack(d, d) + affineBack(d, ff) + affineBack(ff, d) + 3*d
	// One (window, head) block costs 4·T²·dk + 5·T² forward and
	// 8·T²·dk + 3·T² backward for all T queries, 4·T·dk + 5·T and
	// 8·T·dk + 3·T for the last one.
	fwdAttn := heads * (t - 1) * (4*t*dk + 5*t)
	bwdAttn := heads * (t - 1) * (8*t*dk + 3*t)
	return int64(n * ((t-1)*fwdRow + fwdAttn)), int64(n * ((t-1)*bwdRow + bwdAttn - d))
}

// TestTrainStepFLOPsSkipUnreadRows pins Table I's ledger to the tape's
// shape: one training forward (ForwardClip and the loss) and its backward
// bill exactly the all-rows composition's counts minus the closed form, at
// the quick (inner 16, 2 heads, window 4, batch 8) and the full (inner
// 128, 8 heads, window 8, batch 16) temporal shapes.
func TestTrainStepFLOPsSkipUnreadRows(t *testing.T) {
	for _, sh := range []struct {
		name                        string
		inner, heads, window, batch int
	}{
		{"quick", 16, 2, 4, 8},
		{"full", 128, 8, 8, 16},
	} {
		cfg := tinyConfig()
		cfg.Temporal = temporal.Config{InnerDim: sh.inner, Heads: sh.heads, Window: sh.window}
		r := newRigWith(t, "Stealing", 79, cfg)
		det := r.det
		det.UnfreezeAll()
		ref := allRowsTemporal(t, det.temp, sh.heads)
		rng := rand.New(rand.NewSource(80))
		clip := tensor.RandN(rng, 1, sh.window+sh.batch-1, r.space.PixDim())
		labels := make([]int, sh.batch)
		for i := range labels {
			labels[i] = rng.Intn(2)
		}
		count := func(forward func() *autograd.Value) (fwd, bwd int64) {
			// A parameter's first adjoint is a copy and bills nothing.
			for _, p := range append(det.Params(), det.TokenParams()...) {
				p.V.ZeroGrad()
			}
			var loss *autograd.Value
			fwd, _ = flops.Count(func() { loss = decision.Loss(forward(), labels, det.cfg.Loss, true) })
			bwd, _ = flops.Count(loss.Backward)
			return fwd, bwd
		}
		allFwd, allBwd := count(func() *autograd.Value { return forwardClipAllRows(det, ref, clip, sh.batch) })
		gotFwd, gotBwd := count(func() *autograd.Value { return det.ForwardClip(clip, sh.batch) })
		skipFwd, skipBwd := skippedFinalBlockFLOPs(det.cfg.Temporal, sh.batch)
		if gotFwd != allFwd-skipFwd || gotBwd != allBwd-skipBwd || gotFwd <= 0 || gotBwd <= 0 {
			t.Errorf("%s: forward %d, backward %d; want %d and %d (all-rows %d and %d minus the skipped rows)",
				sh.name, gotFwd, gotBwd, allFwd-skipFwd, allBwd-skipBwd, allFwd, allBwd)
		}
		t.Logf("%s: %d → %d FLOPs per training step", sh.name, allFwd+allBwd, gotFwd+gotBwd)
	}
}
