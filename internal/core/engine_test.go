package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/flops"
	"edgekg/internal/parallel"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// The pins that keep the scoring engine honest. ScoreVideo runs tape-free
// forwards that share their arithmetic with the autograd ops; the
// reference below scores the same video by composing those ops on a tape,
// the way ScoreVideo did before the engine existed and ForwardClip still
// does. Both run the final temporal block past its K/V on the last row of
// each window only, and the engine also skips the rows no score reads —
// GNN rows below the levels the embedding terminal reaches, and all but
// one in-projection per window — so at float64 they agree bit for bit and
// the engine bills the tape's count less a closed form; at float32 it
// rides the drift budget in precision_test.go. (lastrow_test.go pins the
// last-row shape against the all-rows composition.)

// scoreVideoTape is the tape-composed reference for ScoreVideo at float64:
// EmbedFrames → window gather → ForwardBatch → Logits → Scale → SoftmaxRows
// as autograd values, chunked exactly like the engine.
func scoreVideoTape(d *Detector, frames *tensor.Tensor) []float64 {
	d.SetTraining(false)
	n := frames.Rows()
	if n == 0 {
		return nil
	}
	t := d.temp.Window()
	emb := d.EmbedFrames(frames)
	invT := 1.0
	if d.cfg.ScoreTemperature > 0 {
		invT = 1 / d.cfg.ScoreTemperature
	}
	const chunk = 256
	scores := make([]float64, n)
	for base := 0; base < n; base += chunk {
		b := min(n-base, chunk)
		rows := make([]int, 0, b*t)
		for i := 0; i < b; i++ {
			for k := 0; k < t; k++ {
				rows = append(rows, max(base+i-(t-1)+k, 0))
			}
		}
		out := d.temp.ForwardBatch(autograd.GatherRows(emb, rows), b)
		probs := autograd.SoftmaxRows(autograd.Scale(d.head.Logits(out), invT))
		for i := 0; i < b; i++ {
			scores[base+i] = 1 - probs.Data.At2(i, 0)
		}
	}
	return scores
}

func requireSameBits(t *testing.T, ctx string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: value %d: got %.17g, want %.17g", ctx, i, got[i], want[i])
		}
	}
}

// onGrid runs check on every kernel backend, at one worker and at four,
// with a context naming the stage, the backend and the worker count.
func onGrid(t *testing.T, stage string, check func(ctx string)) {
	t.Helper()
	for _, name := range kernels.Names() {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			prev := parallel.SetWorkers(workers)
			check(fmt.Sprintf("%s/%s/workers=%d", stage, name, workers))
			parallel.SetWorkers(prev)
		}
		restore()
	}
}

// TestScoreVideoMatchesTapeBitForBit is the contract of the engine at
// float64: on every backend, at one worker and at four, for videos of 1,
// 24 and 300 frames (300 crosses the 256-window chunk seam) over a 2-KG
// detector — and again after a token-bank page is rewritten in place and
// after a node is pruned and replaced — ScoreVideo returns exactly the
// tape reference's bits.
func TestScoreVideoMatchesTapeBitForBit(t *testing.T) {
	det := twoKGDetector(t)
	det.Deploy()
	det.SetPrecision(PrecisionF64) // also under an EDGEKG_PRECISION=f32 run
	rng := rand.New(rand.NewSource(91))
	videos := map[int]*tensor.Tensor{}
	for _, n := range []int{1, 24, 300} {
		videos[n] = tensor.RandN(rng, 1, n, det.Space().PixDim())
	}

	grid := func(stage string) {
		onGrid(t, stage, func(ctx string) {
			for _, n := range []int{1, 24, 300} {
				ctx := fmt.Sprintf("%s/frames=%d", ctx, n)
				requireSameBits(t, ctx, scoreVideoTape(det, videos[n]), det.ScoreVideo(videos[n]))
			}
		})
	}
	grid("deployed")

	// Adaptation writes bank pages in place without telling anyone: the
	// engine must read the new values on the very next frame.
	before := det.ScoreVideo(videos[24])
	m := det.GNN(0)
	page := m.Tokens().Bank(m.Tokens().NodeIDs()[0]).Data.Data()
	for i := range page {
		page[i] += 0.25
	}
	if slices.Equal(det.ScoreVideo(videos[24]), before) {
		t.Fatal("scores unchanged after an in-place bank update — fixture is vacuous")
	}
	grid("bank-updated")

	// Prune a reasoning node, create its replacement, Rebind: layout, bank
	// set and edge groups all change under the cached eval forms.
	g := det.GNN(1).Graph()
	victim := det.GNN(1).Tokens().NodeIDs()[0]
	if _, err := g.ReplaceNode(rng, victim, "created-1", nil, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := det.GNN(1).Rebind(); err != nil {
		t.Fatal(err)
	}
	grid("rebound")
}

// skippedEvalFLOPs is the closed-form count of what ScoreVideo's engine
// does not compute for n frames (one chunk) against the tape composition.
// In every KG's GNN a frame runs edge layer l's dense on the rows at level
// l alone: the rows below l no longer reach the terminal, and the rows
// above l are the eval memo's, computed once per token-bank state rather
// than per frame. The final refinement layer skips every row but the
// embedding terminal's, their ELU included. A dense row costs 2·in·w + w,
// with in the semantic dim at layer 0 and w past it, and an ELU row w. In
// the temporal stage each window in-projects one frame instead of T:
// (T−1)·(2·D·I + I) per window for a reasoning width D and inner width I.
func skippedEvalFLOPs(d *Detector, n int) int64 {
	perFrame := 0
	for i := 0; i < d.NumGNNs(); i++ {
		g, w := d.GNN(i).Graph(), d.GNN(i).Width()
		v, dense := g.NumNodes(), 2*w*w+w
		perFrame += (v - 1) * (2*d.space.Dim()*w + w) // all but the sensor
		for l := 1; l <= g.Depth(); l++ {
			perFrame += (v - len(g.NodesAtLevel(l))) * dense
		}
		perFrame += (v - 1) * (dense + w)
	}
	tc := d.cfg.Temporal
	perFrame += (tc.Window - 1) * (2*d.ReasoningDim()*tc.InnerDim + tc.InnerDim)
	return int64(n * perFrame)
}

// TestScoreVideoFLOPsIndependentOfWidth pins the Table-I ledger to the
// model, not to a deployment knob: one frame (and 24) is billed the same
// operation count at float32 and at float64 — the tape composition's
// count less the closed form of the rows the engine skips — and again
// after a node is pruned and replaced.
func TestScoreVideoFLOPsIndependentOfWidth(t *testing.T) {
	r := newRig(t, "Stealing", 11)
	r.det.Deploy()
	rng := rand.New(rand.NewSource(92))
	check := func(stage string) {
		for _, n := range []int{1, 24} {
			pix := tensor.RandN(rng, 1, n, r.space.PixDim())
			count := func(p Precision) int64 {
				r.det.SetPrecision(p)
				r.det.ScoreVideo(pix) // build the width's snapshots and memo outside the count
				ops, _ := flops.Count(func() { r.det.ScoreVideo(pix) })
				return ops
			}
			f64, f32 := count(PrecisionF64), count(PrecisionF32)
			tape, _ := flops.Count(func() { scoreVideoTape(r.det, pix) })
			want := tape - skippedEvalFLOPs(r.det, n)
			if f64 != want || f32 != want || want <= 0 {
				t.Errorf("%s, %d frames: %d ops at f64, %d at f32, want the tape's %d less %d skipped = %d",
					stage, n, f64, f32, tape, tape-want, want)
			}
		}
	}
	check("deployed")

	m := r.det.GNN(0)
	if _, err := m.Graph().ReplaceNode(rng, m.Tokens().NodeIDs()[0], "created-1", nil, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := m.Rebind(); err != nil {
		t.Fatal(err)
	}
	check("rebound")
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestScoreVideoAllocCeiling keeps a served frame's allocation count from
// creeping back up. Every activation is lent from a pooled workspace, so
// the one allocation left is the returned scores (measured 1 at float64
// and at float32; 71 and 75 before activations were pooled). Under the
// race detector sync.Pool drops a quarter of the workspaces put back, and
// each drop is re-made on the next call, header and slab chunks included
// (measured 34–36 at float64 and 40–42 at float32 with arena workspaces;
// 49–52 and 54–56 when buffers were pooled one by one), so the ceiling
// there is looser.
func TestScoreVideoAllocCeiling(t *testing.T) {
	r := newRig(t, "Stealing", 11)
	r.det.Deploy()
	pix := tensor.RandN(rand.New(rand.NewSource(93)), 1, 1, r.space.PixDim())
	ceiling := 3.0
	if raceEnabled {
		ceiling = 65
	}
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		r.det.SetPrecision(p)
		got := testing.AllocsPerRun(200, func() { r.det.ScoreVideo(pix) })
		t.Logf("ScoreVideo(1 frame) at %v: %.2f allocs", p, got)
		if got > ceiling {
			t.Errorf("ScoreVideo(1 frame) at %v: %.0f allocs, ceiling %.0f", p, got, ceiling)
		}
	}
}

// probeLossTape is the adapter's loss gate composed on the tape, the way
// Step computed it before the probe moved to the engine: the detached
// BinaryScoreLoss over forwardFrames' temperature-scaled logits.
func probeLossTape(a *Adapter, batch *tensor.Tensor, targets []float64) float64 {
	logits := autograd.Scale(a.forwardFrames(batch), 1/a.det.ScoreTemperature())
	return autograd.BinaryScoreLoss(logits.Detach(), targets).Scalar()
}

// TestSkipLossProbeMatchesTape pins the loss gate's probe to the tape loss
// it replaced, on the grid of TestScoreVideoMatchesTapeBitForBit: on every
// backend, at one worker and at four, for batches of 1, 5 and 300 frames
// over a 2-KG detector — deployed, after an in-place bank write, after a
// node is pruned and replaced, and with the detector's Precision at f32,
// where the probe must stay float64 — probeLoss returns the tape loss's
// bits, so every gate decision is the one the tape made.
func TestSkipLossProbeMatchesTape(t *testing.T) {
	det := twoKGDetector(t)
	det.Deploy()
	det.SetPrecision(PrecisionF64)
	a, err := NewAdapter(det, DefaultAdaptConfig(), rand.New(rand.NewSource(94)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(95))
	sizes := []int{1, 5, 300}
	batches, targets := map[int]*tensor.Tensor{}, map[int][]float64{}
	for _, n := range sizes {
		batches[n] = tensor.RandN(rng, 1, n, det.Space().PixDim())
		targets[n] = make([]float64, n)
		for i := range targets[n] {
			targets[n][i] = float64(rng.Intn(2))
		}
	}

	grid := func(stage string) {
		onGrid(t, stage, func(ctx string) {
			for _, n := range sizes {
				ctx := fmt.Sprintf("%s/frames=%d", ctx, n)
				want := probeLossTape(a, batches[n], targets[n])
				requireSameBits(t, ctx, []float64{want}, []float64{a.probeLoss(samplesOf(batches[n]), targets[n])})
			}
		})
	}
	grid("deployed")

	before := a.probeLoss(samplesOf(batches[5]), targets[5])
	m := det.GNN(0)
	page := m.Tokens().Bank(m.Tokens().NodeIDs()[0]).Data.Data()
	for i := range page {
		page[i] += 0.25
	}
	if a.probeLoss(samplesOf(batches[5]), targets[5]) == before {
		t.Fatal("probe loss unchanged after an in-place bank update — fixture is vacuous")
	}
	grid("bank-updated")

	g := det.GNN(1).Graph()
	if _, err := g.ReplaceNode(rng, det.GNN(1).Tokens().NodeIDs()[0], "created-1", nil, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := det.GNN(1).Rebind(); err != nil {
		t.Fatal(err)
	}
	grid("rebound")

	det.SetPrecision(PrecisionF32)
	grid("f32")
}

// skipLossRound builds an adapter over a copy-on-write clone of det whose
// loss gate stops every round (a binary score loss never exceeds 1, so
// SkipLossBelow 2 always skips), and a monitor primed with a mean drop, so
// Step(mon) always reaches the probe and stops there; Step leaves the
// monitor alone. It also returns the batch and targets the round selects,
// rebuilt the way Step selects them.
func skipLossRound(t *testing.T, det *Detector, seed int64) (*Adapter, *Monitor, *tensor.Tensor, []float64) {
	t.Helper()
	clone, err := det.CloneCOW()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAdaptConfig()
	cfg.SkipLossBelow = 2
	a, err := NewAdapter(clone, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for _, score := range []float64{0.9, 0.1} {
		for i := 0; i < 16; i++ {
			mon.Push(tensor.RandN(rng, 1, 1, det.Space().PixDim()), score)
		}
	}
	positives := mon.TopK()
	if maxK := int(cfg.MaxKFrac * float64(mon.N())); maxK >= 1 && len(positives) > maxK {
		positives = positives[:maxK]
	}
	var frames []*tensor.Tensor
	var targets []float64
	for _, s := range positives {
		frames = append(frames, s.Pix())
		targets = append(targets, 1)
	}
	for _, s := range mon.BottomK(cfg.NormalAnchors) {
		frames = append(frames, s.Pix())
		targets = append(targets, 0)
	}
	return a, mon, stackFrames(frames), targets
}

// samplesOf wraps each row of batch as a monitor sample without a gate
// score, the selection probeLoss scores in full.
func samplesOf(batch *tensor.Tensor) []Sample {
	out := make([]Sample, batch.Rows())
	for i := range out {
		out[i] = Sample{Frame: tensor.FromSlice(batch.Row(i), 1, batch.Cols()), Seq: i, gate: math.NaN()}
	}
	return out
}

// stepSkips runs one round and fails unless the loss gate stopped it.
func stepSkips(t *testing.T, a *Adapter, mon *Monitor) {
	t.Helper()
	rep, err := a.Step(mon)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triggered || rep.Gate != GateSkipLoss {
		t.Fatalf("round stopped at gate %d (triggered %v), want GateSkipLoss", rep.Gate, rep.Triggered)
	}
}

// TestSkipLossRoundFLOPs pins what a round the loss gate stops bills: the
// tape probe's count less the rows the engine skips (skippedEvalFLOPs,
// one window per selected frame), on a 2-KG detector.
func TestSkipLossRoundFLOPs(t *testing.T) {
	det := twoKGDetector(t)
	det.Deploy()
	det.SetPrecision(PrecisionF64)
	a, mon, batch, targets := skipLossRound(t, det, 96)
	stepSkips(t, a, mon) // build the eval snapshots outside the count
	got, _ := flops.Count(func() { stepSkips(t, a, mon) })
	tape, _ := flops.Count(func() { probeLossTape(a, batch, targets) })
	want := tape - skippedEvalFLOPs(a.det, batch.Rows())
	if got != want || want <= 0 {
		t.Errorf("skip-loss round of %d frames bills %d ops, want the tape probe's %d less %d skipped = %d",
			batch.Rows(), got, tape, tape-want, want)
	}
}

// TestSkipLossStepAllocCeiling keeps a round the loss gate stops cheap: the
// probe lends its activations from pooled workspaces instead of building a
// tape, and stacks the batch in the workspace too. Measured 12 allocs per
// skip-loss Step on the core rig (16 when the batch was stacked on the
// heap, 200 when the probe built a tape and each frame was reshaped before
// stacking); what is left is the selection and the report. Under the race
// detector sync.Pool drops a quarter of the workspaces put back, and each
// drop is re-made (measured 41–48), so the ceiling there is looser.
func TestSkipLossStepAllocCeiling(t *testing.T) {
	r := newRig(t, "Stealing", 11)
	r.det.Deploy()
	a, mon, _, _ := skipLossRound(t, r.det, 97)
	stepSkips(t, a, mon)
	ceiling := 24.0
	if raceEnabled {
		ceiling = 80
	}
	got := testing.AllocsPerRun(200, func() { stepSkips(t, a, mon) })
	t.Logf("skip-loss Step: %.2f allocs", got)
	if got > ceiling {
		t.Errorf("skip-loss Step: %.0f allocs, ceiling %.0f", got, ceiling)
	}
}
