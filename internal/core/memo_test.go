package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgekg/internal/flops"
	"edgekg/internal/tensor"
)

// coldClone returns a deep clone of d that holds no usable eval memo:
// every GNN rebinds to a fresh layout, so the clone's first score builds
// each memo from the clone's own banks and weights, as a detector freshly
// loaded with that state would.
func coldClone(t *testing.T, d *Detector) *Detector {
	t.Helper()
	c, err := d.CloneShared()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.gnns {
		if err := m.Rebind(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestEvalMemoFollowsEveryKeyChange scores through a warm eval memo after
// each way its key moves — an AdamW step on the token banks, the semantic
// pull, renormalisation, a prune+create (Rebind), a restore of the banks
// (Install + Rebind, what snapshot.Install runs) and SetTraining(true) →
// a training step on the weights alone → Deploy — at float64 and at
// float32, and requires a cold clone's bits at every stage. Each stage
// must also move the scores: one that did not would not show that the
// memo followed it.
func TestEvalMemoFollowsEveryKeyChange(t *testing.T) {
	r, src := trainRig(t, 47)
	r.det.Deploy()
	a, err := NewAdapter(r.det, DefaultAdaptConfig(), rand.New(rand.NewSource(48)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(49))
	video := tensor.RandN(rng, 1, 6, r.space.PixDim())
	batch := tensor.RandN(rng, 1, 4, r.space.PixDim())
	targets := []float64{1, 1, 0, 0}
	prev := map[Precision][]float64{}
	check := func(stage string) {
		t.Helper()
		for _, p := range []Precision{PrecisionF64, PrecisionF32} {
			r.det.SetPrecision(p)
			got := r.det.ScoreVideo(video)
			requireSameBits(t, stage+" at "+p.String(), coldClone(t, r.det).ScoreVideo(video), got)
			if slices.Equal(got, prev[p]) {
				t.Fatalf("%s at %v left the scores unmoved", stage, p)
			}
			prev[p] = got
		}
	}
	check("deployed")

	before := a.banks(true)
	a.epochStep(batch, targets, 1/r.det.ScoreTemperature())
	check("AdamW step")
	a.applySemanticPull(before, tensor.Normalize(tensor.RandN(rng, 1, r.space.Dim())))
	check("semantic pull")
	a.renormalize()
	check("renormalize")

	m := r.det.GNN(0)
	if _, _, err := a.replaceNode(0, m.Tokens().NodeIDs()[0]); err != nil {
		t.Fatal(err)
	}
	check("prune and create")

	for _, id := range m.Tokens().NodeIDs() {
		bank := m.Tokens().Snapshot(id)
		for i, v := range bank.Data() {
			bank.Data()[i] = v + 0.25*rng.NormFloat64()
		}
		m.Tokens().Install(id, bank)
	}
	if err := m.Rebind(); err != nil {
		t.Fatal(err)
	}
	check("restore")

	// Training the weights alone leaves every bank mean where it was: only
	// the eval snapshots, dropped by SetTraining(true), move the key.
	NewTrainer(r.det, TrainConfig{Steps: 1}).Step(rng, src)
	r.det.Deploy()
	check("train and deploy")
}

// TestEvalMemoBuiltOutsideServedFrames pins the billing rule: Deploy and
// the adapter (at construction and in Rescore) build the eval memo at the
// serving width, so the next one-frame ScoreVideo bills exactly what a
// warm one does — the tape's count less skippedEvalFLOPs — and the
// adapter's float64 probe finds its memo warm too.
func TestEvalMemoBuiltOutsideServedFrames(t *testing.T) {
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		r := newRig(t, "Stealing", 11)
		r.det.SetPrecision(p)
		pix := tensor.RandN(rand.New(rand.NewSource(94)), 1, 1, r.space.PixDim())
		want := func() int64 {
			tape, _ := flops.Count(func() { scoreVideoTape(r.det, pix) })
			return tape - skippedEvalFLOPs(r.det, 1)
		}
		served := func(stage string) {
			t.Helper()
			if got, _ := flops.Count(func() { r.det.ScoreVideo(pix) }); got != want() {
				t.Errorf("%v, %s: the next frame bills %d ops, want %d", p, stage, got, want())
			}
		}
		r.det.Deploy()
		served("after Deploy")

		a, err := NewAdapter(r.det, DefaultAdaptConfig(), rand.New(rand.NewSource(95)))
		if err != nil {
			t.Fatal(err)
		}
		probe := tensor.RandN(rand.New(rand.NewSource(96)), 1, 3, r.space.PixDim())
		probed := func(stage string) {
			t.Helper()
			cold, _ := flops.Count(func() { coldClone(t, r.det).ScoreFrames(probe) })
			warm, _ := flops.Count(func() { r.det.ScoreFrames(probe) })
			if again, _ := flops.Count(func() { r.det.ScoreFrames(probe) }); warm != again || warm >= cold {
				t.Errorf("%v, %s: the float64 probe bills %d ops, then %d, and %d from cold", p, stage, warm, again, cold)
			}
		}
		served("after NewAdapter")
		probed("after NewAdapter")

		m := r.det.GNN(0)
		page := m.Tokens().Bank(m.Tokens().NodeIDs()[0]).Data.Data()
		for i := range page {
			page[i] += 0.5
		}
		mon, err := NewMonitor(4, 2)
		if err != nil {
			t.Fatal(err)
		}
		a.Rescore(mon)
		served("after Rescore")
		probed("after Rescore")
	}
}

// TestEvalMemoKeyMatchesNaN pins that the memo's key compares bits: a
// bank holding a NaN matches itself, so the memo built from it is reused
// rather than rebuilt on every frame.
func TestEvalMemoKeyMatchesNaN(t *testing.T) {
	r := newRig(t, "Stealing", 12)
	r.det.Deploy()
	r.det.SetPrecision(PrecisionF64)
	m := r.det.GNN(0)
	m.Tokens().Bank(m.Tokens().NodeIDs()[0]).Data.Data()[0] = math.NaN()
	pix := tensor.RandN(rand.New(rand.NewSource(97)), 1, 1, r.space.PixDim())
	first, _ := flops.Count(func() { r.det.ScoreVideo(pix) })
	second, _ := flops.Count(func() { r.det.ScoreVideo(pix) })
	tape, _ := flops.Count(func() { scoreVideoTape(r.det, pix) })
	if want := tape - skippedEvalFLOPs(r.det, 1); second != want || first <= second {
		t.Errorf("with a NaN bank a frame bills %d ops, then %d; want a rebuild, then %d", first, second, want)
	}
}
