package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// onEveryBackend runs fn under the scalar backend and then under every
// other one, and requires each run's values to carry scalar's bits: the
// kernel backend changes speed, never an answer.
func onEveryBackend(t *testing.T, fn func() [][]float64) {
	t.Helper()
	run := func(name string) [][]float64 {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		defer restore()
		return fn()
	}
	want := run("scalar")
	for _, name := range kernels.Names() {
		if name == "scalar" {
			continue
		}
		got := run(name)
		if len(got) != len(want) {
			t.Fatalf("%s: %d value sets, scalar %d", name, len(got), len(want))
		}
		for i := range want {
			requireSameBits(t, fmt.Sprintf("%s vs scalar, set %d", name, i), want[i], got[i])
		}
	}
}

// dataOf flattens tensors into value sets.
func dataOf(ts []*tensor.Tensor) [][]float64 {
	out := make([][]float64, len(ts))
	for i, x := range ts {
		out[i] = x.Data()
	}
	return out
}

// TestScoreVideoSameOnEveryBackend scores one video at both widths on
// every backend: the same bits as the scalar backend's.
func TestScoreVideoSameOnEveryBackend(t *testing.T) {
	det := twoKGDetector(t)
	det.Deploy()
	video := tensor.RandN(rand.New(rand.NewSource(93)), 1, 40, det.Space().PixDim())
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		det.SetPrecision(p)
		onEveryBackend(t, func() [][]float64 { return [][]float64{det.ScoreVideo(video)} })
	}
}

// TestTrainStepSameOnEveryBackend takes one Trainer.Step from the same
// seeds on every backend: the loss and every trained value carry the
// scalar backend's bits.
func TestTrainStepSameOnEveryBackend(t *testing.T) {
	onEveryBackend(t, func() [][]float64 {
		r, src := trainRig(t, 43)
		loss := NewTrainer(r.det, DefaultTrainConfig()).Step(rand.New(rand.NewSource(9)), src)
		return append(dataOf(trainedState(r.det)), []float64{loss})
	})
}

// TestAdapterStepSameOnEveryBackend runs one triggered Adapter.Step from
// the same fixture on every backend: the loss, every token bank and the
// exported adapter state (AdamW moments, trackers, row norms) carry the
// scalar backend's bits.
func TestAdapterStepSameOnEveryBackend(t *testing.T) {
	var states [][]byte // scalar's first
	onEveryBackend(t, func() [][]float64 {
		_, a, mon := adaptFixture(t, 62)
		rep, err := a.Step(mon)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Triggered {
			t.Fatal("fixture did not trigger adaptation")
		}
		// The exported state is the checkpoint wire form, which writes
		// every float as its bit pattern.
		state, err := json.Marshal(a.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, state)
		return append(dataOf(tokenBankState(a.det)), []float64{float64(rep.Loss)})
	})
	for i, state := range states[1:] {
		if !bytes.Equal(state, states[0]) {
			t.Fatalf("backend run %d: adapter state (moments, trackers, row norms) differs from scalar's", i+1)
		}
	}
}
