package temporal

import (
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

func smallConfig() Config {
	return Config{InputDim: 6, InnerDim: 16, Heads: 2, Window: 4}
}

func TestForwardSeqShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := New(rng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := autograd.Constant(tensor.RandN(rng, 1, 4, 6))
	out := m.ForwardSeq(seq)
	if out.Data.Rows() != 1 || out.Data.Cols() != 6 {
		t.Errorf("output shape %v, want (1,6)", out.Shape())
	}
}

func TestForwardBatchMatchesSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := New(rng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	w1 := tensor.RandN(rng, 1, 4, 6)
	w2 := tensor.RandN(rng, 1, 4, 6)
	batch := tensor.ConcatRows(w1, w2)
	ob := m.ForwardBatch(autograd.Constant(batch), 2)
	o1 := m.ForwardSeq(autograd.Constant(w1))
	o2 := m.ForwardSeq(autograd.Constant(w2))
	if !tensor.AllClose(tensor.SliceRows(ob.Data, 0, 1), o1.Data, 1e-10) {
		t.Error("batch row 0 mismatch")
	}
	if !tensor.AllClose(tensor.SliceRows(ob.Data, 1, 2), o2.Data, 1e-10) {
		t.Error("batch row 1 mismatch")
	}
}

func TestLastFrameSensitivity(t *testing.T) {
	// The output corresponds to the last input; changing the last frame
	// must change the output.
	rng := rand.New(rand.NewSource(3))
	m, err := New(rng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	w1 := tensor.RandN(rng, 1, 4, 6)
	w2 := w1.Clone()
	for j := 0; j < 6; j++ {
		w2.Set2(3, j, w2.At2(3, j)+1)
	}
	o1 := m.ForwardSeq(autograd.Constant(w1))
	o2 := m.ForwardSeq(autograd.Constant(w2))
	if tensor.AllClose(o1.Data, o2.Data, 1e-9) {
		t.Error("last-frame change did not affect output")
	}
}

func TestContextSensitivity(t *testing.T) {
	// Full attention: earlier frames influence the last-position output.
	rng := rand.New(rand.NewSource(4))
	m, err := New(rng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	w1 := tensor.RandN(rng, 1, 4, 6)
	w2 := w1.Clone()
	for j := 0; j < 6; j++ {
		w2.Set2(0, j, w2.At2(0, j)+1)
	}
	o1 := m.ForwardSeq(autograd.Constant(w1))
	o2 := m.ForwardSeq(autograd.Constant(w2))
	if tensor.AllClose(o1.Data, o2.Data, 1e-9) {
		t.Error("temporal context ignored")
	}
}

func TestGradCheckThroughTemporal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := New(rng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	seq := autograd.Param(tensor.RandN(rng, 0.5, 4, 6))
	f := func() *autograd.Value { return autograd.Mean(m.ForwardSeq(seq)) }
	if err := autograd.GradCheck(f, []*autograd.Value{seq}, 1e-6, 1e-4); err != nil {
		t.Error(err)
	}
}

func TestSequenceLengthValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, err := New(rng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong window length")
		}
	}()
	m.ForwardSeq(autograd.Constant(tensor.New(3, 6)))
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bad := []Config{
		{InputDim: 0, InnerDim: 16, Heads: 2, Window: 4},
		{InputDim: 6, InnerDim: 15, Heads: 2, Window: 4}, // not divisible
		{InputDim: 6, InnerDim: 16, Heads: 2, Window: 0},
	}
	for i, cfg := range bad {
		if _, err := New(rng, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestParamsNamedUniquely(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := New(rng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range m.Params() {
		if seen[p.Name] {
			t.Errorf("duplicate param %q", p.Name)
		}
		seen[p.Name] = true
	}
	if len(seen) == 0 {
		t.Error("no parameters")
	}
}
