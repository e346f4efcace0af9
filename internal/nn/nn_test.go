package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	x := autograd.Constant(tensor.RandN(rng, 1, 5, 4))
	y := l.Forward(x)
	if y.Data.Rows() != 5 || y.Data.Cols() != 3 {
		t.Fatalf("shape = %v", y.Shape())
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 3, 2)
	x := autograd.Param(tensor.RandN(rng, 1, 4, 3))
	f := func() *autograd.Value { return autograd.Sum(l.Forward(x)) }
	inputs := append(Values(l.Params()), x)
	if err := autograd.GradCheck(f, inputs, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestBatchNormTrainEvalModes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn := NewBatchNorm1d(3)
	if !bn.Training() {
		t.Fatal("new BatchNorm must start in training mode")
	}
	// Feed many batches with mean 5, var 4 so running stats converge.
	for i := 0; i < 200; i++ {
		x := autograd.Constant(tensor.Add(tensor.RandN(rng, 2, 32, 3), tensor.Full(5, 32, 3)))
		bn.Forward(x)
	}
	for j := 0; j < 3; j++ {
		if math.Abs(bn.RunningMean.Data()[j]-5) > 0.2 {
			t.Errorf("running mean[%d] = %v, want ≈5", j, bn.RunningMean.Data()[j])
		}
		if math.Abs(bn.RunningVar.Data()[j]-4) > 0.6 {
			t.Errorf("running var[%d] = %v, want ≈4", j, bn.RunningVar.Data()[j])
		}
	}
	// Eval mode: a constant input must map deterministically via running stats.
	bn.SetTraining(false)
	x := autograd.Constant(tensor.Full(5, 4, 3))
	y := bn.Forward(x)
	for _, v := range y.Data.Data() {
		if math.Abs(v) > 0.2 {
			t.Errorf("eval output %v, want ≈0 (input at running mean)", v)
		}
	}
}

func TestBatchNormEvalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm1d(2)
	bn.SetTraining(false)
	x := autograd.Constant(tensor.RandN(rng, 1, 3, 2))
	y1 := bn.Forward(x)
	y2 := bn.Forward(x)
	if !tensor.AllClose(y1.Data, y2.Data, 0) {
		t.Error("eval forward must be deterministic")
	}
}

func TestLayerNormRowStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ln := NewLayerNorm(8)
	x := autograd.Constant(tensor.RandN(rng, 3, 4, 8))
	y := ln.Forward(x)
	for i := 0; i < 4; i++ {
		row := y.Data.Row(i)
		mu, va := 0.0, 0.0
		for _, v := range row {
			mu += v
		}
		mu /= 8
		for _, v := range row {
			va += (v - mu) * (v - mu)
		}
		va /= 8
		if math.Abs(mu) > 1e-9 || math.Abs(va-1) > 1e-3 {
			t.Errorf("row %d mean %v var %v", i, mu, va)
		}
	}
}

func TestMultiHeadAttentionShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	attn := NewMultiHeadAttention(rng, 8, 2)
	x := autograd.Param(tensor.RandN(rng, 0.5, 5, 8))
	y := attn.Forward(x)
	if y.Data.Rows() != 5 || y.Data.Cols() != 8 {
		t.Fatalf("attention output shape %v", y.Shape())
	}
	f := func() *autograd.Value { return autograd.Mean(attn.Forward(x)) }
	if err := autograd.GradCheck(f, []*autograd.Value{x}, 1e-6, 1e-4); err != nil {
		t.Error(err)
	}
}

func TestAttentionDimValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dim % heads != 0")
		}
	}()
	NewMultiHeadAttention(rng, 10, 3)
}

func TestEncoderLayerForwardAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	enc := NewEncoderLayer(rng, 8, 2, 16)
	x := autograd.Constant(tensor.RandN(rng, 1, 6, 8))
	y := enc.Forward(x)
	if y.Data.Rows() != 6 || y.Data.Cols() != 8 {
		t.Fatalf("encoder output shape %v", y.Shape())
	}
	names := map[string]bool{}
	for _, p := range enc.Params() {
		if names[p.Name] {
			t.Errorf("duplicate param name %s", p.Name)
		}
		names[p.Name] = true
	}
	if len(names) != 16 { // attn 8 + 2 LN×2 + 2 FF×2
		t.Errorf("param count = %d, want 16", len(names))
	}
}

func TestPositionalEncodingProperties(t *testing.T) {
	pe := PositionalEncoding(10, 8)
	if pe.Rows() != 10 || pe.Cols() != 8 {
		t.Fatalf("shape %v", pe.Shape())
	}
	// Position 0: sin(0)=0, cos(0)=1 alternating.
	for j := 0; j < 8; j++ {
		want := 0.0
		if j%2 == 1 {
			want = 1
		}
		if math.Abs(pe.At2(0, j)-want) > 1e-12 {
			t.Errorf("pe[0][%d] = %v, want %v", j, pe.At2(0, j), want)
		}
	}
	// All values bounded by 1.
	for _, v := range pe.Data() {
		if v < -1 || v > 1 {
			t.Fatalf("positional encoding out of range: %v", v)
		}
	}
}

func TestFreezeUnfreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLinear(rng, 2, 2)
	Freeze(l.Params())
	x := autograd.Param(tensor.RandN(rng, 1, 1, 2))
	y := autograd.Sum(l.Forward(x))
	y.Backward()
	if l.W.Grad != nil || l.B.Grad != nil {
		t.Error("frozen params accumulated gradient")
	}
	if x.Grad == nil {
		t.Error("gradient must still flow through frozen layer")
	}
	Unfreeze(l.Params())
	y2 := autograd.Sum(l.Forward(x))
	y2.Backward()
	if l.W.Grad == nil {
		t.Error("unfrozen params got no gradient")
	}
}
