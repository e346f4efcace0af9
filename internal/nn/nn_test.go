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
		x := autograd.Constant(tensor.AddScalar(tensor.RandN(rng, 2, 32, 3), 5))
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

func TestDropoutModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout(rng, 0.5)
	x := autograd.Constant(tensor.Ones(100, 10))
	y := d.Forward(x)
	zeros := 0
	for _, v := range y.Data.Data() {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("surviving value %v, want 2 (inverted dropout)", v)
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Errorf("dropped %d of 1000, want ≈500", zeros)
	}
	d.SetTraining(false)
	if d.Forward(x) != x {
		t.Error("eval-mode dropout must be identity")
	}
}

func TestMultiHeadAttentionShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	attn := NewMultiHeadAttention(rng, 8, 2, false)
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

func TestCausalMaskBlocksFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	attn := NewMultiHeadAttention(rng, 4, 1, true)
	// Two inputs identical except for the last position: causal attention
	// output at position 0 must be identical.
	x1 := tensor.RandN(rng, 1, 3, 4)
	x2 := x1.Clone()
	for j := 0; j < 4; j++ {
		x2.Set2(2, j, x2.At2(2, j)+5)
	}
	y1 := attn.Forward(autograd.Constant(x1))
	y2 := attn.Forward(autograd.Constant(x2))
	for j := 0; j < 4; j++ {
		if math.Abs(y1.Data.At2(0, j)-y2.Data.At2(0, j)) > 1e-12 {
			t.Fatalf("causal mask leaked future information at pos 0")
		}
	}
	// Non-causal attention must differ at position 0.
	attn2 := NewMultiHeadAttention(rng, 4, 1, false)
	y3 := attn2.Forward(autograd.Constant(x1))
	y4 := attn2.Forward(autograd.Constant(x2))
	diff := 0.0
	for j := 0; j < 4; j++ {
		diff += math.Abs(y3.Data.At2(0, j) - y4.Data.At2(0, j))
	}
	if diff < 1e-9 {
		t.Error("full attention should propagate future changes to pos 0")
	}
}

func TestAttentionDimValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dim % heads != 0")
		}
	}()
	NewMultiHeadAttention(rng, 10, 3, false)
}

func TestEncoderLayerForwardAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	enc := NewEncoderLayer(rng, 8, 2, 16, 0, false)
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
	Freeze(l)
	x := autograd.Param(tensor.RandN(rng, 1, 1, 2))
	y := autograd.Sum(l.Forward(x))
	y.Backward()
	if l.W.Grad != nil || l.B.Grad != nil {
		t.Error("frozen params accumulated gradient")
	}
	if x.Grad == nil {
		t.Error("gradient must still flow through frozen layer")
	}
	Unfreeze(l)
	y2 := autograd.Sum(l.Forward(x))
	y2.Backward()
	if l.W.Grad == nil {
		t.Error("unfrozen params got no gradient")
	}
}
