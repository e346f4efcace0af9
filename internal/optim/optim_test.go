package optim

import (
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// quadratic builds loss = sum((p - target)^2) for a parameter vector.
func quadratic(p *autograd.Value, target *tensor.Tensor) *autograd.Value {
	diff := autograd.Sub(p, autograd.Constant(target))
	return autograd.Sum(autograd.Mul(diff, diff))
}

func TestAdamWConvergesOnQuadratic(t *testing.T) {
	p := autograd.Param(tensor.FromSlice([]float64{5, -3, 2}, 3))
	target := tensor.FromSlice([]float64{1, 1, 1}, 3)
	cfg := AdamWConfig{LR: 0.05, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8} // no weight decay: pure optimization test
	opt := NewAdamW([]*autograd.Value{p}, cfg)
	for i := 0; i < 800; i++ {
		opt.ZeroGrad()
		loss := quadratic(p, target)
		loss.Backward()
		opt.Step()
	}
	final := quadratic(p, target).Scalar()
	if final > 1e-4 {
		t.Errorf("AdamW failed to converge: loss %v", final)
	}
	if opt.StepCount() != 800 {
		t.Errorf("StepCount = %d", opt.StepCount())
	}
}

func TestAdamWWeightDecayShrinksParams(t *testing.T) {
	// With zero gradient signal, decoupled decay must shrink weights.
	p := autograd.Param(tensor.FromSlice([]float64{10}, 1))
	cfg := AdamWConfig{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.5}
	opt := NewAdamW([]*autograd.Value{p}, cfg)
	for i := 0; i < 50; i++ {
		opt.ZeroGrad()
		// Zero-valued but present gradient.
		p.Grad = tensor.New(1)
		opt.Step()
	}
	if got := p.Data.Data()[0]; got >= 10 || got < 0 {
		t.Errorf("weight decay did not shrink parameter: %v", got)
	}
}

func TestAdamWSkipsFrozenAndNilGrad(t *testing.T) {
	p := autograd.Param(tensor.FromSlice([]float64{1}, 1))
	q := autograd.Param(tensor.FromSlice([]float64{1}, 1))
	opt := NewAdamW([]*autograd.Value{p, q}, AdamWConfig{LR: 1e-5, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 1})
	p.SetRequiresGrad(false)
	p.Grad = tensor.Ones(1)
	// q has nil grad.
	opt.Step()
	if p.Data.Data()[0] != 1 || q.Data.Data()[0] != 1 {
		t.Error("frozen or nil-grad parameter was updated")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := autograd.Param(tensor.New(2))
	p.Grad = tensor.FromSlice([]float64{3, 4}, 2)
	norm := ClipGradNorm([]*autograd.Value{p}, 1.0)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v, want 5", norm)
	}
	if got := tensor.Norm2(p.Grad); math.Abs(got-1) > 1e-12 {
		t.Errorf("post-clip norm = %v, want 1", got)
	}
	// Below the threshold: untouched.
	p.Grad = tensor.FromSlice([]float64{0.3, 0.4}, 2)
	ClipGradNorm([]*autograd.Value{p}, 1.0)
	if got := tensor.Norm2(p.Grad); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("small grad was rescaled: %v", got)
	}
}

// AdamW's per-coordinate scaling must make progress on an ill-conditioned
// quadratic whose curvatures span four orders of magnitude.
func TestAdamWOnIllConditionedQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := autograd.Param(tensor.RandN(rng, 1, 4))
	illLoss := func() *autograd.Value {
		diff := autograd.Sub(p, autograd.Constant(tensor.New(4)))
		scales := autograd.Constant(tensor.FromSlice([]float64{100, 1, 0.01, 10}, 4))
		return autograd.Sum(autograd.Mul(autograd.Mul(diff, diff), scales))
	}
	cfg := AdamWConfig{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	opt := NewAdamW([]*autograd.Value{p}, cfg)
	for i := 0; i < 400; i++ {
		opt.ZeroGrad()
		illLoss().Backward()
		opt.Step()
	}
	if adamLoss := illLoss().Scalar(); adamLoss > 1 {
		t.Errorf("AdamW loss too high on ill-conditioned quadratic: %v", adamLoss)
	}
}
