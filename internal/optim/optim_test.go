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
	cfg := DefaultAdamWConfig()
	cfg.LR = 0.05
	cfg.WeightDecay = 0 // pure optimization test
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
	cfg := DefaultAdamWConfig()
	cfg.LR = 0.1
	cfg.WeightDecay = 0.5
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
	opt := NewAdamW([]*autograd.Value{p, q}, DefaultAdamWConfig())
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
	if got := GradNorm([]*autograd.Value{p}); math.Abs(got-1) > 1e-12 {
		t.Errorf("post-clip norm = %v, want 1", got)
	}
	// Below the threshold: untouched.
	p.Grad = tensor.FromSlice([]float64{0.3, 0.4}, 2)
	ClipGradNorm([]*autograd.Value{p}, 1.0)
	if got := GradNorm([]*autograd.Value{p}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("small grad was rescaled: %v", got)
	}
}

func TestExponentialDecaySchedule(t *testing.T) {
	s := ExponentialDecay{Rate: 0.9999}
	if s.Factor(0) != 1 {
		t.Errorf("Factor(0) = %v", s.Factor(0))
	}
	if got, want := s.Factor(10000), math.Pow(0.9999, 10000); math.Abs(got-want) > 1e-12 {
		t.Errorf("Factor(10000) = %v, want %v", got, want)
	}
}

func TestCosineAnnealingSchedule(t *testing.T) {
	s := CosineAnnealing{TotalSteps: 100, MinFactor: 0.1}
	if got := s.Factor(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Factor(0) = %v", got)
	}
	if got := s.Factor(100); got != 0.1 {
		t.Errorf("Factor(100) = %v", got)
	}
	mid := s.Factor(50)
	if math.Abs(mid-0.55) > 1e-9 {
		t.Errorf("Factor(50) = %v, want 0.55", mid)
	}
	// Monotone non-increasing over the horizon.
	prev := 2.0
	for i := 0; i <= 100; i++ {
		f := s.Factor(i)
		if f > prev+1e-12 {
			t.Fatalf("cosine schedule increased at step %d", i)
		}
		prev = f
	}
}

func TestWarmupWrap(t *testing.T) {
	s := WarmupWrap{WarmupSteps: 10, Inner: ConstantSchedule{}}
	if got := s.Factor(0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Factor(0) = %v, want 0.1", got)
	}
	if got := s.Factor(9); math.Abs(got-1) > 1e-12 {
		t.Errorf("Factor(9) = %v, want 1", got)
	}
	if got := s.Factor(50); got != 1 {
		t.Errorf("Factor(50) = %v", got)
	}
	// nil inner defaults to constant.
	s2 := WarmupWrap{WarmupSteps: 0}
	if s2.Factor(5) != 1 {
		t.Error("nil inner should behave as constant")
	}
}

func TestScheduledOptimizerAppliesFactor(t *testing.T) {
	p := autograd.Param(tensor.FromSlice([]float64{1}, 1))
	cfg := DefaultAdamWConfig()
	cfg.LR = 1.0
	adam := NewAdamW([]*autograd.Value{p}, cfg)
	sch := NewScheduled(adam, ExponentialDecay{Rate: 0.5})
	// Step 0: lr 1.0, step 1: lr 0.5.
	for step, want := range []float64{1.0, 0.5} {
		p.Grad = tensor.Ones(1)
		sch.Step()
		if got := adam.LR(); got != want {
			t.Errorf("step %d ran at lr %v, want %v", step, got, want)
		}
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
	cfg := DefaultAdamWConfig()
	cfg.LR = 0.01
	cfg.WeightDecay = 0
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
