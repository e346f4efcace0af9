package decision

import (
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

func TestHeadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, err := NewHead(rng, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := autograd.Constant(tensor.RandN(rng, 1, 3, 6))
	logits := h.Logits(x)
	if logits.Data.Rows() != 3 || logits.Data.Cols() != 4 {
		t.Errorf("logits shape %v", logits.Shape())
	}
	probs := h.Probs(x)
	for i := 0; i < 3; i++ {
		sum := 0.0
		for j := 0; j < 4; j++ {
			sum += probs.Data.At2(i, j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d probs sum %v", i, sum)
		}
	}
	if h.NumClasses() != 4 {
		t.Errorf("classes = %d", h.NumClasses())
	}
}

func TestHeadValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewHead(rng, 6, 1); err == nil {
		t.Error("single-class head accepted")
	}
}

func TestAnomalyScores(t *testing.T) {
	probs := tensor.FromSlice([]float64{0.9, 0.1, 0.25, 0.75}, 2, 2)
	got := AnomalyScores(probs)
	if math.Abs(got[0]-0.1) > 1e-12 || math.Abs(got[1]-0.75) > 1e-12 {
		t.Errorf("scores = %v", got)
	}
}

func TestLossDecreasesWithCorrectness(t *testing.T) {
	// Logits strongly favouring the labels must yield lower loss than
	// uniform logits.
	labels := []int{0, 1, 2}
	good := tensor.New(3, 3)
	for i, y := range labels {
		good.Set2(i, y, 8)
	}
	uniform := tensor.New(3, 3)
	cfg := DefaultLossConfig()
	lGood := Loss(autograd.Constant(good), labels, cfg, true).Scalar()
	lUniform := Loss(autograd.Constant(uniform), labels, cfg, true).Scalar()
	if lGood >= lUniform {
		t.Errorf("good loss %v not below uniform loss %v", lGood, lUniform)
	}
}

func TestLossRegularizersContribute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := autograd.Constant(tensor.RandN(rng, 1, 5, 3))
	labels := []int{0, 1, 0, 2, 0}
	base := Loss(logits, labels, LossConfig{}, true).Scalar()
	withSpa := Loss(logits, labels, LossConfig{LambdaSpa: 10}, true).Scalar()
	withSmt := Loss(logits, labels, LossConfig{LambdaSmt: 10}, true).Scalar()
	if withSpa <= base {
		t.Error("sparsity term did not increase loss")
	}
	if withSmt <= base {
		t.Error("smoothness term did not increase loss")
	}
	// smooth=false disables the smoothness term.
	noSmt := Loss(logits, labels, LossConfig{LambdaSmt: 10}, false).Scalar()
	if math.Abs(noSmt-base) > 1e-12 {
		t.Error("smooth=false still applied smoothness")
	}
}

func TestLossGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := autograd.Param(tensor.RandN(rng, 1, 4, 3))
	labels := []int{0, 2, 1, 0}
	cfg := LossConfig{LambdaSpa: 0.05, LambdaSmt: 0.05}
	f := func() *autograd.Value { return Loss(logits, labels, cfg, true) }
	if err := autograd.GradCheck(f, []*autograd.Value{logits}, 1e-6, 1e-5); err != nil {
		t.Error(err)
	}
}

func TestDefaultLossConfigMatchesPaper(t *testing.T) {
	cfg := DefaultLossConfig()
	if cfg.LambdaSpa != 0.001 || cfg.LambdaSmt != 0.001 {
		t.Errorf("λ values %v/%v, paper uses 0.001/0.001", cfg.LambdaSpa, cfg.LambdaSmt)
	}
}
