// Package decision implements the decision model of eq. (5): a single
// linear layer plus softmax over n+1 classes (class 0 = normal, classes
// 1..n = anomaly types), together with the probability decompositions
// pN, pA and p(i|A) of Sec. III-C and the full decision loss (cross-
// entropy + λ_spa sparsity + λ_smt smoothness).
package decision

import (
	"fmt"
	"math/rand"

	"edgekg/internal/autograd"
	"edgekg/internal/nn"
	"edgekg/internal/tensor"
)

// Head is the linear+softmax decision model f_dec.
type Head struct {
	linear  *nn.Linear
	classes int

	// eval caches the linear layer's eval form per width for LogitsEval.
	eval tensor.WidthCache
}

// NewHead returns a decision head mapping D-dimensional temporal outputs
// to n+1 class logits.
func NewHead(rng *rand.Rand, inDim, numClasses int) (*Head, error) {
	if numClasses < 2 {
		return nil, fmt.Errorf("decision: need ≥2 classes (normal + ≥1 anomaly), got %d", numClasses)
	}
	return &Head{linear: nn.NewLinear(rng, inDim, numClasses), classes: numClasses}, nil
}

// NumClasses returns n+1.
func (h *Head) NumClasses() int { return h.classes }

// Logits returns the pre-softmax scores for a (batch × D) input.
func (h *Head) Logits(x *autograd.Value) *autograd.Value {
	return h.linear.Forward(x)
}

// LogitsEval is Logits without the tape, at width T — the decision stage
// of Detector.ScoreVideo.
func LogitsEval[T tensor.Float](ws *tensor.Workspace, h *Head, x *tensor.Dense[T]) *tensor.Dense[T] {
	s := tensor.Cached[T, nn.LinearEval[T]](&h.eval)
	if s == nil {
		l := nn.EvalLinear[T](h.linear)
		s = tensor.Publish[T](&h.eval, &l)
	}
	return s.Forward(ws, x)
}

// DropEval drops the cached eval forms; the next LogitsEval rebuilds them
// from the current weights. Called by the detector when the head's
// weights are about to change.
func (h *Head) DropEval() { h.eval.Drop() }

// Probs returns the softmax class probabilities s_t for a (batch × D)
// input.
func (h *Head) Probs(x *autograd.Value) *autograd.Value {
	return autograd.SoftmaxRows(h.Logits(x))
}

// Params returns the head's trainable parameters.
func (h *Head) Params() []nn.Param {
	return nn.Prefix("linear", h.linear.Params())
}

// AnomalyScores extracts pA per row from a probability tensor — the
// anomaly score the monitor tracks.
func AnomalyScores(probs *tensor.Tensor) []float64 {
	b := probs.Rows()
	out := make([]float64, b)
	for i := 0; i < b; i++ {
		out[i] = 1 - probs.At2(i, 0)
	}
	return out
}

// LossConfig carries the regulariser weights of Sec. IV-A.
type LossConfig struct {
	LambdaSpa float64 // sparsity weight on anomaly scores (paper: 0.001)
	LambdaSmt float64 // smoothness weight on consecutive scores (paper: 0.001)
}

// DefaultLossConfig returns the paper's λ values.
func DefaultLossConfig() LossConfig { return LossConfig{LambdaSpa: 0.001, LambdaSmt: 0.001} }

// Loss computes the decision loss on logits for integer labels:
// cross-entropy plus λ_spa·mean(pA) sparsity plus λ_smt smoothness over
// consecutive rows (rows are assumed temporally ordered; pass smooth=false
// for shuffled batches).
func Loss(logits *autograd.Value, labels []int, cfg LossConfig, smooth bool) *autograd.Value {
	loss := autograd.CrossEntropy(logits, labels)
	if cfg.LambdaSpa > 0 || (smooth && cfg.LambdaSmt > 0) {
		probs := autograd.SoftmaxRows(logits)
		pn := autograd.SliceCols(probs, 0, 1)
		pa := autograd.Sub(autograd.Constant(tensor.Ones(pn.Data.Shape()...)), pn)
		if cfg.LambdaSpa > 0 {
			loss = autograd.Add(loss, autograd.Scale(autograd.SparsityPenalty(pa), cfg.LambdaSpa))
		}
		if smooth && cfg.LambdaSmt > 0 {
			loss = autograd.Add(loss, autograd.Scale(autograd.SmoothnessPenalty(pa), cfg.LambdaSmt))
		}
	}
	return loss
}
