package nn

import (
	"math/rand"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b, the dense sub-layer φ_l of
// eq. (1) and the decision head of eq. (5).
type Linear struct {
	W *autograd.Value // (in × out)
	B *autograd.Value // (out)
}

// NewLinear returns a Linear layer with Glorot-uniform weights and zero
// bias drawn from rng.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		W: autograd.Param(tensor.GlorotUniform(rng, in, out)),
		B: autograd.Param(tensor.New(out)),
	}
}

// Forward applies the layer to a (batch × in) input as one fused
// matmul+bias graph node.
func (l *Linear) Forward(x *autograd.Value) *autograd.Value {
	return autograd.Affine(x, l.W, l.B)
}

// LinearEval is the eval-only form of a Linear layer at width T: views of
// the live weight tensors at float64, copies narrowed once at float32.
// The eval forms (LinearEval, LayerNormEval, AttentionEval, EncoderEval)
// carry no tape and are what the scoring engine runs, each forward lending
// its outputs from the workspace it takes first; their owners
// (temporal.Model, gnn layers, decision.Head) cache them per width and
// drop them whenever the model returns to training mode.
type LinearEval[T tensor.Float] struct {
	W *tensor.Dense[T] // (in × out)
	B []T              // (out)
}

// EvalLinear returns l's eval form at width T.
func EvalLinear[T tensor.Float](l *Linear) LinearEval[T] {
	return LinearEval[T]{W: tensor.Narrow[T](l.W.Data), B: tensor.Narrow[T](l.B.Data).Data()}
}

// Forward applies y = x·W + b to a (batch × in) input.
func (l LinearEval[T]) Forward(ws *tensor.Workspace, x *tensor.Dense[T]) *tensor.Dense[T] {
	return autograd.AffineFwd(ws, x, l.W, l.B)
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []Param {
	return []Param{{Name: "w", V: l.W}, {Name: "b", V: l.B}}
}
