package nn

import (
	"fmt"
	"math"
	"math/rand"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product self-attention over a
// single sequence matrix (T × dim). The short-term temporal model of
// Sec. III-C uses 8 heads over an inner dimensionality of 128.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear

	heads, dk int
}

// NewMultiHeadAttention returns self-attention with the given model
// dimension and head count; dim must be divisible by heads. Every position
// attends to the whole sequence.
func NewMultiHeadAttention(rng *rand.Rand, dim, heads int) *MultiHeadAttention {
	if heads <= 0 || dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Wq:    NewLinear(rng, dim, dim),
		Wk:    NewLinear(rng, dim, dim),
		Wv:    NewLinear(rng, dim, dim),
		Wo:    NewLinear(rng, dim, dim),
		heads: heads,
		dk:    dim / heads,
	}
}

// Forward applies self-attention to a (T × dim) sequence. This per-head
// composed-op path is the sequential reference model the fused last-row
// path (ForwardLast) is pinned against by the equivalence tests.
func (a *MultiHeadAttention) Forward(x *autograd.Value) *autograd.Value {
	q := a.Wq.Forward(x)
	k := a.Wk.Forward(x)
	v := a.Wv.Forward(x)
	outs := make([]*autograd.Value, a.heads)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.heads; h++ {
		lo, hi := h*a.dk, (h+1)*a.dk
		qh := autograd.SliceCols(q, lo, hi)
		kh := autograd.SliceCols(k, lo, hi)
		vh := autograd.SliceCols(v, lo, hi)
		scores := autograd.Scale(autograd.MatMulT2(qh, kh), scale)
		outs[h] = autograd.MatMul(autograd.SoftmaxRows(scores), vh)
	}
	return a.Wo.Forward(autograd.ConcatCols(outs...))
}

// ForwardLast applies self-attention independently to every T-row window
// of a (batch·T × dim) matrix and returns the last position of each: Q,
// the attention context and Wo run over the batch last rows of x, K and V
// over every row, and the attention core is one autograd.BatchedAttention
// node with one query per window. Row b of the (batch × dim) result equals
// row T−1 of Forward applied to window b alone, and x takes its three
// adjoints in the order attention over all rows gives them: V's, K's,
// then Q's through the row gather.
func (a *MultiHeadAttention) ForwardLast(x *autograd.Value, batch int) *autograd.Value {
	q := a.Wq.Forward(autograd.GatherLastRows(x, batch))
	k := a.Wk.Forward(x)
	v := a.Wv.Forward(x)
	scale := 1 / math.Sqrt(float64(a.dk))
	ctx := autograd.BatchedAttention(q, k, v, batch, a.heads, scale)
	return a.Wo.Forward(ctx)
}

// AttentionEval is the eval-only form of a MultiHeadAttention at width T.
type AttentionEval[T tensor.Float] struct {
	Wq, Wk, Wv, Wo LinearEval[T]
	heads, dk      int
}

// EvalAttention returns a's eval form at width T.
func EvalAttention[T tensor.Float](a *MultiHeadAttention) AttentionEval[T] {
	return AttentionEval[T]{
		Wq: EvalLinear[T](a.Wq), Wk: EvalLinear[T](a.Wk), Wv: EvalLinear[T](a.Wv), Wo: EvalLinear[T](a.Wo),
		heads: a.heads, dk: a.dk,
	}
}

// ForwardLast is MultiHeadAttention.ForwardLast without the tape.
func (a *AttentionEval[T]) ForwardLast(ws *tensor.Workspace, x *tensor.Dense[T], batch int) *tensor.Dense[T] {
	k := a.Wk.Forward(ws, x)
	v := a.Wv.Forward(ws, x)
	q := a.Wq.Forward(ws, autograd.LastRows(ws, x, batch))
	scale := T(1 / math.Sqrt(float64(a.dk)))
	ctx := autograd.BatchedAttentionFwd(ws, q, k, v, batch, a.heads, scale)
	return a.Wo.Forward(ws, ctx)
}

// Params returns the layer's trainable parameters.
func (a *MultiHeadAttention) Params() []Param {
	var ps []Param
	ps = append(ps, Prefix("wq", a.Wq.Params())...)
	ps = append(ps, Prefix("wk", a.Wk.Params())...)
	ps = append(ps, Prefix("wv", a.Wv.Params())...)
	ps = append(ps, Prefix("wo", a.Wo.Params())...)
	return ps
}

// EncoderLayer is one pre-norm transformer encoder block:
// x + MHA(LN(x)) followed by x + FFN(LN(x)).
type EncoderLayer struct {
	Attn *MultiHeadAttention
	LN1  *LayerNorm
	LN2  *LayerNorm
	FF1  *Linear
	FF2  *Linear
}

// NewEncoderLayer returns an encoder block with a GELU feed-forward of
// width ffDim.
func NewEncoderLayer(rng *rand.Rand, dim, heads, ffDim int) *EncoderLayer {
	return &EncoderLayer{
		Attn: NewMultiHeadAttention(rng, dim, heads),
		LN1:  NewLayerNorm(dim),
		LN2:  NewLayerNorm(dim),
		FF1:  NewLinear(rng, dim, ffDim),
		FF2:  NewLinear(rng, ffDim, dim),
	}
}

// Forward applies the block to a (T × dim) sequence.
func (e *EncoderLayer) Forward(x *autograd.Value) *autograd.Value {
	h := autograd.Add(x, e.Attn.Forward(e.LN1.Forward(x)))
	ff := e.FF2.Forward(autograd.GELU(e.FF1.Forward(e.LN2.Forward(h))))
	return autograd.Add(h, ff)
}

// ForwardLast applies the block to a batch of windows stacked as a
// (batch·T × dim) matrix in one tape pass and returns the last position of
// each: LN1, K and V run over every row of x, everything after them over
// the batch last rows. LayerNorm, the feed-forward and the residual adds
// are row-wise, so row b of the (batch × dim) result equals row T−1 of
// Forward applied to window b alone.
func (e *EncoderLayer) ForwardLast(x *autograd.Value, batch int) *autograd.Value {
	h := autograd.Add(autograd.GatherLastRows(x, batch), e.Attn.ForwardLast(e.LN1.Forward(x), batch))
	ff := e.FF2.Forward(autograd.GELU(e.FF1.Forward(e.LN2.Forward(h))))
	return autograd.Add(h, ff)
}

// EncoderEval is the eval-only form of an EncoderLayer at width T.
type EncoderEval[T tensor.Float] struct {
	Attn     AttentionEval[T]
	LN1, LN2 LayerNormEval[T]
	FF1, FF2 LinearEval[T]
}

// EvalEncoder returns e's eval form at width T.
func EvalEncoder[T tensor.Float](e *EncoderLayer) EncoderEval[T] {
	return EncoderEval[T]{
		Attn: EvalAttention[T](e.Attn),
		LN1:  EvalLayerNorm[T](e.LN1), LN2: EvalLayerNorm[T](e.LN2),
		FF1: EvalLinear[T](e.FF1), FF2: EvalLinear[T](e.FF2),
	}
}

// ForwardLast is EncoderLayer.ForwardLast without the tape. x is left
// unchanged.
func (e *EncoderEval[T]) ForwardLast(ws *tensor.Workspace, x *tensor.Dense[T], batch int) *tensor.Dense[T] {
	h := autograd.AddLastRowsInPlace(e.Attn.ForwardLast(ws, e.LN1.Forward(ws, x), batch), x)
	ff := e.FF1.Forward(ws, e.LN2.Forward(ws, h))
	tensor.GELUInPlace(ff)
	return tensor.AddInPlace(h, e.FF2.Forward(ws, ff))
}

// Params returns the layer's trainable parameters.
func (e *EncoderLayer) Params() []Param {
	var ps []Param
	ps = append(ps, Prefix("attn", e.Attn.Params())...)
	ps = append(ps, Prefix("ln1", e.LN1.Params())...)
	ps = append(ps, Prefix("ln2", e.LN2.Params())...)
	ps = append(ps, Prefix("ff1", e.FF1.Params())...)
	ps = append(ps, Prefix("ff2", e.FF2.Params())...)
	return ps
}

// PositionalEncoding returns the standard sinusoidal (T × dim) position
// table added to transformer inputs.
func PositionalEncoding(t, dim int) *tensor.Tensor {
	pe := tensor.New(t, dim)
	for pos := 0; pos < t; pos++ {
		row := pe.Row(pos)
		for i := 0; i < dim; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(dim))
			if i%2 == 0 {
				row[i] = math.Sin(angle)
			} else {
				row[i] = math.Cos(angle)
			}
		}
	}
	return pe
}
