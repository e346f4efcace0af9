// Package temporal implements the transformer-based short-term temporal
// model T : R^{T×D} → R^D of Sec. III-C: one pre-norm transformer encoder
// block over the last T frame reasoning embeddings, returning the output at
// the final position. The paper uses an inner dimensionality of 128 with 8
// attention heads; both are configurable.
package temporal

import (
	"fmt"
	"math/rand"

	"edgekg/internal/autograd"
	"edgekg/internal/nn"
	"edgekg/internal/tensor"
)

// Config sizes the temporal model.
type Config struct {
	// InputDim is D, the concatenated multi-KG reasoning embedding width.
	InputDim int
	// InnerDim is the transformer model dimension (paper: 128).
	InnerDim int
	// Heads is the attention head count (paper: 8). The encoder block's
	// feed-forward has width 4×InnerDim.
	Heads int
	// Window is T, the number of consecutive frame embeddings attended to.
	Window int
}

// Model is the short-term temporal transformer.
type Model struct {
	cfg    Config
	inProj *nn.Linear
	block  *nn.EncoderLayer
	norm   *nn.LayerNorm
	out    *nn.Linear
	pos    *tensor.Tensor

	// eval caches the eval form of the whole model per width, built
	// lazily on the first eval forward at that width and dropped
	// whenever the model returns to training mode (weights may change).
	// Clones are not taken of temporal models — serving shares one frozen
	// instance — so one snapshot per width serves every stream.
	eval tensor.WidthCache
}

// evalModel is the eval form of the temporal model at width T, the
// positional table included. Immutable after construction.
type evalModel[T tensor.Float] struct {
	inProj nn.LinearEval[T]
	block  nn.EncoderEval[T]
	norm   nn.LayerNormEval[T]
	out    nn.LinearEval[T]
	pos    *tensor.Dense[T]
}

func evalOf[T tensor.Float](m *Model) *evalModel[T] {
	if s := tensor.Cached[T, evalModel[T]](&m.eval); s != nil {
		return s
	}
	return tensor.Publish[T](&m.eval, &evalModel[T]{
		inProj: nn.EvalLinear[T](m.inProj),
		block:  nn.EvalEncoder[T](m.block),
		norm:   nn.EvalLayerNorm[T](m.norm),
		out:    nn.EvalLinear[T](m.out),
		pos:    tensor.Narrow[T](m.pos),
	})
}

// New builds a temporal model.
func New(rng *rand.Rand, cfg Config) (*Model, error) {
	if cfg.InputDim < 1 || cfg.InnerDim < 1 || cfg.Window < 1 {
		return nil, fmt.Errorf("temporal: invalid config %+v", cfg)
	}
	if cfg.Heads < 1 || cfg.InnerDim%cfg.Heads != 0 {
		return nil, fmt.Errorf("temporal: inner dim %d not divisible by %d heads", cfg.InnerDim, cfg.Heads)
	}
	return &Model{
		cfg:    cfg,
		inProj: nn.NewLinear(rng, cfg.InputDim, cfg.InnerDim),
		norm:   nn.NewLayerNorm(cfg.InnerDim),
		out:    nn.NewLinear(rng, cfg.InnerDim, cfg.InputDim),
		pos:    nn.PositionalEncoding(cfg.Window, cfg.InnerDim),
		// Drawn last: a seed's weights depend on the draw order.
		block: nn.NewEncoderLayer(rng, cfg.InnerDim, cfg.Heads, 4*cfg.InnerDim),
	}, nil
}

// Window returns T, the model's attention window length.
func (m *Model) Window() int { return m.cfg.Window }

// InputDim returns D.
func (m *Model) InputDim() int { return m.cfg.InputDim }

// ForwardSeq processes one (T × D) window of frame embeddings and returns
// the (1 × D) output at the last position — f′_t = T(F_t).
func (m *Model) ForwardSeq(seq *autograd.Value) *autograd.Value {
	t := seq.Data.Rows()
	if t != m.cfg.Window {
		panic(fmt.Sprintf("temporal: sequence length %d != window %d", t, m.cfg.Window))
	}
	if seq.Data.Cols() != m.cfg.InputDim {
		panic(fmt.Sprintf("temporal: input dim %d != %d", seq.Data.Cols(), m.cfg.InputDim))
	}
	h := autograd.Add(m.inProj.Forward(seq), autograd.Constant(m.pos))
	h = m.norm.Forward(m.block.Forward(h))
	return m.out.Forward(autograd.SliceRows(h, t-1, t))
}

// ForwardBatch processes a batch of windows stacked row-wise as a
// (batch*T × D) matrix and returns the (batch × D) last-position outputs.
//
// The whole batch runs through one tape: a single input projection over
// the stacked matrix, one AddTiled node for the positional encoding, and
// the encoder block, which computes LN1, K and V over all batch·T rows and
// everything after them — Q, the attention context, Wo, the residuals, the
// feed-forward, the final norm and out — over the batch last rows only,
// the ones the loss reads; training and adaptation backpropagate through
// nothing else. Its BatchedAttention core is block-diagonal over windows,
// so window k never attends into window j. Row k equals ForwardSeq applied
// to window k alone — pinned by the equivalence and isolation tests — while
// the tape cost is O(1) nodes instead of O(batch).
func (m *Model) ForwardBatch(windows *autograd.Value, batch int) *autograd.Value {
	m.checkBatch(windows.Data.Rows(), windows.Data.Cols(), m.cfg.InputDim, batch)
	h := autograd.AddTiled(m.inProj.Forward(windows), m.pos)
	return m.out.Forward(m.norm.Forward(m.block.ForwardLast(h, batch)))
}

// checkBatch validates a (rows × cols) stacked-window matrix against the
// model's window and the width its rows must have.
func (m *Model) checkBatch(rows, cols, width, batch int) {
	if batch < 1 {
		panic(fmt.Sprintf("temporal: batch %d must be ≥ 1", batch))
	}
	if rows != batch*m.cfg.Window {
		panic(fmt.Sprintf("temporal: batch matrix has %d rows, want %d (batch %d × window %d)",
			rows, batch*m.cfg.Window, batch, m.cfg.Window))
	}
	if cols != width {
		panic(fmt.Sprintf("temporal: input dim %d != %d", cols, width))
	}
}

// ProjectEval is the eval forward's input projection at width T: it maps
// frame embeddings (rows × D) to (rows × InnerDim). The projection is
// row-wise and the positional add comes after it, so projecting each
// frame once and gathering windows of projected rows for WindowsEval
// gives the bits of ForwardBatch, which projects every window row.
func ProjectEval[T tensor.Float](ws *tensor.Workspace, m *Model, emb *tensor.Dense[T]) *tensor.Dense[T] {
	if emb.Cols() != m.cfg.InputDim {
		panic(fmt.Sprintf("temporal: input dim %d != %d", emb.Cols(), m.cfg.InputDim))
	}
	return evalOf[T](m).inProj.Forward(ws, emb)
}

// WindowsEval is the rest of ForwardBatch without the tape, at width T,
// over windows of ProjectEval rows stacked row-wise (batch*T × InnerDim):
// it adds the positions into rows in place, then runs the block past its
// K/V over the batch last rows only, the final norm and out. It is the
// temporal stage of Detector.ScoreVideo, and the model must be in
// inference mode. At float64 it returns ForwardBatch's bits, and with
// ProjectEval run once per frame it bills ForwardBatch's count less T−1
// in-projections per window.
func WindowsEval[T tensor.Float](ws *tensor.Workspace, m *Model, rows *tensor.Dense[T], batch int) *tensor.Dense[T] {
	m.checkBatch(rows.Rows(), rows.Cols(), m.cfg.InnerDim, batch)
	s := evalOf[T](m)
	autograd.AddTiledInPlace(rows, s.pos)
	return s.out.Forward(ws, s.norm.Forward(ws, s.block.ForwardLast(ws, rows, batch)))
}

// SetTraining has no mode to switch — nothing behaves differently in
// training — but entering training mode drops the eval snapshots: the
// weights are about to change, and the next eval forward rebuilds them
// from the post-training values.
func (m *Model) SetTraining(t bool) {
	if t {
		m.eval.Drop()
	}
}

// Params returns the model's trainable parameters, named by layer.
func (m *Model) Params() []nn.Param {
	var ps []nn.Param
	ps = append(ps, nn.Prefix("inproj", m.inProj.Params())...)
	// The block's parameters keep their "block0." names.
	ps = append(ps, nn.Prefix("block0", m.block.Params())...)
	ps = append(ps, nn.Prefix("norm", m.norm.Params())...)
	ps = append(ps, nn.Prefix("out", m.out.Params())...)
	return ps
}
