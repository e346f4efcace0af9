// Package temporal implements the transformer-based short-term temporal
// model T : R^{T×D} → R^D of Sec. III-C: a stack of encoder blocks over
// the last T frame reasoning embeddings, returning the output at the final
// position. The paper uses an inner dimensionality of 128 with 8 attention
// heads; both are configurable.
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
	// Heads is the attention head count (paper: 8).
	Heads int
	// Layers is the number of encoder blocks; each has a feed-forward of
	// width 4×InnerDim.
	Layers int
	// Window is T, the number of consecutive frame embeddings attended to.
	Window int
}

// DefaultConfig returns the paper's settings for a given input width.
func DefaultConfig(inputDim int) Config {
	return Config{InputDim: inputDim, InnerDim: 128, Heads: 8, Layers: 1, Window: 8}
}

// Model is the short-term temporal transformer.
type Model struct {
	cfg    Config
	inProj *nn.Linear
	blocks []*nn.EncoderLayer
	norm   *nn.LayerNorm
	out    *nn.Linear
	pos    *tensor.Tensor

	// eval caches the eval form of the whole stack per width, built
	// lazily on the first ForwardBatchEval at that width and dropped
	// whenever the model returns to training mode (weights may change).
	// Clones are not taken of temporal models — serving shares one frozen
	// instance — so one snapshot per width serves every stream.
	eval tensor.WidthCache
}

// evalModel is the eval form of the temporal stack at width T, the
// positional table included. Immutable after construction.
type evalModel[T tensor.Float] struct {
	inProj nn.LinearEval[T]
	blocks []nn.EncoderEval[T]
	norm   nn.LayerNormEval[T]
	out    nn.LinearEval[T]
	pos    *tensor.Dense[T]
}

func evalOf[T tensor.Float](m *Model) *evalModel[T] {
	if s := tensor.Cached[T, evalModel[T]](&m.eval); s != nil {
		return s
	}
	s := &evalModel[T]{
		inProj: nn.EvalLinear[T](m.inProj),
		norm:   nn.EvalLayerNorm[T](m.norm),
		out:    nn.EvalLinear[T](m.out),
		pos:    tensor.Narrow[T](m.pos),
	}
	for _, b := range m.blocks {
		s.blocks = append(s.blocks, nn.EvalEncoder[T](b))
	}
	return tensor.Publish[T](&m.eval, s)
}

// New builds a temporal model.
func New(rng *rand.Rand, cfg Config) (*Model, error) {
	if cfg.InputDim < 1 || cfg.InnerDim < 1 || cfg.Window < 1 {
		return nil, fmt.Errorf("temporal: invalid config %+v", cfg)
	}
	if cfg.Heads < 1 || cfg.InnerDim%cfg.Heads != 0 {
		return nil, fmt.Errorf("temporal: inner dim %d not divisible by %d heads", cfg.InnerDim, cfg.Heads)
	}
	if cfg.Layers < 1 {
		cfg.Layers = 1
	}
	m := &Model{
		cfg:    cfg,
		inProj: nn.NewLinear(rng, cfg.InputDim, cfg.InnerDim),
		norm:   nn.NewLayerNorm(cfg.InnerDim),
		out:    nn.NewLinear(rng, cfg.InnerDim, cfg.InputDim),
		pos:    nn.PositionalEncoding(cfg.Window, cfg.InnerDim),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.blocks = append(m.blocks, nn.NewEncoderLayer(rng, cfg.InnerDim, cfg.Heads, 4*cfg.InnerDim))
	}
	return m, nil
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
	h := m.inProj.Forward(seq)
	h = autograd.Add(h, autograd.Constant(m.pos))
	for _, b := range m.blocks {
		h = b.Forward(h)
	}
	h = m.norm.Forward(h)
	last := autograd.SliceRows(h, t-1, t)
	return m.out.Forward(last)
}

// ForwardBatch processes a batch of windows stacked row-wise as a
// (batch*T × D) matrix and returns the (batch × D) last-position outputs.
//
// The whole batch runs through one tape: a single input projection over
// the stacked matrix, one AddTiled node for the positional encoding, and
// every encoder block but the last over all batch·T rows (their
// BatchedAttention core is block-diagonal over windows, so window k never
// attends into window j). The final block computes LN1, K and V over all
// rows and everything after them — Q, the attention context, Wo, the
// residuals, the feed-forward, the final norm and out — over the batch
// last rows only, the ones the loss reads; training and adaptation
// backpropagate through nothing else. Row k equals ForwardSeq applied to
// window k alone — pinned by the equivalence and isolation tests — while
// the tape cost is O(depth) nodes instead of O(batch·depth).
func (m *Model) ForwardBatch(windows *autograd.Value, batch int) *autograd.Value {
	m.checkBatch(windows.Data.Rows(), windows.Data.Cols(), batch)
	h := m.inProj.Forward(windows)
	h = autograd.AddTiled(h, m.pos)
	final := len(m.blocks) - 1
	for _, b := range m.blocks[:final] {
		h = b.ForwardBatch(h, batch)
	}
	h = m.blocks[final].ForwardLast(h, batch)
	return m.out.Forward(m.norm.Forward(h))
}

// checkBatch validates a (rows × cols) stacked-window matrix against the
// model's window and input width.
func (m *Model) checkBatch(rows, cols, batch int) {
	if batch < 1 {
		panic(fmt.Sprintf("temporal: batch %d must be ≥ 1", batch))
	}
	if rows != batch*m.cfg.Window {
		panic(fmt.Sprintf("temporal: batch matrix has %d rows, want %d (batch %d × window %d)",
			rows, batch*m.cfg.Window, batch, m.cfg.Window))
	}
	if cols != m.cfg.InputDim {
		panic(fmt.Sprintf("temporal: input dim %d != %d", cols, m.cfg.InputDim))
	}
}

// ForwardBatchEval is ForwardBatch without the tape, at width T: the same
// shape — every block but the last over all batch·T rows, the final block
// past its K/V over the batch last rows only — so at float64 it returns
// ForwardBatch's bits and bills the same FLOPs at either width. It is the
// temporal stage of Detector.ScoreVideo; the model must be in inference
// mode.
func ForwardBatchEval[T tensor.Float](m *Model, windows *tensor.Dense[T], batch int) *tensor.Dense[T] {
	m.checkBatch(windows.Rows(), windows.Cols(), batch)
	s := evalOf[T](m)
	h := s.inProj.Forward(windows)
	autograd.AddTiledInPlace(h, s.pos)
	final := len(s.blocks) - 1
	for i := range s.blocks[:final] {
		h = s.blocks[i].ForwardBatch(h, batch)
	}
	h = s.blocks[final].ForwardLast(h, batch)
	return s.out.Forward(s.norm.Forward(h))
}

// SetTraining has no mode to switch — no block behaves differently in
// training — but entering training mode drops the eval snapshots: the
// weights are about to change, and the next eval forward rebuilds them
// from the post-training values.
func (m *Model) SetTraining(t bool) {
	if t {
		m.eval.Drop()
	}
}

// Params implements nn.Module.
func (m *Model) Params() []nn.Param {
	var ps []nn.Param
	ps = append(ps, nn.Prefix("inproj", m.inProj.Params())...)
	for i, b := range m.blocks {
		ps = append(ps, nn.Prefix(fmt.Sprintf("block%d", i), b.Params())...)
	}
	ps = append(ps, nn.Prefix("norm", m.norm.Params())...)
	ps = append(ps, nn.Prefix("out", m.out.Params())...)
	return ps
}
