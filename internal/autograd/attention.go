package autograd

import (
	"fmt"
	"math"

	"edgekg/internal/flops"
	"edgekg/internal/parallel"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// This file holds the fused attention ops of the batched temporal path.
// The short-term temporal transformer (Sec. III-C) used to run one window
// at a time: per head, the attention core was five tape nodes (SliceCols ×3,
// MatMulT2, Scale, SoftmaxRows, MatMul) plus a ConcatCols, repeated per
// window. BatchedAttention collapses the whole (batch × heads) grid into a
// single tape node with one backward closure. The block-diagonal window
// mask is structural rather than materialised: scores for window b are
// computed only against window b's own keys, so a query can never attend
// into another window — the compact (batch·heads·T × T) score layout IS the
// block-diagonal mask, without ever allocating the (batch·T × batch·T)
// matrix it represents.
//
// Every loop mirrors the accumulation order of the composed reference ops
// (MatMulT2 → Scale → SoftmaxRows → MatMul), so the fused forward
// and backward are bit-identical to the per-window sequential model; the
// equivalence tests in internal/temporal pin this. LastQueryAttention (and
// its tape-free LastQueryAttentionFwd), the form for a model that reads
// only the last position, runs the same per-query forward and backward
// bodies for that one query per window.

// attnDims validates the (batch·T × heads·dk) geometry shared by the
// batched attention ops and returns T and dk.
func attnDims(op string, rows, cols, batch, heads int) (t, dk int) {
	if batch < 1 {
		panic(fmt.Sprintf("autograd: %s batch %d must be ≥ 1", op, batch))
	}
	if heads < 1 || cols%heads != 0 {
		panic(fmt.Sprintf("autograd: %s width %d not divisible by %d heads", op, cols, heads))
	}
	if rows%batch != 0 {
		panic(fmt.Sprintf("autograd: %s rows %d not divisible by batch %d", op, rows, batch))
	}
	t = rows / batch
	if t < 1 {
		panic(fmt.Sprintf("autograd: %s empty windows (rows %d, batch %d)", op, rows, batch))
	}
	return t, cols / heads
}

// BatchedAttention applies scaled dot-product self-attention independently
// to every window of a batch, all heads at once, as one graph node. q, k
// and v are (batch·T × dim) matrices whose k-th block of T rows is window
// k's projection; dim = heads·dk. The result has the same shape: row
// b·T+i, columns [h·dk, (h+1)·dk) hold head h's context for query i of
// window b; every query attends to all T positions of its own window.
//
// Attention is block-diagonal over windows by construction — scores are
// only ever computed within a window's own T×T block — and the (window,
// head) blocks are independent, so both passes fan out over the shared
// worker pool; each block owns a disjoint region of every output and
// gradient matrix with the sequential accumulation order, keeping results
// bit-identical at any worker count.
func BatchedAttention(q, k, v *Value, batch, heads int, scale float64) *Value {
	if !q.requiresGrad && !k.requiresGrad && !v.requiresGrad {
		return &Value{Data: BatchedAttentionFwd(q.Data, k.Data, v.Data, batch, heads, scale), op: "batchedattention"}
	}
	rows, dim := q.Data.Rows(), q.Data.Cols()
	t, dk := attnDims("BatchedAttention", rows, dim, batch, heads)
	nb := batch * heads
	// Attention weights, stored compactly as nb stacked T×T blocks: block
	// idx = b·heads + h starts at row idx·T. The backward pass re-reads
	// them.
	ad := make([]float64, nb*t*t)
	out, c, grain := batchedAttention(q.Data, k.Data, v.Data, batch, heads, scale, ad)
	qd := q.Data.Data()

	return newOp3("batchedattention", out, q, k, v, func(g *tensor.Tensor) {
		gd := g.Data()
		gq, gk, gv := attnAdjoints(q, k, v)
		parallel.For(nb, grain, func(lo, hi int) {
			bws := tensor.NewWorkspace()
			da := bws.Floats(t)
			for idx := lo; idx < hi; idx++ {
				b, h := idx/heads, idx%heads
				off := b*t*dim + h*dk
				for i := 0; i < t; i++ {
					row := off + i*dim
					c.back(qd[row:row+dk], off, ad[(idx*t+i)*t:(idx*t+i)*t+t], gd[row:row+dk], da, headSlice(gq, row, dk), gk, gv)
				}
			}
			bws.Release()
		})
		// dA + dV + softmax adjoint + dQ + dK, mirroring what the composed
		// backward graph would have reported to the ledger.
		flops.Add(int64(nb * (8*t*t*dk + 3*t*t)))
		accumulateAdjoints(q, k, v, gq, gk, gv)
	})
}

// LastQueryAttention is BatchedAttention for the last query of every
// window only, as one graph node: q holds one row per window (batch ×
// dim), k and v all batch·T rows. Row b of the result holds exactly the
// bits of row b·T+T−1 of BatchedAttention over a full q whose last rows
// are q's. The backward runs BatchedAttention's per-query body for those
// queries: dQ for the batch rows of q, dK and dV over every window — the
// adjoints BatchedAttention returns when no other row of its output
// carries a gradient.
func LastQueryAttention(q, k, v *Value, batch, heads int, scale float64) *Value {
	if !q.requiresGrad && !k.requiresGrad && !v.requiresGrad {
		return &Value{Data: LastQueryAttentionFwd(q.Data, k.Data, v.Data, batch, heads, scale), op: "lastqueryattention"}
	}
	rows, dim := k.Data.Rows(), k.Data.Cols()
	t, dk := attnDims("LastQueryAttention", rows, dim, batch, heads)
	nb := batch * heads
	// One row of T weights per (window, head) block, kept for backward.
	ad := make([]float64, nb*t)
	out, c, grain := lastQueryAttention(q.Data, k.Data, v.Data, batch, heads, scale, ad)
	qd := q.Data.Data()

	return newOp3("lastqueryattention", out, q, k, v, func(g *tensor.Tensor) {
		gd := g.Data()
		gq, gk, gv := attnAdjoints(q, k, v)
		parallel.For(nb, grain, func(lo, hi int) {
			bws := tensor.NewWorkspace()
			da := bws.Floats(t)
			for idx := lo; idx < hi; idx++ {
				b, h := idx/heads, idx%heads
				row := b*dim + h*dk
				c.back(qd[row:row+dk], b*t*dim+h*dk, ad[idx*t:idx*t+t], gd[row:row+dk], da, headSlice(gq, row, dk), gk, gv)
			}
			bws.Release()
		})
		flops.Add(int64(nb * (8*t*dk + 3*t)))
		accumulateAdjoints(q, k, v, gq, gk, gv)
	})
}

// attnAdjoints allocates the gradient buffers of whichever of q, k and v
// take gradients, as flat slices shaped like each input (nil otherwise).
func attnAdjoints(q, k, v *Value) (gq, gk, gv []float64) {
	buf := func(x *Value) []float64 {
		if !x.requiresGrad {
			return nil
		}
		return make([]float64, x.Data.Size())
	}
	return buf(q), buf(k), buf(v)
}

// accumulateAdjoints hands each non-nil buffer from attnAdjoints to its
// input.
func accumulateAdjoints(q, k, v *Value, gq, gk, gv []float64) {
	for _, p := range [3]struct {
		x *Value
		g []float64
	}{{q, gq}, {k, gk}, {v, gv}} {
		if p.g != nil {
			p.x.accumulate(tensor.FromSlice(p.g, p.x.Data.Shape()...))
		}
	}
}

// headSlice returns s[off:off+n], or nil for a nil s.
func headSlice(s []float64, off, n int) []float64 {
	if s == nil {
		return nil
	}
	return s[off : off+n]
}

// BatchedAttentionFwd is BatchedAttention's forward on bare tensors at
// width T, with the attention weights in pooled scratch: nothing needs
// them once the context rows are written.
func BatchedAttentionFwd[T tensor.Float](q, k, v *tensor.Dense[T], batch, heads int, scale T) *tensor.Dense[T] {
	t, _ := attnDims("BatchedAttention", q.Rows(), q.Cols(), batch, heads)
	ws := tensor.NewWorkspace()
	out, _, _ := batchedAttention(q, k, v, batch, heads, scale, tensor.Scratch[T](ws, batch*heads*t*t))
	ws.Release()
	return out
}

// LastQueryAttentionFwd is LastQueryAttention's forward on bare tensors at
// width T, with the attention weights in pooled scratch. Row b of the
// result holds exactly the bits of row b·T+T−1 of BatchedAttentionFwd
// over the full q, because both run the one query body below.
func LastQueryAttentionFwd[T tensor.Float](q, k, v *tensor.Dense[T], batch, heads int, scale T) *tensor.Dense[T] {
	t, _ := attnDims("LastQueryAttention", k.Rows(), k.Cols(), batch, heads)
	ws := tensor.NewWorkspace()
	out, _, _ := lastQueryAttention(q, k, v, batch, heads, scale, tensor.Scratch[T](ws, batch*heads*t))
	ws.Release()
	return out
}

// lastQueryAttention computes the context of the last query of every
// window into a fresh (batch × dim) tensor, leaving the softmax weights in
// ad (one row of T per (window, head) block). Like batchedAttention it
// returns the query body and the worker-pool grain for the backward pass.
func lastQueryAttention[T tensor.Float](q, k, v *tensor.Dense[T], batch, heads int, scale T, ad []T) (*tensor.Dense[T], attnQuery[T], int) {
	rows, dim := k.Rows(), k.Cols()
	if !v.SameShape(k) || q.Rows() != batch || q.Cols() != dim {
		panic(fmt.Sprintf("autograd: LastQueryAttention shapes q%v k%v v%v, want q (%d × %d)", q.Shape(), k.Shape(), v.Shape(), batch, dim))
	}
	t, dk := attnDims("LastQueryAttention", rows, dim, batch, heads)
	nb := batch * heads
	out := tensor.NewOf[T](batch, dim)
	c := attnQuery[T]{bk: kernels.ActiveOf[T](), kd: k.Data(), vd: v.Data(), dim: dim, dk: dk, scale: scale}
	qd, od := q.Data(), out.Data()
	cost := 4*t*dk + 5*t
	grain := attnGrain(cost)
	parallel.For(nb, grain, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			b, h := idx/heads, idx%heads
			row := b*dim + h*dk
			c.run(qd[row:row+dk], b*t*dim+h*dk, ad[idx*t:idx*t+t], od[row:row+dk])
		}
	})
	flops.Add(int64(nb * cost))
	return out, c, grain
}

// attnGrain picks the worker-pool chunk grain for (window, head) blocks
// of the given flop cost so a chunk amortises the pool handshake over
// ~2¹⁶ flop-equivalents.
func attnGrain(blockCost int) int {
	if blockCost > 0 && (1<<16)/blockCost > 1 {
		return (1 << 16) / blockCost
	}
	return 1
}

// batchedAttention computes the attention context into a fresh tensor,
// leaving the softmax weights in ad (nb stacked T×T blocks). It also
// returns the query body it ran and the worker-pool grain, so the backward
// pass runs over the same K and V and splits identically.
func batchedAttention[T tensor.Float](q, k, v *tensor.Dense[T], batch, heads int, scale T, ad []T) (*tensor.Dense[T], attnQuery[T], int) {
	rows, dim := q.Rows(), q.Cols()
	if !k.SameShape(q) || !v.SameShape(q) {
		panic(fmt.Sprintf("autograd: BatchedAttention shapes q%v k%v v%v differ", q.Shape(), k.Shape(), v.Shape()))
	}
	t, dk := attnDims("BatchedAttention", rows, dim, batch, heads)
	nb := batch * heads
	out := tensor.NewOf[T](rows, dim)
	c := attnQuery[T]{bk: kernels.ActiveOf[T](), kd: k.Data(), vd: v.Data(), dim: dim, dk: dk, scale: scale}
	qd, od := q.Data(), out.Data()

	// One block ≈ 4·T²·dk + 5·T² flops.
	blockCost := 4*t*t*dk + 5*t*t
	grain := attnGrain(blockCost)
	parallel.For(nb, grain, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			b, h := idx/heads, idx%heads
			off := b*t*dim + h*dk
			for i := 0; i < t; i++ {
				row := off + i*dim
				c.run(qd[row:row+dk], off, ad[(idx*t+i)*t:(idx*t+i)*t+t], od[row:row+dk])
			}
		}
	})
	flops.Add(int64(nb * blockCost))
	return out, c, grain
}

// attnQuery is the one per-(window, head, query) body of both attention
// ops, forward (run) and backward (back), over the shared K and V matrices
// (rows of width dim).
//
// It calls the same backend kernels as the composed reference ops (Dot
// for MatMulT2's inner product, Axpy for MatMul's accumulation), so
// fused-vs-sequential bit-identity holds per backend even where a kernel
// reassociates.
type attnQuery[T tensor.Float] struct {
	bk      kernels.Backend[T]
	kd, vd  []T
	dim, dk int
	scale   T
}

// run attends query qrow to the len(arow) key/value rows of one (window,
// head) block, whose row 0 head slice starts at offset off of K and V. It
// leaves the softmax weights in arow and accumulates the context into
// orow, which must start zeroed.
func (c attnQuery[T]) run(qrow []T, off int, arow, orow []T) {
	// Scores: (Q·Kᵀ)·scale, the composed MatMulT2+Scale order.
	for j := range arow {
		r := off + j*c.dim
		arow[j] = c.bk.Dot(qrow, c.kd[r:r+c.dk]) * c.scale
	}
	// Row softmax in SoftmaxRows' order: max shift, exp, one reciprocal.
	mx := arow[0]
	for _, s := range arow[1:] {
		if s > mx {
			mx = s
		}
	}
	var sum T
	for j, s := range arow {
		e := T(math.Exp(float64(s - mx)))
		arow[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range arow {
		arow[j] *= inv
	}
	// Context: attn·V with the reference MatMul's i-p-j order and zero
	// skip.
	for p, av := range arow {
		if av == 0 {
			continue
		}
		r := off + p*c.dim
		c.bk.Axpy(av, c.vd[r:r+c.dk], orow)
	}
}

// back propagates the context adjoint grow of query qrow through the
// block run computed, whose softmax weights are arow: dAttn_p = G·V_p and
// dV_p += attn_p·G, then the softmax and Scale adjoints, then the score
// adjoints dQ += dS·K into gq (the query's own head slice) and dK_p +=
// dS_p·Q. gk and gv are whole gradient matrices laid out like K and V; a
// nil gq, gk or gv takes no gradient. da is scratch of len(arow).
func (c attnQuery[T]) back(qrow []T, off int, arow, grow, da, gq, gk, gv []T) {
	for p, av := range arow {
		r := off + p*c.dim
		da[p] = c.bk.Dot(grow, c.vd[r:r+c.dk])
		if av != 0 && gv != nil {
			c.bk.Axpy(av, grow, gv[r:r+c.dk])
		}
	}
	if gq == nil && gk == nil {
		return
	}
	dot := c.bk.Dot(arow, da)
	for p, av := range arow {
		ds := av * (da[p] - dot) * c.scale
		if ds == 0 {
			continue
		}
		r := off + p*c.dim
		if gq != nil {
			c.bk.Axpy(ds, c.kd[r:r+c.dk], gq)
		}
		if gk != nil {
			c.bk.Axpy(ds, qrow, gk[r:r+c.dk])
		}
	}
}

// AddTiled adds a (T × c) tile to every T-row block of a (batch·T × c)
// matrix: out row i is x row i plus tile row i mod T. It is how the batched
// temporal forward applies the positional encoding to every window in one
// node instead of one Add per window; the adjoint passes straight through
// to x (the tile is constant).
func AddTiled(x *Value, tile *tensor.Tensor) *Value {
	out := addTiledInto(tensor.New(x.Data.Rows(), x.Data.Cols()), x.Data, tile)
	return newOp3("addtiled", out, x, nil, nil, func(g *tensor.Tensor) {
		x.accumulate(g)
	})
}

// AddTiledInPlace is AddTiled's forward overwriting x.
func AddTiledInPlace[T tensor.Float](x, tile *tensor.Dense[T]) { addTiledInto(x, x, tile) }

// LastRows copies row b·T+T−1 of a (batch·T × c) matrix into row b of a
// fresh (batch × c) one: the rows a model that reads only the last
// position of each window carries past its final attention.
func LastRows[T tensor.Float](x *tensor.Dense[T], batch int) *tensor.Dense[T] {
	t, _ := attnDims("LastRows", x.Rows(), x.Cols(), batch, 1)
	out := tensor.NewOf[T](batch, x.Cols())
	for b := 0; b < batch; b++ {
		copy(out.Row(b), x.Row(b*t+t-1))
	}
	return out
}

// GatherLastRows is LastRows on the tape: row b of the result is row
// b·T+T−1 of the (batch·T × c) matrix x, and the adjoint scatters back
// into those rows.
func GatherLastRows(x *Value, batch int) *Value {
	t, _ := attnDims("LastRows", x.Data.Rows(), x.Data.Cols(), batch, 1)
	rows := make([]int, batch)
	for b := range rows {
		rows[b] = b*t + t - 1
	}
	return GatherRows(x, rows)
}

// AddLastRowsInPlace adds row b·T+T−1 of the (batch·T × c) matrix x into
// row b of the (batch × c) matrix h and returns h. The sum is taken in
// x + h order, so it holds the bits a residual add over all of x's rows
// would leave in those rows.
func AddLastRowsInPlace[T tensor.Float](h, x *tensor.Dense[T]) *tensor.Dense[T] {
	batch, c := h.Rows(), h.Cols()
	t, _ := attnDims("AddLastRows", x.Rows(), x.Cols(), batch, 1)
	if x.Cols() != c {
		panic(fmt.Sprintf("autograd: AddLastRows widths %v and %v differ", h.Shape(), x.Shape()))
	}
	bk := kernels.ActiveOf[T]()
	for b := 0; b < batch; b++ {
		bk.Add(x.Row(b*t+t-1), h.Row(b), h.Row(b))
	}
	flops.Add(int64(batch * c))
	return h
}

func addTiledInto[T tensor.Float](out, x, tile *tensor.Dense[T]) *tensor.Dense[T] {
	r, c := x.Rows(), x.Cols()
	t := tile.Rows()
	if tile.Cols() != c || t < 1 || r%t != 0 {
		panic(fmt.Sprintf("autograd: AddTiled tile %v does not tile input %v", tile.Shape(), x.Shape()))
	}
	od, xd, td := out.Data(), x.Data(), tile.Data()
	bk := kernels.ActiveOf[T]()
	for i := 0; i < r; i++ {
		bk.Add(xd[i*c:(i+1)*c], td[(i%t)*c:(i%t+1)*c], od[i*c:(i+1)*c])
	}
	flops.Add(int64(r * c))
	return out
}
