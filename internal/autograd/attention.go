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
// into another window — the compact (batch·heads·nq × T) score layout IS the
// block-diagonal mask, without ever allocating the (batch·T × batch·T)
// matrix it represents.
//
// Every loop mirrors the accumulation order of the composed reference ops
// (MatMulT2 → Scale → SoftmaxRows → MatMul), so the fused forward
// and backward are bit-identical to the per-window sequential model; the
// equivalence tests in internal/autograd and internal/temporal pin this.
// The number of queries per window comes from q's shape: T of them is
// self-attention over every position, one per window is the form a model
// that reads only the last position runs, and both run the same per-query
// forward and backward bodies.

// attnDims validates a (batch·T × heads·dk) geometry and returns T and dk.
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

// attnShapes validates BatchedAttention's operands — q (batch·nq × dim),
// k and v (batch·T × dim) each, dim = heads·dk — and returns nq, T and dk.
func attnShapes[T tensor.Float](q, k, v *tensor.Dense[T], batch, heads int) (nq, t, dk int) {
	if q.Cols() != k.Cols() || !v.SameShape(k) {
		panic(fmt.Sprintf("autograd: BatchedAttention shapes q%v k%v v%v, want one width and k, v alike", q.Shape(), k.Shape(), v.Shape()))
	}
	nq, dk = attnDims("BatchedAttention", q.Rows(), q.Cols(), batch, heads)
	t, _ = attnDims("BatchedAttention", k.Rows(), k.Cols(), batch, heads)
	return nq, t, dk
}

// BatchedAttention applies scaled dot-product attention independently to
// every window of a batch, all heads at once, as one graph node. k and v
// are (batch·T × dim) matrices whose b-th block of T rows is window b's
// projection; dim = heads·dk. q is (batch·nq × dim): nq = q.Rows()/batch
// queries per window, each attending to all T positions of its own
// window. Row b·nq+i of the result, columns [h·dk, (h+1)·dk), holds head
// h's context for query i of window b.
//
// nq = T, with q projected from the same rows as k and v, is
// self-attention. nq = 1, with q projected from each window's last row,
// is the form a model that reads only the last position runs: its row b
// holds exactly the bits of row b·T+T−1 of the nq = T result, and its
// backward returns exactly the nq = T adjoints under a gradient on those
// rows alone, because every query runs the one per-query body and a query
// with a zero adjoint adds nothing to dK or dV.
//
// Attention is block-diagonal over windows by construction — scores are
// only ever computed within a window's own block — and the (window, head)
// blocks are independent, so both passes fan out over the shared worker
// pool; each block owns a disjoint region of every output and gradient
// matrix with the sequential accumulation order, keeping results
// bit-identical at any worker count.
func BatchedAttention(q, k, v *Value, batch, heads int, scale float64) *Value {
	if !q.requiresGrad && !k.requiresGrad && !v.requiresGrad {
		return &Value{Data: BatchedAttentionFwd(nil, q.Data, k.Data, v.Data, batch, heads, scale), op: "batchedattention"}
	}
	nq, t, dk := attnShapes(q.Data, k.Data, v.Data, batch, heads)
	dim := q.Data.Cols()
	nb := batch * heads
	// Attention weights, one row of T per query: block idx = b·heads + h
	// starts at row idx·nq. The backward pass re-reads them.
	ad := make([]float64, nb*nq*t)
	out, c, grain := batchedAttention(nil, q.Data, k.Data, v.Data, batch, heads, scale, ad)
	qd := q.Data.Data()

	return newOp3("batchedattention", out, q, k, v, func(g *tensor.Tensor) {
		gd := g.Data()
		gq, gk, gv := attnAdjoints(q, k, v)
		parallel.For(nb, grain, func(lo, hi int) {
			bws := tensor.NewWorkspace()
			da := tensor.Scratch[float64](bws, t)
			for idx := lo; idx < hi; idx++ {
				b, h := idx/heads, idx%heads
				off := b*t*dim + h*dk
				for i := 0; i < nq; i++ {
					row, w := (b*nq+i)*dim+h*dk, (idx*nq+i)*t
					c.back(qd[row:row+dk], off, ad[w:w+t], gd[row:row+dk], da, headSlice(gq, row, dk), gk, gv)
				}
			}
			bws.Release()
		})
		// dA + dV + softmax adjoint + dQ + dK, mirroring what the composed
		// backward graph would have reported to the ledger.
		flops.Add(int64(nb * nq * (8*t*dk + 3*t)))
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
// width T, with the context lent from ws and the attention weights in
// pooled scratch: nothing needs them once the context rows are written.
func BatchedAttentionFwd[T tensor.Float](ws *tensor.Workspace, q, k, v *tensor.Dense[T], batch, heads int, scale T) *tensor.Dense[T] {
	nq, t, _ := attnShapes(q, k, v, batch, heads)
	sw := tensor.NewWorkspace()
	out, _, _ := batchedAttention(ws, q, k, v, batch, heads, scale, tensor.Scratch[T](sw, batch*heads*nq*t))
	sw.Release()
	return out
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

// batchedAttention computes the attention context into a tensor shaped
// like q, lent from ws, leaving the softmax weights in ad (one row of T per
// query, laid out as in BatchedAttention). It also returns the query body
// it ran and the worker-pool grain, so the backward pass runs over the
// same K and V and splits identically.
func batchedAttention[T tensor.Float](ws *tensor.Workspace, q, k, v *tensor.Dense[T], batch, heads int, scale T, ad []T) (*tensor.Dense[T], attnQuery[T], int) {
	nq, t, dk := attnShapes(q, k, v, batch, heads)
	nb := batch * heads
	c := attnQuery[T]{bk: kernels.ActiveOf[T](), kd: k.Data(), vd: v.Data(), dim: q.Cols(), dk: dk, scale: scale}
	out := tensor.Alloc[T](ws, q.Rows(), c.dim)
	qd, od := q.Data(), out.Data()

	// One block ≈ nq·(4·T·dk + 5·T) flops.
	blockCost := nq * (4*t*dk + 5*t)
	grain := attnGrain(blockCost)
	if parallel.Inline(nb, grain) {
		c.blocks(qd, ad, od, heads, nq, t, 0, nb)
	} else {
		parallel.For(nb, grain, func(lo, hi int) { c.blocks(qd, ad, od, heads, nq, t, lo, hi) })
	}
	flops.Add(int64(nb * blockCost))
	return out, c, grain
}

// attnQuery is the one per-(window, head, query) body of BatchedAttention,
// forward (run) and backward (back), over the shared K and V matrices
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

// blocks runs every query of (window, head) blocks [lo, hi), block idx =
// b·heads + h: queries from qd, weights into ad, contexts into od, laid
// out as in BatchedAttention.
func (c attnQuery[T]) blocks(qd, ad, od []T, heads, nq, t, lo, hi int) {
	for idx := lo; idx < hi; idx++ {
		b, h := idx/heads, idx%heads
		off := b*t*c.dim + h*c.dk
		for i := 0; i < nq; i++ {
			row, w := (b*nq+i)*c.dim+h*c.dk, (idx*nq+i)*t
			c.run(qd[row:row+c.dk], off, ad[w:w+t], od[row:row+c.dk])
		}
	}
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
// (batch × c) one lent from ws: the rows a model that reads only the last
// position of each window carries past its final attention.
func LastRows[T tensor.Float](ws *tensor.Workspace, x *tensor.Dense[T], batch int) *tensor.Dense[T] {
	t, _ := attnDims("LastRows", x.Rows(), x.Cols(), batch, 1)
	out := tensor.Alloc[T](ws, batch, x.Cols())
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
