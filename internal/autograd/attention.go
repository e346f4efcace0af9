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
// equivalence tests in internal/temporal pin this. LastQueryAttentionFwd,
// the eval engine's form for a model that reads only the last position,
// runs the same per-query body for that one query per window.

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
	attn := tensor.New(nb*t, t)
	out, grain := batchedAttention(q.Data, k.Data, v.Data, batch, heads, scale, attn.Data())
	qd, kd, vd, ad := q.Data.Data(), k.Data.Data(), v.Data.Data(), attn.Data()
	bk := kernels.Active()

	return newOp3("batchedattention", out, q, k, v, func(g *tensor.Tensor) {
		gd := g.Data()
		var gq, gk, gv *tensor.Tensor
		if q.requiresGrad {
			gq = tensor.New(rows, dim)
		}
		if k.requiresGrad {
			gk = tensor.New(rows, dim)
		}
		if v.requiresGrad {
			gv = tensor.New(rows, dim)
		}
		parallel.For(nb, grain, func(lo, hi int) {
			bws := tensor.NewWorkspace()
			da := bws.Floats(t)
			for idx := lo; idx < hi; idx++ {
				b, h := idx/heads, idx%heads
				rowOff, colOff := b*t, h*dk
				for i := 0; i < t; i++ {
					arow := ad[(idx*t+i)*t : (idx*t+i)*t+t]
					grow := gd[(rowOff+i)*dim+colOff : (rowOff+i)*dim+colOff+dk]
					// dAttn[i][p] = G_i·V_p ; dV_p += attn[i][p]·G_i.
					for p := 0; p < t; p++ {
						vrow := vd[(rowOff+p)*dim+colOff : (rowOff+p)*dim+colOff+dk]
						da[p] = bk.Dot(grow, vrow)
						if av := arow[p]; av != 0 && gv != nil {
							gvrow := gv.Data()[(rowOff+p)*dim+colOff : (rowOff+p)*dim+colOff+dk]
							bk.Axpy(av, grow, gvrow)
						}
					}
					if gq == nil && gk == nil {
						continue
					}
					// Softmax backward, then the Scale adjoint, then the
					// score-matmul adjoints dQ = dS·K and dK = dSᵀ·Q.
					dot := bk.Dot(arow, da)
					qrow := qd[(rowOff+i)*dim+colOff : (rowOff+i)*dim+colOff+dk]
					for p := 0; p < t; p++ {
						ds := arow[p] * (da[p] - dot) * scale
						if ds == 0 {
							continue
						}
						if gq != nil {
							krow := kd[(rowOff+p)*dim+colOff : (rowOff+p)*dim+colOff+dk]
							gqrow := gq.Data()[(rowOff+i)*dim+colOff : (rowOff+i)*dim+colOff+dk]
							bk.Axpy(ds, krow, gqrow)
						}
						if gk != nil {
							gkrow := gk.Data()[(rowOff+p)*dim+colOff : (rowOff+p)*dim+colOff+dk]
							bk.Axpy(ds, qrow, gkrow)
						}
					}
				}
			}
			bws.Release()
		})
		// dA + dV + softmax adjoint + dQ + dK, mirroring what the composed
		// backward graph would have reported to the ledger.
		flops.Add(int64(nb * (8*t*t*dk + 3*t*t)))
		if gq != nil {
			q.accumulate(gq)
		}
		if gk != nil {
			k.accumulate(gk)
		}
		if gv != nil {
			v.accumulate(gv)
		}
	})
}

// BatchedAttentionFwd is BatchedAttention's forward on bare tensors at
// width T, with the attention weights in pooled scratch: nothing needs
// them once the context rows are written.
func BatchedAttentionFwd[T tensor.Float](q, k, v *tensor.Dense[T], batch, heads int, scale T) *tensor.Dense[T] {
	t, _ := attnDims("BatchedAttention", q.Rows(), q.Cols(), batch, heads)
	ws := tensor.NewWorkspace()
	out, _ := batchedAttention(q, k, v, batch, heads, scale, tensor.Scratch[T](ws, batch*heads*t*t))
	ws.Release()
	return out
}

// LastQueryAttentionFwd is BatchedAttentionFwd computed for the last query
// of every window only — what a model that reads one output per window
// needs. q holds one row per window (batch × dim), k and v all batch·T
// rows; row b of the result holds exactly the bits of row b·T+T−1 of
// BatchedAttentionFwd over the full q, because both run the one query
// body below.
func LastQueryAttentionFwd[T tensor.Float](q, k, v *tensor.Dense[T], batch, heads int, scale T) *tensor.Dense[T] {
	rows, dim := k.Rows(), k.Cols()
	if !v.SameShape(k) || q.Rows() != batch || q.Cols() != dim {
		panic(fmt.Sprintf("autograd: LastQueryAttention shapes q%v k%v v%v, want q (%d × %d)", q.Shape(), k.Shape(), v.Shape(), batch, dim))
	}
	t, dk := attnDims("LastQueryAttention", rows, dim, batch, heads)
	nb := batch * heads
	out := tensor.NewOf[T](batch, dim)
	ws := tensor.NewWorkspace()
	ad := tensor.Scratch[T](ws, nb*t)
	c := attnQuery[T]{bk: kernels.ActiveOf[T](), kd: k.Data(), vd: v.Data(), dim: dim, dk: dk, scale: scale}
	qd, od := q.Data(), out.Data()
	cost := 4*t*dk + 5*t
	parallel.For(nb, attnGrain(cost), func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			b, h := idx/heads, idx%heads
			row := b*dim + h*dk
			c.run(qd[row:row+dk], b*t*dim+h*dk, ad[idx*t:idx*t+t], od[row:row+dk])
		}
	})
	ws.Release()
	flops.Add(int64(nb * cost))
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

// batchedAttention computes the attention context into a fresh tensor,
// leaving the softmax weights in ad (nb stacked T×T blocks). It also
// returns the worker-pool grain so the backward pass splits identically.
func batchedAttention[T tensor.Float](q, k, v *tensor.Dense[T], batch, heads int, scale T, ad []T) (*tensor.Dense[T], int) {
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
	return out, grain
}

// attnQuery is the one per-(window, head, query) body of both attention
// forwards, over the shared K and V matrices (rows of width dim).
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
