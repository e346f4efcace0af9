package autograd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/parallel"
	"edgekg/internal/tensor"
)

// composedAttention is the sequential reference the fused kernel is pinned
// to: per window, per head, the exact op chain the per-window model uses —
// SliceCols → MatMulT2 → Scale → softmax → MatMul → ConcatCols — stacked
// back with ConcatRows.
func composedAttention(q, k, v *Value, batch, heads int, scale float64) *Value {
	t := q.Data.Rows() / batch
	dk := q.Data.Cols() / heads
	wins := make([]*Value, batch)
	for b := 0; b < batch; b++ {
		qw := SliceRows(q, b*t, (b+1)*t)
		kw := SliceRows(k, b*t, (b+1)*t)
		vw := SliceRows(v, b*t, (b+1)*t)
		outs := make([]*Value, heads)
		for h := 0; h < heads; h++ {
			lo, hi := h*dk, (h+1)*dk
			qh := SliceCols(qw, lo, hi)
			kh := SliceCols(kw, lo, hi)
			vh := SliceCols(vw, lo, hi)
			scores := Scale(MatMulT2(qh, kh), scale)
			outs[h] = MatMul(SoftmaxRows(scores), vh)
		}
		wins[b] = ConcatCols(outs...)
	}
	return ConcatRows(wins...)
}

// TestBatchedAttentionMatchesComposed pins the fused forward to the
// composed per-window reference bit-for-bit across batch/head shapes.
func TestBatchedAttentionMatchesComposed(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	scale := 1 / math.Sqrt(3)
	for _, batch := range []int{1, 2, 5} {
		for _, heads := range []int{1, 2} {
			const win, dk = 4, 3
			dim := heads * dk
			q := Constant(tensor.RandN(rng, 1, batch*win, dim))
			k := Constant(tensor.RandN(rng, 1, batch*win, dim))
			v := Constant(tensor.RandN(rng, 1, batch*win, dim))
			fused := BatchedAttention(q, k, v, batch, heads, scale)
			ref := composedAttention(q, k, v, batch, heads, scale)
			if !tensor.AllClose(fused.Data, ref.Data, 0) {
				t.Errorf("batch=%d heads=%d: fused forward diverges from composed", batch, heads)
			}
		}
	}
}

// TestBatchedAttentionBackwardMatchesComposed checks gradient agreement
// with the composed reference for q, k and v.
func TestBatchedAttentionBackwardMatchesComposed(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const batch, win, heads, dk = 3, 4, 2, 2
	dim := heads * dk
	scale := 1 / math.Sqrt(float64(dk))
	qc := randParam(rng, batch*win, dim)
	kc := randParam(rng, batch*win, dim)
	vc := randParam(rng, batch*win, dim)
	qf, kf, vf := Param(qc.Data.Clone()), Param(kc.Data.Clone()), Param(vc.Data.Clone())
	Sum(composedAttention(qc, kc, vc, batch, heads, scale)).Backward()
	Sum(BatchedAttention(qf, kf, vf, batch, heads, scale)).Backward()
	for i, pair := range [][2]*Value{{qf, qc}, {kf, kc}, {vf, vc}} {
		if !tensor.AllClose(pair[0].Grad, pair[1].Grad, 1e-12) {
			t.Errorf("input %d grad diverges from composed", i)
		}
	}
}

// TestGradBatchedAttention verifies the fused attention backwards against
// finite differences, for all inputs trainable and for a partial
// requires-grad set: frozen k/v must still pass gradients to q alone (the
// adaptation path backpropagates through frozen projections).
func TestGradBatchedAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const batch, win, heads, dk = 2, 3, 2, 2
	dim := heads * dk
	scale := 1 / math.Sqrt(float64(dk))
	param := func(rows int) *Value { return Param(tensor.RandN(rng, 0.5, rows, dim)) }
	constant := func(rows int) *Value { return Constant(tensor.RandN(rng, 0.5, rows, dim)) }
	q, k, v := param(batch*win), param(batch*win), param(batch*win)
	fq, fk, fv := param(4), constant(4), constant(4)
	lq, lk, lv := param(batch), param(batch*win), param(batch*win)
	lfq, lfk, lfv := param(2), constant(4), constant(4)
	for _, c := range []struct {
		name   string
		f      func() *Value
		inputs []*Value
	}{
		{"batchedattention", func() *Value { return Sum(BatchedAttention(q, k, v, batch, heads, scale)) }, []*Value{q, k, v}},
		{"batchedattention/frozen-kv", func() *Value { return Sum(BatchedAttention(fq, fk, fv, 2, heads, scale)) }, []*Value{fq}},
		{"batchedattention/one-query", func() *Value { return Sum(BatchedAttention(lq, lk, lv, batch, heads, scale)) }, []*Value{lq, lk, lv}},
		{"batchedattention/one-query/frozen-kv", func() *Value { return Sum(BatchedAttention(lfq, lfk, lfv, 2, heads, scale)) }, []*Value{lfq}},
	} {
		if err := GradCheck(c.f, c.inputs, 1e-6, 1e-6); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestBatchedAttentionWorkerDeterminism pins the concurrency contract:
// forward values and input gradients are bit-identical at any worker
// count (EDGEKG_WORKERS ∈ {1, 4} via its programmatic equivalent).
func TestBatchedAttentionWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const batch, win, heads, dk = 6, 5, 4, 3
	dim := heads * dk
	scale := 1 / math.Sqrt(float64(dk))
	data := [3]*tensor.Tensor{
		tensor.RandN(rng, 1, batch*win, dim),
		tensor.RandN(rng, 1, batch*win, dim),
		tensor.RandN(rng, 1, batch*win, dim),
	}
	run := func() (*tensor.Tensor, [3]*tensor.Tensor) {
		q, k, v := Param(data[0].Clone()), Param(data[1].Clone()), Param(data[2].Clone())
		out := BatchedAttention(q, k, v, batch, heads, scale)
		Sum(out).Backward()
		return out.Data, [3]*tensor.Tensor{q.Grad, k.Grad, v.Grad}
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	wantOut, wantGrads := run()
	parallel.SetWorkers(4)
	gotOut, gotGrads := run()
	if !tensor.AllClose(gotOut, wantOut, 0) {
		t.Error("forward not bit-identical across worker counts")
	}
	for i := range wantGrads {
		if !tensor.AllClose(gotGrads[i], wantGrads[i], 0) {
			t.Errorf("input %d gradient not bit-identical across worker counts", i)
		}
	}
}

// TestBatchedAttentionValidation checks the geometry panics: q is
// (batch·nq × dim), k and v (batch·T × dim) each.
func TestBatchedAttentionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	q := Constant(tensor.RandN(rng, 1, 6, 4))
	c := func(rows, cols int) *Value { return Constant(tensor.RandN(rng, 1, rows, cols)) }
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("batch 0", func() { BatchedAttention(q, q, q, 0, 2, 1) })
	mustPanic("rows not divisible", func() { BatchedAttention(q, q, q, 4, 2, 1) })
	mustPanic("heads not divisible", func() { BatchedAttention(q, q, q, 2, 3, 1) })
	kBad := Constant(tensor.RandN(rng, 1, 5, 4))
	mustPanic("shape mismatch", func() { BatchedAttention(q, kBad, q, 2, 2, 1) })
	mustPanic("q rows not a multiple of batch", func() { BatchedAttention(c(3, 4), q, q, 2, 2, 1) })
	mustPanic("q width differs from k", func() { BatchedAttention(c(2, 6), q, q, 2, 2, 1) })
	mustPanic("v shape differs from k", func() { BatchedAttention(c(2, 4), q, c(4, 4), 2, 2, 1) })
}

// TestBatchedAttentionTwoQueriesPerWindow runs BatchedAttention with rows
// 1 and T−1 of each window as its two queries: the result and its
// gradients hold the bits of those rows of the all-queries form on every
// backend, the queries-per-window count coming from q's shape alone.
func TestBatchedAttentionTwoQueriesPerWindow(t *testing.T) {
	for gi, g := range []struct{ batch, win, heads, dk int }{{3, 5, 2, 3}, {2, 8, 8, 16}} {
		rng := rand.New(rand.NewSource(int64(900 + gi)))
		n := g.batch * g.win * g.heads * g.dk
		fill := func(n int) []float64 { return tensor.RandN(rng, 1, n).Data() }
		sel := []int{1, g.win - 1}
		ctx := fmt.Sprintf("%+v", g)
		requireQueryRows(t, ctx, fill(n), fill(n), fill(n), g.batch, g.win, g.heads, g.dk, sel)
		requireQueryGrads(t, ctx, fill(n), fill(n), fill(n), fill(g.batch*len(sel)*g.heads*g.dk), g.batch, g.win, g.heads, g.dk, sel)
	}
}

// TestAddTiledMatchesPerBlockAdd pins AddTiled to per-block Add, forward
// and backward, and checks its gradcheck and validation.
func TestAddTiledMatchesPerBlockAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	const batch, win, dim = 3, 4, 5
	tile := tensor.RandN(rng, 1, win, dim)
	xc := randParam(rng, batch*win, dim)
	xf := Param(xc.Data.Clone())
	blocks := make([]*Value, batch)
	for b := 0; b < batch; b++ {
		blocks[b] = Add(SliceRows(xc, b*win, (b+1)*win), Constant(tile))
	}
	composed := ConcatRows(blocks...)
	fused := AddTiled(xf, tile)
	if !tensor.AllClose(fused.Data, composed.Data, 0) {
		t.Fatal("AddTiled diverges from per-block Add")
	}
	Sum(Mul(composed, composed)).Backward()
	Sum(Mul(fused, fused)).Backward()
	if !tensor.AllClose(xf.Grad, xc.Grad, 1e-12) {
		t.Error("AddTiled grad diverges from per-block Add")
	}

	x := Param(tensor.RandN(rng, 0.5, batch*win, dim))
	f := func() *Value { return Sum(Mul(AddTiled(x, tile), AddTiled(x, tile))) }
	if err := GradCheck(f, []*Value{x}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}

	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-tiling shapes")
		}
	}()
	AddTiled(x, tensor.New(5, dim))
}
