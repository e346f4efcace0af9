package nn

import (
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// TestMHAForwardBatchMatchesForward pins the fused batched attention layer
// to the per-window composed reference across head counts.
func TestMHAForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, heads := range []int{1, 4} {
		attn := NewMultiHeadAttention(rng, 8, heads)
		const batch, win = 3, 5
		x := tensor.RandN(rng, 1, batch*win, 8)
		got := attn.ForwardBatch(autograd.Constant(x), batch)
		for b := 0; b < batch; b++ {
			ref := attn.Forward(autograd.Constant(tensor.SliceRows(x, b*win, (b+1)*win)))
			if !tensor.AllClose(tensor.SliceRows(got.Data, b*win, (b+1)*win), ref.Data, 1e-12) {
				t.Errorf("heads=%d: window %d diverges from sequential forward", heads, b)
			}
		}
	}
}

// TestMHAForwardBatchGradMatchesForward checks that parameter and input
// gradients of one batched pass agree with the per-window passes summed.
func TestMHAForwardBatchGradMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	attn := NewMultiHeadAttention(rng, 6, 2)
	const batch, win = 2, 4
	data := tensor.RandN(rng, 1, batch*win, 6)

	xb := autograd.Param(data.Clone())
	autograd.Sum(attn.ForwardBatch(xb, batch)).Backward()
	batchGrads := map[string]*tensor.Tensor{"x": xb.Grad.Clone()}
	for _, p := range attn.Params() {
		batchGrads[p.Name] = p.V.Grad.Clone()
		p.V.ZeroGrad()
	}

	xs := autograd.Param(data.Clone())
	for b := 0; b < batch; b++ {
		autograd.Sum(attn.Forward(autograd.SliceRows(xs, b*win, (b+1)*win))).Backward()
	}
	if !tensor.AllClose(batchGrads["x"], xs.Grad, 1e-9) {
		t.Error("input gradient diverges between batched and sequential passes")
	}
	for _, p := range attn.Params() {
		if !tensor.AllClose(batchGrads[p.Name], p.V.Grad, 1e-9) {
			t.Errorf("param %s gradient diverges between batched and sequential passes", p.Name)
		}
	}
}

// TestEncoderLayerForwardBatchMatchesForward pins the batched encoder
// block (batched LayerNorm/FF + fused attention) to the sequential block.
func TestEncoderLayerForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	enc := NewEncoderLayer(rng, 8, 2, 16)
	const batch, win = 4, 3
	x := tensor.RandN(rng, 1, batch*win, 8)
	got := enc.ForwardBatch(autograd.Constant(x), batch)
	if got.Data.Rows() != batch*win || got.Data.Cols() != 8 {
		t.Fatalf("batched encoder shape %v", got.Shape())
	}
	for b := 0; b < batch; b++ {
		ref := enc.Forward(autograd.Constant(tensor.SliceRows(x, b*win, (b+1)*win)))
		if !tensor.AllClose(tensor.SliceRows(got.Data, b*win, (b+1)*win), ref.Data, 1e-12) {
			t.Errorf("window %d diverges from sequential encoder", b)
		}
	}
}
