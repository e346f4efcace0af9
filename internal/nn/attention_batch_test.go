package nn

import (
	"math/rand"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// lastOfEach is row T−1 of f applied to each T-row window of x alone,
// stacked: the per-window composed reference ForwardLast is pinned to.
func lastOfEach(f func(*autograd.Value) *autograd.Value, x *autograd.Value, batch, win int) *autograd.Value {
	rows := make([]*autograd.Value, batch)
	for b := range rows {
		rows[b] = autograd.SliceRows(f(autograd.SliceRows(x, b*win, (b+1)*win)), win-1, win)
	}
	return autograd.ConcatRows(rows...)
}

// TestMHAForwardLastMatchesForward pins the fused last-row attention layer
// to the last row of the per-window composed reference across head counts.
func TestMHAForwardLastMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, heads := range []int{1, 4} {
		attn := NewMultiHeadAttention(rng, 8, heads)
		const batch, win = 3, 5
		x := autograd.Constant(tensor.RandN(rng, 1, batch*win, 8))
		got := attn.ForwardLast(x, batch)
		if !tensor.AllClose(got.Data, lastOfEach(attn.Forward, x, batch, win).Data, 1e-12) {
			t.Errorf("heads=%d: last rows diverge from the sequential forward", heads)
		}
	}
}

// TestMHAForwardLastGradMatchesForward checks that parameter and input
// gradients of one last-row pass agree with the per-window passes, each
// reading its last row, summed.
func TestMHAForwardLastGradMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	attn := NewMultiHeadAttention(rng, 6, 2)
	const batch, win = 2, 4
	data := tensor.RandN(rng, 1, batch*win, 6)

	xb := autograd.Param(data.Clone())
	autograd.Sum(attn.ForwardLast(xb, batch)).Backward()
	batchGrads := map[string]*tensor.Tensor{"x": xb.Grad.Clone()}
	for _, p := range attn.Params() {
		batchGrads[p.Name] = p.V.Grad.Clone()
		p.V.ZeroGrad()
	}

	xs := autograd.Param(data.Clone())
	autograd.Sum(lastOfEach(attn.Forward, xs, batch, win)).Backward()
	if !tensor.AllClose(batchGrads["x"], xs.Grad, 1e-9) {
		t.Error("input gradient diverges between last-row and sequential passes")
	}
	for _, p := range attn.Params() {
		if !tensor.AllClose(batchGrads[p.Name], p.V.Grad, 1e-9) {
			t.Errorf("param %s gradient diverges between last-row and sequential passes", p.Name)
		}
	}
}

// TestEncoderLayerForwardLastMatchesForward pins the last-row encoder
// block (batched LayerNorm/FF + fused attention) to the last row of the
// sequential block, window by window.
func TestEncoderLayerForwardLastMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	enc := NewEncoderLayer(rng, 8, 2, 16)
	const batch, win = 4, 3
	x := autograd.Constant(tensor.RandN(rng, 1, batch*win, 8))
	got := enc.ForwardLast(x, batch)
	if got.Data.Rows() != batch || got.Data.Cols() != 8 {
		t.Fatalf("last-row encoder shape %v", got.Shape())
	}
	if !tensor.AllClose(got.Data, lastOfEach(enc.Forward, x, batch, win).Data, 1e-12) {
		t.Error("last rows diverge from the sequential encoder")
	}
}
