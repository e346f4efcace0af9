package temporal

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgekg/internal/autograd"
	"edgekg/internal/parallel"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// batchConfig builds a config sized so every tested head count divides the
// inner dimension.
func batchConfig(heads int) Config {
	return Config{InputDim: 6, InnerDim: 16, Heads: heads, Window: 4}
}

// seqReference runs the per-window sequential model over a stacked window
// matrix — the reference ForwardBatch is pinned to.
func seqReference(m *Model, windows *tensor.Tensor, batch int) *tensor.Tensor {
	t := m.Window()
	outs := make([]*tensor.Tensor, batch)
	for k := 0; k < batch; k++ {
		outs[k] = m.ForwardSeq(autograd.Constant(tensor.SliceRows(windows, k*t, (k+1)*t))).Data
	}
	return tensor.ConcatRows(outs...)
}

// TestForwardBatchEquivalence pins the one-tape batched forward to the
// sequential per-window model across batch sizes, head counts and
// train/eval mode.
func TestForwardBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, heads := range []int{1, 8} {
		m, err := New(rng, batchConfig(heads))
		if err != nil {
			t.Fatal(err)
		}
		for _, training := range []bool{false, true} {
			m.SetTraining(training)
			for _, batch := range []int{1, 2, 5} {
				name := fmt.Sprintf("heads=%d training=%v batch=%d", heads, training, batch)
				windows := tensor.RandN(rng, 1, batch*m.Window(), 6)
				got := m.ForwardBatch(autograd.Constant(windows), batch)
				if got.Data.Rows() != batch || got.Data.Cols() != 6 {
					t.Fatalf("%s: output shape %v, want (%d,6)", name, got.Shape(), batch)
				}
				want := seqReference(m, windows, batch)
				if !tensor.AllClose(got.Data, want, 1e-12) {
					t.Errorf("%s: batched output diverges from sequential model", name)
				}
			}
		}
	}
}

// TestForwardBatchGradEquivalence checks that one batched backward pass
// produces the same input and parameter gradients as the per-window
// sequential passes summed.
func TestForwardBatchGradEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	m, err := New(rng, batchConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	const batch = 3
	data := tensor.RandN(rng, 1, batch*m.Window(), 6)

	wb := autograd.Param(data.Clone())
	autograd.Sum(m.ForwardBatch(wb, batch)).Backward()
	grads := map[string]*tensor.Tensor{"windows": wb.Grad.Clone()}
	for _, p := range m.Params() {
		grads[p.Name] = p.V.Grad.Clone()
		p.V.ZeroGrad()
	}

	ws := autograd.Param(data.Clone())
	tw := m.Window()
	for k := 0; k < batch; k++ {
		autograd.Sum(m.ForwardSeq(autograd.SliceRows(ws, k*tw, (k+1)*tw))).Backward()
	}
	if !tensor.AllClose(grads["windows"], ws.Grad, 1e-9) {
		t.Error("window gradient diverges")
	}
	for _, p := range m.Params() {
		if !tensor.AllClose(grads[p.Name], p.V.Grad, 1e-9) {
			t.Errorf("param %s gradient diverges", p.Name)
		}
	}
}

// allRowsEval is the eval model run the long way, from exported ops — the
// encoder block over all batch·T rows, its attention BatchedAttentionFwd
// with every row a query, then the final norm, the last-row gather and
// out — the reference WindowsEval's last-row block is pinned to at
// any width.
func allRowsEval[T tensor.Float](m *Model, windows *tensor.Dense[T], batch int) *tensor.Dense[T] {
	s := evalOf[T](m)
	e, a := s.block, s.block.Attn
	x := s.inProj.Forward(nil, windows)
	autograd.AddTiledInPlace(x, s.pos)
	ln := e.LN1.Forward(nil, x)
	scale := T(1 / math.Sqrt(float64(m.cfg.InnerDim/m.cfg.Heads)))
	ctx := autograd.BatchedAttentionFwd(nil, a.Wq.Forward(nil, ln), a.Wk.Forward(nil, ln), a.Wv.Forward(nil, ln), batch, m.cfg.Heads, scale)
	h := tensor.AddInPlace(x, a.Wo.Forward(nil, ctx))
	ff := e.FF1.Forward(nil, e.LN2.Forward(nil, h))
	tensor.GELUInPlace(ff)
	h = tensor.AddInPlace(h, e.FF2.Forward(nil, ff))
	return s.out.Forward(nil, autograd.LastRows(nil, s.norm.Forward(nil, h), batch))
}

func requireSameBits[T tensor.Float](t *testing.T, ctx string, want, got *tensor.Dense[T]) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", ctx, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if err := kernels.CompareExact(w, got.Data()[i]); err != nil {
			t.Fatalf("%s: element %d: %v", ctx, i, err)
		}
	}
}

// TestProjectWindowsEvalMatchesTape pins the eval engine's temporal
// stage — each frame in-projected once by ProjectEval, the projected rows
// gathered into overlapping windows, and WindowsEval, whose block computes
// only the last row of each window — to the tape ForwardBatch over the
// gathered frames bit for bit at float64: one and two heads, batches 1, 2
// and 5, on every backend at one worker and at four. At float32 it
// returns the all-rows eval model's bits and stays inside the engine's
// f32 drift budget (2e-3, internal/core/precision_test.go) of the tape.
func TestProjectWindowsEvalMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	type fixture struct {
		name   string
		m      *Model
		batch  int
		frames *tensor.Tensor
		rows   []int
	}
	var cases []fixture
	for _, heads := range []int{1, 2} {
		m, err := New(rng, batchConfig(heads))
		if err != nil {
			t.Fatal(err)
		}
		m.SetTraining(false)
		tw := m.Window()
		for _, batch := range []int{1, 2, 5} {
			name := fmt.Sprintf("heads=%d batch=%d", heads, batch)
			rows := make([]int, 0, batch*tw)
			for k := 0; k < batch; k++ {
				for i := 0; i < tw; i++ {
					rows = append(rows, k+i)
				}
			}
			cases = append(cases, fixture{name, m, batch, tensor.RandN(rng, 1, batch+tw-1, 6), rows})
		}
	}
	const budget = 2e-3
	for _, name := range kernels.Names() {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			prev := parallel.SetWorkers(workers)
			for _, c := range cases {
				ctx := fmt.Sprintf("%s/workers=%d/%s", name, workers, c.name)
				tape := c.m.ForwardBatch(autograd.Constant(tensor.Gather(c.frames, c.rows)), c.batch).Data
				got := WindowsEval(nil, c.m, tensor.Gather(ProjectEval(nil, c.m, c.frames), c.rows), c.batch)
				requireSameBits(t, ctx+"/f64", tape, got)

				f32 := tensor.Narrow[float32](c.frames)
				got32 := WindowsEval(nil, c.m, tensor.Gather(ProjectEval(nil, c.m, f32), c.rows), c.batch)
				requireSameBits(t, ctx+"/f32", allRowsEval(c.m, tensor.Gather(f32, c.rows), c.batch), got32)
				for i, v := range got32.Data() {
					if d := math.Abs(float64(v) - tape.Data()[i]); d > budget {
						t.Fatalf("%s/f32: element %d drifts %.2e from the tape, budget %.0e", ctx, i, d, budget)
					}
				}
			}
			parallel.SetWorkers(prev)
		}
		restore()
	}
}

// TestCrossWindowIsolation perturbs one window of a batch and asserts
// every other window's batched output is bit-unchanged — a direct probe
// for block-diagonal mask bugs: any leakage across window boundaries
// changes other windows' floats.
func TestCrossWindowIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	m, err := New(rng, batchConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	const batch = 5
	tw := m.Window()
	base := tensor.RandN(rng, 1, batch*tw, 6)
	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		before := m.ForwardBatch(autograd.Constant(base), batch)
		for k := 0; k < batch; k++ {
			bumped := base.Clone()
			for i := 0; i < tw; i++ {
				row := bumped.Row(k*tw + i)
				for j := range row {
					row[j] += 3
				}
			}
			after := m.ForwardBatch(autograd.Constant(bumped), batch)
			for b := 0; b < batch; b++ {
				same := tensor.AllClose(
					tensor.SliceRows(after.Data, b, b+1),
					tensor.SliceRows(before.Data, b, b+1), 0)
				if b == k && same {
					t.Errorf("workers=%d: perturbing window %d did not change its own output", workers, k)
				}
				if b != k && !same {
					t.Errorf("workers=%d: perturbing window %d leaked into window %d", workers, k, b)
				}
			}
		}
		parallel.SetWorkers(prev)
	}
}

// TestForwardBatchWorkerDeterminism pins forward values and gradients of
// the batched temporal pass to be bit-identical whether the pool runs
// sequentially or with 4 workers (EDGEKG_WORKERS ∈ {1, 4} via its
// programmatic equivalent, parallel.SetWorkers).
func TestForwardBatchWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	m, err := New(rng, batchConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	const batch = 6
	data := tensor.RandN(rng, 1, batch*m.Window(), 6)
	run := func() (*tensor.Tensor, *tensor.Tensor) {
		for _, p := range m.Params() {
			p.V.ZeroGrad()
		}
		w := autograd.Param(data.Clone())
		out := m.ForwardBatch(w, batch)
		autograd.Sum(out).Backward()
		return out.Data, w.Grad
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	wantOut, wantGrad := run()
	parallel.SetWorkers(4)
	gotOut, gotGrad := run()
	if !tensor.AllClose(gotOut, wantOut, 0) {
		t.Error("batched forward not bit-identical across worker counts")
	}
	if !tensor.AllClose(gotGrad, wantGrad, 0) {
		t.Error("batched backward not bit-identical across worker counts")
	}
}

// TestGradCheckThroughForwardBatch verifies the full batched tape —
// projection, AddTiled, fused attention, LayerNorm, the last-row gathers —
// against finite differences.
func TestGradCheckThroughForwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	m, err := New(rng, Config{InputDim: 6, InnerDim: 8, Heads: 2, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	windows := autograd.Param(tensor.RandN(rng, 0.5, 2*3, 6))
	f := func() *autograd.Value { return autograd.Mean(m.ForwardBatch(windows, 2)) }
	if err := autograd.GradCheck(f, []*autograd.Value{windows}, 1e-6, 1e-4); err != nil {
		t.Error(err)
	}
}

// TestForwardBatchValidation checks the batch guard and that the row
// mismatch panic reports the expected row count as a product, not a
// formula.
func TestForwardBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	m, err := New(rng, batchConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	recovered := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	if msg := recovered(func() { m.ForwardBatch(autograd.Constant(tensor.New(4, 6)), 0) }); !strings.Contains(msg, "batch 0 must be ≥ 1") {
		t.Errorf("batch=0 panic = %q, want batch validation", msg)
	}
	msg := recovered(func() { m.ForwardBatch(autograd.Constant(tensor.New(9, 6)), 2) })
	if !strings.Contains(msg, "want 8 (batch 2 × window 4)") {
		t.Errorf("row mismatch panic = %q, want product form", msg)
	}
	if msg := recovered(func() { m.ForwardBatch(autograd.Constant(tensor.New(8, 5)), 2) }); !strings.Contains(msg, "input dim") {
		t.Errorf("dim mismatch panic = %q, want input dim validation", msg)
	}
}
