package autograd

import (
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

func randParam(rng *rand.Rand, shape ...int) *Value {
	return Param(tensor.RandN(rng, 1, shape...))
}

func TestBackwardSimpleChain(t *testing.T) {
	// y = sum(3 * (a + b)) ; dy/da = dy/db = 3 everywhere.
	a := Param(tensor.FromSlice([]float64{1, 2}, 2))
	b := Param(tensor.FromSlice([]float64{3, 4}, 2))
	y := Sum(Scale(Add(a, b), 3))
	if got := y.Scalar(); got != 30 {
		t.Fatalf("forward = %v, want 30", got)
	}
	y.Backward()
	want := tensor.Full(3, 2)
	if !tensor.AllClose(a.Grad, want, 1e-12) || !tensor.AllClose(b.Grad, want, 1e-12) {
		t.Errorf("grads a=%v b=%v, want 3s", a.Grad, b.Grad)
	}
}

func TestGradAccumulationAcrossBackward(t *testing.T) {
	a := Param(tensor.FromSlice([]float64{1}, 1))
	y1 := Scale(a, 2)
	y1.Backward()
	y2 := Scale(a, 5)
	y2.Backward()
	if got := a.Grad.Data()[0]; got != 7 {
		t.Errorf("accumulated grad = %v, want 7", got)
	}
	a.ZeroGrad()
	if a.Grad != nil {
		t.Error("ZeroGrad did not clear")
	}
}

func TestDiamondGraphAccumulation(t *testing.T) {
	// y = sum(a*a) via two paths: y = sum(Mul(a, a)); dy/da = 2a.
	a := Param(tensor.FromSlice([]float64{2, -3}, 2))
	y := Sum(Mul(a, a))
	y.Backward()
	want := tensor.FromSlice([]float64{4, -6}, 2)
	if !tensor.AllClose(a.Grad, want, 1e-12) {
		t.Errorf("grad = %v, want %v", a.Grad, want)
	}
}

func TestConstantFoldsOutOfGraph(t *testing.T) {
	c := Constant(tensor.Ones(2))
	d := Constant(tensor.Ones(2))
	y := Add(c, d)
	if y.RequiresGrad() {
		t.Error("op on constants must not require grad")
	}
	y2 := Sum(y)
	y2.Backward() // must be a no-op, not a panic
}

func TestDetachCutsGraph(t *testing.T) {
	a := Param(tensor.FromSlice([]float64{5}, 1))
	y := Sum(Scale(a.Detach(), 3))
	y.Backward()
	if a.Grad != nil {
		t.Error("gradient flowed through Detach")
	}
}

func TestNoGradIntoFrozenBranch(t *testing.T) {
	// Frozen weight, trainable input: exactly the deployment-time setup.
	frozen := Constant(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	x := Param(tensor.FromSlice([]float64{1, 1}, 1, 2))
	y := Sum(MatMul(x, frozen))
	y.Backward()
	if frozen.Grad != nil {
		t.Error("gradient accumulated into frozen parameter")
	}
	if x.Grad == nil {
		t.Fatal("no gradient reached trainable input through frozen op")
	}
	want := tensor.FromSlice([]float64{3, 7}, 1, 2)
	if !tensor.AllClose(x.Grad, want, 1e-12) {
		t.Errorf("x grad = %v, want %v", x.Grad, want)
	}
}

func TestBackwardSeedShapeMismatch(t *testing.T) {
	a := Param(tensor.Ones(2, 2))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad seed shape")
		}
	}()
	a.BackwardWith(tensor.Ones(3))
}

// --- Gradient checks for every differentiable op ---

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 2)
	f := func() *Value { return Sum(MatMul(a, b)) }
	if err := GradCheck(f, []*Value{a, b}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestGradMatMulT2(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 5, 4)
	f := func() *Value { return Mean(MatMulT2(a, b)) }
	if err := GradCheck(f, []*Value{a, b}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestGradElementwiseOps(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 2, 3)
	cases := []struct {
		name string
		f    func() *Value
	}{
		{"add", func() *Value { return Sum(Add(a, b)) }},
		{"sub", func() *Value { return Sum(Sub(a, b)) }},
		{"mul", func() *Value { return Sum(Mul(a, b)) }},
		{"scale", func() *Value { return Sum(Scale(a, -2.5)) }},
		{"mean", func() *Value { return Mean(Mul(a, b)) }},
	}
	for _, c := range cases {
		if err := GradCheck(c.f, []*Value{a, b}, 1e-6, 1e-6); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		name string
		op   func(*Value) *Value
	}{
		{"elu", ELU},
		{"gelu", GELU},
	}
	for _, c := range cases {
		a := randParam(rng, 3, 3)
		// Shift away from 0 to avoid the ELU kink in finite differences.
		for i, v := range a.Data.Data() {
			if math.Abs(v) < 0.05 {
				a.Data.Data()[i] = 0.1
			}
		}
		f := func() *Value { return Sum(c.op(a)) }
		if err := GradCheck(f, []*Value{a}, 1e-6, 1e-5); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestGELUIsTheTanhExpression pins GELU's forward, on every backend, to
// the expression the tape evaluated per element before the forward
// became a backend kernel: the tanh-approximated GELU in Go's order, bit
// for bit, across all three of math.Tanh's branches and the special
// values. The float32 engine's GELUInPlace is that expression rounded.
func TestGELUIsTheTanhExpression(t *testing.T) {
	want := func(x float64) float64 {
		return 0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x)))
	}
	rng := rand.New(rand.NewSource(55))
	x := []float64{0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1060, 1e-300, 0.7, -0.7, 0.8, -0.8,
		10.5, -10.5, 11, -11, 1e104, -1e104, math.Inf(1), math.Inf(-1), math.NaN()}
	for len(x) < 1027 {
		x = append(x, rng.NormFloat64()*math.Ldexp(1, rng.Intn(8)-4))
	}
	for _, name := range kernels.Names() {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		got := GELU(Constant(tensor.FromSlice(append([]float64(nil), x...), len(x)))).Data.Data()
		x32 := make([]float32, len(x))
		for i, v := range x {
			x32[i] = float32(v)
		}
		got32 := tensor.GELUInPlace(tensor.FromSlice(append([]float32(nil), x32...), len(x32))).Data()
		restore()
		for i, v := range x {
			if g, w := math.Float64bits(got[i]), math.Float64bits(want(v)); g != w {
				t.Fatalf("%s: GELU(%v) = %#x, want %#x", name, v, g, w)
			}
			w32 := float32(want(float64(x32[i])))
			if g, w := math.Float32bits(got32[i]), math.Float32bits(w32); g != w {
				t.Fatalf("%s: f32 GELU(%v) = %#x, want %#x", name, x32[i], g, w)
			}
		}
	}
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randParam(rng, 3, 4)
	w := Constant(tensor.RandN(rng, 1, 3, 4))
	f := func() *Value { return Sum(Mul(SoftmaxRows(a), w)) }
	if err := GradCheck(f, []*Value{a}, 1e-6, 1e-6); err != nil {
		t.Errorf("softmax: %v", err)
	}
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randParam(rng, 4, 3)
	labels := []int{0, 2, 1, 2}
	f := func() *Value { return CrossEntropy(a, labels) }
	if err := GradCheck(f, []*Value{a}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestCrossEntropyValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := Param(tensor.New(2, 4))
	loss := CrossEntropy(logits, []int{0, 3})
	if got, want := loss.Scalar(), math.Log(4); math.Abs(got-want) > 1e-12 {
		t.Errorf("loss = %v, want %v", got, want)
	}
}

func TestGradBinaryScoreLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randParam(rng, 3, 4)
	targets := []float64{1, 0, 0.5}
	f := func() *Value { return BinaryScoreLoss(a, targets) }
	if err := GradCheck(f, []*Value{a}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestGradSmoothnessAndSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randParam(rng, 6, 1)
	for i, v := range a.Data.Data() {
		if math.Abs(v) < 0.05 {
			a.Data.Data()[i] = 0.2 // keep away from |x| kink
		}
	}
	if err := GradCheck(func() *Value { return SmoothnessPenalty(a) }, []*Value{a}, 1e-6, 1e-6); err != nil {
		t.Errorf("smoothness: %v", err)
	}
	if err := GradCheck(func() *Value { return SparsityPenalty(a) }, []*Value{a}, 1e-6, 1e-6); err != nil {
		t.Errorf("sparsity: %v", err)
	}
}

func TestGradGatherConcatSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randParam(rng, 4, 3)
	b := randParam(rng, 4, 2)
	cases := []struct {
		name string
		f    func() *Value
	}{
		{"gatherrows", func() *Value { return Sum(GatherRows(a, []int{0, 2, 2, 3})) }},
		{"concatcols", func() *Value { return Sum(ConcatCols(a, b)) }},
		{"concatrows", func() *Value { return Sum(ConcatRows(a, SliceRows(a, 0, 2))) }},
		{"slicecols", func() *Value { return Sum(SliceCols(a, 1, 3)) }},
		{"slicerows", func() *Value { return Sum(SliceRows(a, 1, 4)) }},
		{"meanrows", func() *Value { return Sum(MeanRows(a)) }},
	}
	for _, c := range cases {
		if err := GradCheck(c.f, []*Value{a, b}, 1e-6, 1e-6); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestGradAddRowBias(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m := randParam(rng, 3, 4)
	b := randParam(rng, 4)
	f := func() *Value { return Sum(AddRow(m, b)) }
	if err := GradCheck(f, []*Value{m, b}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestGradEdgeMessageAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Tiny hierarchical KG: nodes 0,1 feed nodes 2,3; node 4 is outside the
	// level and must pass through.
	x := randParam(rng, 5, 3)
	src := []int{0, 1, 0}
	dst := []int{2, 2, 3}
	inLevel := []bool{false, false, true, true, false}
	f := func() *Value {
		msgs := EdgeMessage(x, src, dst)
		return Sum(EdgeAggregate(x, msgs, dst, inLevel))
	}
	if err := GradCheck(f, []*Value{x}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestEdgeAggregateSemantics(t *testing.T) {
	// Node 2 receives mean of two messages, node 3 one message, node 4
	// passes through, in-level node with no in-edges keeps its embedding.
	x := Param(tensor.FromSlice([]float64{
		1, 1,
		2, 2,
		10, 10,
		20, 20,
		30, 30,
		40, 40,
	}, 6, 2))
	src := []int{0, 1, 0}
	dst := []int{2, 2, 3}
	inLevel := []bool{false, false, true, true, false, true} // node 5 in-level, no edges
	msgs := EdgeMessage(x, src, dst)
	// messages: (1*10,1*10)=(10,10); (2*10,2*10)=(20,20); (1*20,1*20)=(20,20)
	out := EdgeAggregate(x, msgs, dst, inLevel)
	want := tensor.FromSlice([]float64{
		1, 1, // pass-through (not in level)
		2, 2,
		15, 15, // mean of 10,20
		20, 20, // single message
		30, 30, // pass-through
		40, 40, // in-level but no in-edges: keep embedding
	}, 6, 2)
	if !tensor.AllClose(out.Data, want, 1e-12) {
		t.Errorf("aggregate = %v\nwant %v", out.Data, want)
	}
}

func TestGradBatchNormTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randParam(rng, 6, 3)
	gamma := Param(tensor.RandUniform(rng, 0.5, 1.5, 3))
	beta := randParam(rng, 3)
	w := Constant(tensor.RandN(rng, 1, 6, 3))
	f := func() *Value {
		out, _, _ := BatchNormTrain(x, gamma, beta, 1e-5)
		return Sum(Mul(out, w))
	}
	if err := GradCheck(f, []*Value{x, gamma, beta}, 1e-6, 1e-5); err != nil {
		t.Error(err)
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := randParam(rng, 64, 4)
	gamma := Param(tensor.Ones(4))
	beta := Param(tensor.New(4))
	out, mean, variance := BatchNormTrain(x, gamma, beta, 1e-8)
	// Output columns must be ~N(0,1).
	om := tensor.MeanAxis0(out.Data)
	ov := tensor.VarAxis0(out.Data)
	for j := 0; j < 4; j++ {
		if math.Abs(om.Data()[j]) > 1e-9 {
			t.Errorf("col %d mean %v", j, om.Data()[j])
		}
		if math.Abs(ov.Data()[j]-1) > 1e-6 {
			t.Errorf("col %d var %v", j, ov.Data()[j])
		}
	}
	if !tensor.AllClose(mean, tensor.MeanAxis0(x.Data), 1e-12) {
		t.Error("returned batch mean mismatch")
	}
	if !tensor.AllClose(variance, tensor.VarAxis0(x.Data), 1e-12) {
		t.Error("returned batch var mismatch")
	}
}

func TestGradBatchNormEval(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	x := randParam(rng, 4, 3)
	gamma := Param(tensor.RandUniform(rng, 0.5, 1.5, 3))
	beta := randParam(rng, 3)
	rm := tensor.RandN(rng, 1, 3)
	rv := tensor.RandUniform(rng, 0.5, 2, 3)
	f := func() *Value {
		return Sum(BatchNormEval(x, gamma, beta, rm, rv, 1e-5))
	}
	if err := GradCheck(f, []*Value{x, gamma, beta}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	x := randParam(rng, 4, 5)
	gamma := Param(tensor.RandUniform(rng, 0.5, 1.5, 5))
	beta := randParam(rng, 5)
	w := Constant(tensor.RandN(rng, 1, 4, 5))
	f := func() *Value { return Sum(Mul(LayerNorm(x, gamma, beta, 1e-5), w)) }
	if err := GradCheck(f, []*Value{x, gamma, beta}, 1e-6, 1e-5); err != nil {
		t.Error(err)
	}
}

func TestDeepGraphBackward(t *testing.T) {
	// 2000 chained ops must not overflow anything and grad must be exact.
	a := Param(tensor.FromSlice([]float64{1}, 1))
	v := a
	step := Constant(tensor.Full(0.001, 1))
	for i := 0; i < 2000; i++ {
		v = Add(v, step)
	}
	y := Sum(v)
	y.Backward()
	if got := a.Grad.Data()[0]; got != 1 {
		t.Errorf("deep chain grad = %v, want 1", got)
	}
}

func TestScalarPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Param(tensor.Ones(2)).Scalar()
}
