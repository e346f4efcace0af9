package autograd

import (
	"math/rand"
	"testing"

	"edgekg/internal/tensor"
)

// TestFusedMatchesComposedForward pins the fused kernel's forward to the
// composed EdgeMessage→EdgeAggregate pair bit-for-bit: same edge
// accumulation order, same reciprocal scaling.
func TestFusedMatchesComposedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := randParam(rng, 6, 4)
	src := []int{0, 1, 0, 4, 4}
	dst := []int{2, 2, 3, 3, 5}
	inLevel := []bool{false, false, true, true, false, false} // node 5 out of level with messages
	composed := EdgeAggregate(x, EdgeMessage(x, src, dst), dst, inLevel)
	fused := EdgeMessageAggregate(x, src, dst, inLevel)
	if !tensor.AllClose(fused.Data, composed.Data, 0) {
		t.Errorf("fused forward diverges from composed:\nfused %v\ncomposed %v", fused.Data, composed.Data)
	}
}

// TestFusedMatchesComposedBackward checks gradient agreement between the
// fused kernel and the composed pair on the same graph.
func TestFusedMatchesComposedBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	src := []int{0, 1, 0, 2}
	dst := []int{2, 2, 3, 3}
	inLevel := []bool{false, false, true, true, false}

	xc := randParam(rng, 5, 3)
	xf := Param(xc.Data.Clone())
	Sum(EdgeAggregate(xc, EdgeMessage(xc, src, dst), dst, inLevel)).Backward()
	Sum(EdgeMessageAggregate(xf, src, dst, inLevel)).Backward()
	if !tensor.AllClose(xf.Grad, xc.Grad, 1e-12) {
		t.Errorf("fused grad diverges from composed:\nfused %v\ncomposed %v", xf.Grad, xc.Grad)
	}
}

func TestGradFusedEdgeMessageAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := randParam(rng, 5, 3)
	src := []int{0, 1, 0}
	dst := []int{2, 2, 3}
	inLevel := []bool{false, false, true, true, false}
	f := func() *Value { return Sum(EdgeMessageAggregate(x, src, dst, inLevel)) }
	if err := GradCheck(f, []*Value{x}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

// TestTailMatchesComposedEval pins the fused layer tail (edge aggregate →
// BatchNorm eval → ELU) to the composed op chain, forward and backward.
func TestTailMatchesComposedEval(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := []int{0, 1, 0, 2}
	dst := []int{2, 2, 3, 3}
	inLevel := []bool{false, false, true, true, false}
	rm := tensor.RandN(rng, 0.3, 3)
	rv := tensor.MapInPlace(tensor.RandN(rng, 0.3, 3), func(v float64) float64 { return v*v + 0.5 })
	const eps = 1e-5

	xc := randParam(rng, 5, 3)
	gc, bc := randParam(rng, 3), randParam(rng, 3)
	xf := Param(xc.Data.Clone())
	gf, bf := Param(gc.Data.Clone()), Param(bc.Data.Clone())

	composed := ELU(BatchNormEval(EdgeMessageAggregate(xc, src, dst, inLevel), gc, bc, rm, rv, eps))
	fused := EdgeAggNormActEval(xf, gf, bf, src, dst, inLevel, rm, rv, eps)
	if !tensor.AllClose(fused.Data, composed.Data, 0) {
		t.Fatalf("fused eval tail diverges:\nfused %v\ncomposed %v", fused.Data, composed.Data)
	}
	Sum(composed).Backward()
	Sum(fused).Backward()
	if !tensor.AllClose(xf.Grad, xc.Grad, 1e-12) {
		t.Errorf("x grad diverges:\nfused %v\ncomposed %v", xf.Grad, xc.Grad)
	}
	if !tensor.AllClose(gf.Grad, gc.Grad, 1e-12) {
		t.Errorf("gamma grad diverges:\nfused %v\ncomposed %v", gf.Grad, gc.Grad)
	}
	if !tensor.AllClose(bf.Grad, bc.Grad, 1e-12) {
		t.Errorf("beta grad diverges:\nfused %v\ncomposed %v", bf.Grad, bc.Grad)
	}
}

// TestTailMatchesComposedTrain does the same for the training-mode tail,
// including the returned batch statistics.
func TestTailMatchesComposedTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := []int{0, 1, 0, 2}
	dst := []int{2, 2, 3, 3}
	inLevel := []bool{false, false, true, true, false}
	const eps = 1e-5

	xc := randParam(rng, 5, 3)
	gc, bc := randParam(rng, 3), randParam(rng, 3)
	xf := Param(xc.Data.Clone())
	gf, bf := Param(gc.Data.Clone()), Param(bc.Data.Clone())

	bnOut, cMean, cVar := BatchNormTrain(EdgeMessageAggregate(xc, src, dst, inLevel), gc, bc, eps)
	composed := ELU(bnOut)
	fused, fMean, fVar := EdgeAggNormActTrain(xf, gf, bf, src, dst, inLevel, eps)
	if !tensor.AllClose(fused.Data, composed.Data, 0) {
		t.Fatalf("fused train tail diverges:\nfused %v\ncomposed %v", fused.Data, composed.Data)
	}
	if !tensor.AllClose(fMean, cMean, 0) || !tensor.AllClose(fVar, cVar, 0) {
		t.Errorf("batch statistics diverge: mean %v vs %v, var %v vs %v", fMean, cMean, fVar, cVar)
	}
	Sum(composed).Backward()
	Sum(fused).Backward()
	if !tensor.AllClose(xf.Grad, xc.Grad, 1e-12) {
		t.Errorf("x grad diverges:\nfused %v\ncomposed %v", xf.Grad, xc.Grad)
	}
	if !tensor.AllClose(gf.Grad, gc.Grad, 1e-12) {
		t.Errorf("gamma grad diverges:\nfused %v\ncomposed %v", gf.Grad, gc.Grad)
	}
	if !tensor.AllClose(bf.Grad, bc.Grad, 1e-12) {
		t.Errorf("beta grad diverges:\nfused %v\ncomposed %v", bf.Grad, bc.Grad)
	}
}

func TestGradFusedTails(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	src := []int{0, 1, 0}
	dst := []int{2, 2, 3}
	inLevel := []bool{false, false, true, true, false}
	x := randParam(rng, 5, 3)
	gamma := randParam(rng, 3)
	beta := randParam(rng, 3)
	rm := tensor.RandN(rng, 0.3, 3)
	rv := tensor.MapInPlace(tensor.RandN(rng, 0.3, 3), func(v float64) float64 { return v*v + 0.5 })

	evalF := func() *Value {
		return Sum(EdgeAggNormActEval(x, gamma, beta, src, dst, inLevel, rm, rv, 1e-5))
	}
	if err := GradCheck(evalF, []*Value{x, gamma, beta}, 1e-6, 1e-6); err != nil {
		t.Errorf("eval tail: %v", err)
	}
	trainF := func() *Value {
		out, _, _ := EdgeAggNormActTrain(x, gamma, beta, src, dst, inLevel, 1e-5)
		return Sum(out)
	}
	if err := GradCheck(trainF, []*Value{x, gamma, beta}, 1e-6, 1e-5); err != nil {
		t.Errorf("train tail: %v", err)
	}
}

func TestGradAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := randParam(rng, 3, 4)
	w := randParam(rng, 4, 2)
	b := randParam(rng, 2)
	f := func() *Value { return Sum(Affine(x, w, b)) }
	if err := GradCheck(f, []*Value{x, w, b}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
	// Affine must equal MatMul+AddRow exactly.
	want := AddRow(MatMul(x, w), b)
	if !tensor.AllClose(Affine(x, w, b).Data, want.Data, 0) {
		t.Error("Affine diverges from MatMul+AddRow")
	}
}

// TestAssembleBatchMatchesConcatPath verifies AssembleBatch against the
// SliceRows/ConcatRows construction it replaced, forward and backward.
func TestAssembleBatchMatchesConcatPath(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const b, v, d = 3, 4, 5
	frameRow := 1
	framesA := randParam(rng, b, d)
	framesB := Param(framesA.Data.Clone())
	tokA := randParam(rng, 1, d) // shared row at index 2
	tokB := Param(tokA.Data.Clone())

	// Reference: the old per-sample assembly.
	ones := Constant(tensor.Ones(1, d))
	var perSample []*Value
	for k := 0; k < b; k++ {
		sensor := SliceRows(framesA, k, k+1)
		for i := 0; i < v; i++ {
			switch i {
			case frameRow:
				perSample = append(perSample, sensor)
			case 2:
				perSample = append(perSample, tokA)
			default:
				perSample = append(perSample, ones)
			}
		}
	}
	ref := ConcatRows(perSample...)

	got := AssembleBatch(framesB, tokB, []int{-1, -1, 0, -1}, frameRow, 1)

	if !tensor.AllClose(got.Data, ref.Data, 0) {
		t.Fatalf("AssembleBatch forward diverges:\ngot %v\nref %v", got.Data, ref.Data)
	}

	// Same upstream gradient through both paths.
	seed := tensor.RandN(rng, 1, b*v, d)
	ref.BackwardWith(seed.Clone())
	got.BackwardWith(seed.Clone())
	if !tensor.AllClose(framesB.Grad, framesA.Grad, 1e-12) {
		t.Errorf("frames grad diverges:\ngot %v\nref %v", framesB.Grad, framesA.Grad)
	}
	if !tensor.AllClose(tokB.Grad, tokA.Grad, 1e-12) {
		t.Errorf("shared token grad diverges:\ngot %v\nref %v", tokB.Grad, tokA.Grad)
	}
}

func TestGradAssembleBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const b, d = 2, 4
	frames := randParam(rng, b, d)
	feats := randParam(rng, 2, d)
	f := func() *Value { return Sum(AssembleBatch(frames, feats, []int{-1, 1, 0}, 0, 1)) }
	if err := GradCheck(f, []*Value{frames, feats}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestGradMeanRowsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := randParam(rng, 3, 4) // different row counts per bank
	b := randParam(rng, 1, 4)
	f := func() *Value { return Sum(MeanRowsBatch([]*Value{a, b})) }
	if err := GradCheck(f, []*Value{a, b}, 1e-6, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestMeanRowsBatchMatchesPerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	banks := []*Value{randParam(rng, 3, 4), randParam(rng, 1, 4), randParam(rng, 5, 4)}
	got := MeanRowsBatch(banks)
	for i, b := range banks {
		want := MeanRows(b)
		for j := 0; j < 4; j++ {
			if got.Data.At2(i, j) != want.Data.At2(0, j) {
				t.Errorf("bank %d col %d: %v vs %v", i, j, got.Data.At2(i, j), want.Data.At2(0, j))
			}
		}
	}
}

func TestAssembleBatchValidation(t *testing.T) {
	frames := Constant(tensor.Ones(2, 3))
	deferPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	deferPanic("empty template", func() { AssembleBatch(frames, nil, nil, 0, 0) })
	deferPanic("frame row out of range", func() { AssembleBatch(frames, nil, []int{-1, -1}, 5, 0) })
	deferPanic("feat row out of range", func() {
		AssembleBatch(frames, Constant(tensor.Ones(1, 3)), []int{-1, 4}, 0, 0)
	})
	deferPanic("bad feats width", func() {
		AssembleBatch(frames, Constant(tensor.Ones(1, 2)), []int{-1, 0}, 0, 0)
	})
}
