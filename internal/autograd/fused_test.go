package autograd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// fusedTail runs one fused layer tail (train or eval BatchNorm) over
// copies stacked graph copies of per-copy lists src/dst, and composedTail
// the composed reference — EdgeAggregate(x, EdgeMessage(x, …), …) →
// BatchNorm → ELU — over the stacked lists. Both return the output and
// the batch statistics (nil in eval mode).
func fusedTail(train bool, x, gamma, beta *Value, src, dst []int, copies int, rm, rv *tensor.Tensor) (out *Value, mean, variance *tensor.Tensor) {
	if train {
		return EdgeAggNormActTrain(x, gamma, beta, src, dst, copies, 1e-5)
	}
	return EdgeAggNormActEval(x, gamma, beta, src, dst, copies, rm, rv, 1e-5), nil, nil
}

func composedTail(train bool, x, gamma, beta *Value, src, dst []int, v, copies int, rm, rv *tensor.Tensor) (out *Value, mean, variance *tensor.Tensor) {
	allSrc, allDst, inLevel := stackCopies(src, dst, v, copies)
	agg := EdgeAggregate(x, EdgeMessage(x, allSrc, allDst), allDst, inLevel)
	if train {
		bn, mean, variance := BatchNormTrain(agg, gamma, beta, 1e-5)
		return ELU(bn), mean, variance
	}
	return ELU(BatchNormEval(agg, gamma, beta, rm, rv, 1e-5)), nil, nil
}

// runningStats draws frozen BatchNorm statistics of width d.
func runningStats(rng *rand.Rand, d int) (rm, rv *tensor.Tensor) {
	rm = tensor.RandN(rng, 0.3, d)
	rv = tensor.RandN(rng, 0.3, d)
	for i, v := range rv.Data() {
		rv.Data()[i] = v*v + 0.5
	}
	return rm, rv
}

// TestFusedMatchesComposedForward pins both fused tails' forward to the
// composed reference bit-for-bit on a hand-built group — level 0 is rows
// 0–1, level 1 rows 2–3, row 4 lies past the group — at one, two and five
// stacked copies: same edge accumulation order, same reciprocal scaling,
// same batch statistics.
func TestFusedMatchesComposedForward(t *testing.T) {
	src := []int{0, 1, 0, 1}
	dst := []int{2, 2, 3, 3}
	for _, copies := range []int{1, 2, 5} {
		rng := rand.New(rand.NewSource(31))
		x := randParam(rng, 5*copies, 4)
		gamma, beta := randParam(rng, 4), randParam(rng, 4)
		rm, rv := runningStats(rng, 4)
		for _, train := range []bool{false, true} {
			fused, fMean, fVar := fusedTail(train, x, gamma, beta, src, dst, copies, rm, rv)
			composed, cMean, cVar := composedTail(train, x, gamma, beta, src, dst, 5, copies, rm, rv)
			if !tensor.AllClose(fused.Data, composed.Data, 0) {
				t.Errorf("copies %d, train %v: fused forward diverges from composed:\nfused %v\ncomposed %v", copies, train, fused.Data, composed.Data)
			}
			if train && (!tensor.AllClose(fMean, cMean, 0) || !tensor.AllClose(fVar, cVar, 0)) {
				t.Errorf("copies %d: batch statistics diverge: mean %v vs %v, var %v vs %v", copies, fMean, cMean, fVar, cVar)
			}
		}
	}
}

// TestFusedMatchesComposedBackward checks gradient agreement between both
// fused tails and the composed reference on the same hand-built group, at
// one, two and five stacked copies.
func TestFusedMatchesComposedBackward(t *testing.T) {
	src := []int{0, 1, 0, 1}
	dst := []int{2, 2, 3, 3}
	for _, copies := range []int{1, 2, 5} {
		rng := rand.New(rand.NewSource(32))
		xc := randParam(rng, 5*copies, 3)
		gc, bc := randParam(rng, 3), randParam(rng, 3)
		rm, rv := runningStats(rng, 3)
		for _, train := range []bool{false, true} {
			xf := Param(xc.Data.Clone())
			gf, bf := Param(gc.Data.Clone()), Param(bc.Data.Clone())
			xc.Grad, gc.Grad, bc.Grad = nil, nil, nil
			fused, _, _ := fusedTail(train, xf, gf, bf, src, dst, copies, rm, rv)
			composed, _, _ := composedTail(train, xc, gc, bc, src, dst, 5, copies, rm, rv)
			Sum(fused).Backward()
			Sum(composed).Backward()
			for _, p := range []struct {
				name string
				f, c *Value
			}{{"x", xf, xc}, {"gamma", gf, gc}, {"beta", bf, bc}} {
				if !tensor.AllClose(p.f.Grad, p.c.Grad, 1e-12) {
					t.Errorf("copies %d, train %v: %s grad diverges:\nfused %v\ncomposed %v", copies, train, p.name, p.f.Grad, p.c.Grad)
				}
			}
		}
	}
}

// TestTailMatchesComposedEval pins the eval tail to the composed op chain,
// forward and backward, on random per-copy leveled groups of 1–12 rows
// over 1–4 copies.
func TestTailMatchesComposedEval(t *testing.T) { tailMatchesComposed(t, false, 41) }

// TestTailMatchesComposedTrain does the same for the training-mode tail,
// including the returned batch statistics.
func TestTailMatchesComposedTrain(t *testing.T) { tailMatchesComposed(t, true, 42) }

func tailMatchesComposed(t *testing.T, train bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 20; trial++ {
		v, copies, d := 1+rng.Intn(12), 1+rng.Intn(4), 1+rng.Intn(5)
		src, dst := edgeCase(rng, v)
		xc := randParam(rng, v*copies, d)
		gc, bc := randParam(rng, d), randParam(rng, d)
		rm, rv := runningStats(rng, d)
		xf := Param(xc.Data.Clone())
		gf, bf := Param(gc.Data.Clone()), Param(bc.Data.Clone())
		ctx := fmt.Sprintf("%d rows × %d copies, %d edges, width %d", v, copies, len(src), d)

		fused, fMean, fVar := fusedTail(train, xf, gf, bf, src, dst, copies, rm, rv)
		composed, cMean, cVar := composedTail(train, xc, gc, bc, src, dst, v, copies, rm, rv)
		if !tensor.AllClose(fused.Data, composed.Data, 0) {
			t.Fatalf("%s: fused tail diverges:\nfused %v\ncomposed %v", ctx, fused.Data, composed.Data)
		}
		if train && (!tensor.AllClose(fMean, cMean, 0) || !tensor.AllClose(fVar, cVar, 0)) {
			t.Errorf("%s: batch statistics diverge: mean %v vs %v, var %v vs %v", ctx, fMean, cMean, fVar, cVar)
		}
		Sum(composed).Backward()
		Sum(fused).Backward()
		for _, p := range []struct {
			name string
			f, c *Value
		}{{"x", xf, xc}, {"gamma", gf, gc}, {"beta", bf, bc}} {
			if !tensor.AllClose(p.f.Grad, p.c.Grad, 1e-12) {
				t.Errorf("%s: %s grad diverges:\nfused %v\ncomposed %v", ctx, p.name, p.f.Grad, p.c.Grad)
			}
		}
	}
}

// TestLevelTailMatchesEvalTail pins EdgeAggNormActEvalLevel to the eval
// tail's destination rows bit for bit, on every backend: random groups of
// 1–5 source and 1–5 destination rows over 1–4 copies, in shuffled edge
// order, where the tail reads every copy's destination rows from its own
// input and the level kernel reads them once from to. A destination with
// no incoming edge passes through in both.
func TestLevelTailMatchesEvalTail(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		n, m, copies, d := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(5)
		var src, dst []int
		for k := 0; k < m; k++ {
			for s := 0; s < n; s++ {
				if rng.Intn(2) == 0 {
					src, dst = append(src, s), append(dst, k)
				}
			}
		}
		rng.Shuffle(len(src), func(i, j int) {
			src[i], src[j] = src[j], src[i]
			dst[i], dst[j] = dst[j], dst[i]
		})
		from, to := tensor.RandN(rng, 1, copies*n, d), tensor.RandN(rng, 1, m, d)
		x := tensor.New(copies*(n+m), d)
		for k := 0; k < copies; k++ {
			copy(x.Data()[k*(n+m)*d:], from.Data()[k*n*d:(k+1)*n*d])
			copy(x.Data()[(k*(n+m)+n)*d:], to.Data())
		}
		full := make([]int, len(dst))
		for e, t := range dst {
			full[e] = n + t
		}
		gamma, beta := tensor.RandN(rng, 1, d), tensor.RandN(rng, 1, d)
		rm, rv := runningStats(rng, d)
		ctx := fmt.Sprintf("%d→%d rows × %d copies, %d edges, width %d", n, m, copies, len(src), d)
		for _, name := range kernels.Names() {
			restore, err := kernels.Use(name)
			if err != nil {
				t.Fatal(err)
			}
			want := EdgeAggNormActEval(Constant(x), Constant(gamma), Constant(beta), src, full, copies, rm, rv, 1e-5).Data
			ws := tensor.NewWorkspace()
			got := EdgeAggNormActEvalLevel(ws, from, n, to.Data(), gamma.Data(), beta.Data(), rm.Data(), InvStd(make([]float64, d), rv, 1e-5), src, dst)
			for k := 0; k < copies; k++ {
				for i := 0; i < m; i++ {
					w, g := want.Row(k*(n+m)+n+i), got.Row(k*m+i)
					for j := range w {
						if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
							t.Fatalf("%s on %s: copy %d row %d col %d: level %.17g, tail %.17g", ctx, name, k, i, j, g[j], w[j])
						}
					}
				}
			}
			ws.Release()
			restore()
		}
	}
}

// TestGradFusedTails grad-checks both tails over two stacked copies of a
// group with a level-1 row (4) past it.
func TestGradFusedTails(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	src := []int{0, 1, 0}
	dst := []int{2, 2, 3}
	x := randParam(rng, 2*5, 3)
	gamma := randParam(rng, 3)
	beta := randParam(rng, 3)
	rm, rv := runningStats(rng, 3)

	evalF := func() *Value {
		return Sum(EdgeAggNormActEval(x, gamma, beta, src, dst, 2, rm, rv, 1e-5))
	}
	if err := GradCheck(evalF, []*Value{x, gamma, beta}, 1e-6, 1e-6); err != nil {
		t.Errorf("eval tail: %v", err)
	}
	trainF := func() *Value {
		out, _, _ := EdgeAggNormActTrain(x, gamma, beta, src, dst, 2, 1e-5)
		return Sum(out)
	}
	if err := GradCheck(trainF, []*Value{x, gamma, beta}, 1e-6, 1e-5); err != nil {
		t.Errorf("train tail: %v", err)
	}
}

// TestEdgeListsValidated pins checkEdgeLists' panics: rows that do not
// split into the copies, a copy count below one, mismatched lists and an
// index outside one copy's rows.
func TestEdgeListsValidated(t *testing.T) {
	x := Param(tensor.Ones(6, 2))
	g, b := Param(tensor.Ones(2)), Param(tensor.Ones(2))
	for _, c := range []struct {
		name     string
		src, dst []int
		copies   int
	}{
		{"rows do not split", []int{0}, []int{1}, 4},
		{"no copies", []int{0}, []int{1}, 0},
		{"list lengths", []int{0, 1}, []int{2}, 2},
		{"destination past the copy", []int{0}, []int{3}, 2},
		{"negative source", []int{-1}, []int{1}, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			EdgeAggNormActTrain(x, g, b, c.src, c.dst, c.copies, 1e-5)
		}()
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
