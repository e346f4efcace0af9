package autograd

// Backend conformance for the fused autograd kernels, reusing the shared
// shape/payload grid from internal/tensor/kernels so the fused ops face
// the same degenerate geometries and special-value payloads as the raw
// kernels. Four pins per backend:
//
//   - Row r of an m-row MatMul and AffineFwd is the 1-row product of row
//     r at both widths: the scoring engine drops rows no score reads and
//     in-projects each frame once on the strength of it.
//   - The fused edge-aggregate forward/backward use only order-preserving
//     kernels (MulAcc, Scale, ScaledMulAcc), so their outputs must be
//     bit-identical across every backend.
//   - BatchedAttention's scores and softmax adjoint use Dot, which sums in
//     one order on every backend, so its forward and gradients must be
//     bit-identical to the scalar backend's; and within each backend the
//     fused forward must match the composed reference op chain
//     bit-for-bit, which is the invariant the temporal model's
//     equivalence suite relies on.
//   - BatchedAttentionFwd with one query per window must return exactly
//     the last-position rows of the all-queries form within every backend,
//     at both widths, on every payload, and BatchedAttention's backward
//     with one query exactly the all-queries backward under a gradient on
//     those rows alone — the temporal block of the eval engine and
//     of the tape depends on it.

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgekg/internal/parallel"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// requireBitEqual compares two equal-length float slices bit-for-bit with
// the NaN-matches-NaN rule.
func requireBitEqual(t *testing.T, ctx string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: length %d vs %d", ctx, len(ref), len(got))
	}
	for i := range ref {
		if err := kernels.CompareExact(ref[i], got[i]); err != nil {
			t.Fatalf("%s: element %d: %v", ctx, i, err)
		}
	}
}

// edgeCase draws one graph copy's edge group over v rows the way a
// strictly valid KG's layout holds it: a block of level-l rows feeds the
// block of level-(l+1) rows right after it, every level-(l+1) row has at
// least one in-edge, and the rows outside both blocks pass through. The
// edges come in random order, with shared sources and repeated
// destinations.
func edgeCase(rng *rand.Rand, v int) (src, dst []int) {
	if v < 2 {
		return nil, nil
	}
	a := rng.Intn(v - 1)         // first level-l row
	b := a + 1 + rng.Intn(v-1-a) // first level-(l+1) row
	c := b + 1 + rng.Intn(v-b)   // one past the last level-(l+1) row
	for t := b; t < c; t++ {
		n := len(dst)
		for s := a; s < b; s++ {
			if rng.Intn(2) == 0 {
				src, dst = append(src, s), append(dst, t)
			}
		}
		if len(dst) == n {
			src, dst = append(src, a+rng.Intn(b-a)), append(dst, t)
		}
	}
	rng.Shuffle(len(src), func(i, j int) {
		src[i], src[j] = src[j], src[i]
		dst[i], dst[j] = dst[j], dst[i]
	})
	return src, dst
}

// stackCopies returns the edge lists of copies stacked copies of a v-row
// graph copy, and their V(l+1) mask (every edge destination): what the
// composed reference EdgeAggregate(x, EdgeMessage(x, src, dst), dst,
// inLevel) takes where the fused tails take src, dst and copies.
func stackCopies(src, dst []int, v, copies int) (allSrc, allDst []int, inLevel []bool) {
	inLevel = make([]bool, v*copies)
	for k := 0; k < copies; k++ {
		for e := range dst {
			allSrc = append(allSrc, k*v+src[e])
			allDst = append(allDst, k*v+dst[e])
			inLevel[k*v+dst[e]] = true
		}
	}
	return allSrc, allDst, inLevel
}

// TestMatMulRowsIndependent pins the fact the scoring engine's row cuts
// rest on: row r of an m-row MatMul, and of AffineFwd, is the 1-row
// product of row r bit for bit, on every backend at both widths, for every
// payload of the shared grid (zeroinf included), at one worker and at
// four. So dropping rows no score reads, or in-projecting a frame once
// instead of once per window, changes no bit of a row that is read.
func TestMatMulRowsIndependent(t *testing.T) {
	t.Run("f64", matMulRowsIndependent[float64])
	t.Run("f32", matMulRowsIndependent[float32])
}

func matMulRowsIndependent[T tensor.Float](t *testing.T) {
	// The last geometry is large enough for the matmul to fan out.
	dims := append(slices.Clone(kernels.ConformanceDims), kernels.Dims{M: 48, K: 96, N: 16})
	requireRow := func(ctx string, want, got []T) {
		t.Helper()
		for j := range want {
			if err := kernels.CompareExact(want[j], got[j]); err != nil {
				t.Fatalf("%s: column %d: %v", ctx, j, err)
			}
		}
	}
	for _, name := range kernels.Names() {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			prev := parallel.SetWorkers(workers)
			for _, p := range kernels.ConformancePayloads {
				for di, dm := range dims {
					rng := rand.New(rand.NewSource(int64(900 + di)))
					x := tensor.FromSlice(kernels.FillAs[T](p, rng, dm.M*dm.K), dm.M, dm.K)
					w := tensor.FromSlice(kernels.FillAs[T](p, rng, dm.K*dm.N), dm.K, dm.N)
					b := kernels.FillAs[T](p, rng, dm.N)
					prod, aff := tensor.MatMulIn(nil, x, w), AffineFwd(nil, x, w, b)
					for r := 0; r < dm.M; r++ {
						ctx := fmt.Sprintf("%s/workers=%d/%s/%dx%dx%d/row %d", name, workers, p.Name, dm.M, dm.K, dm.N, r)
						row := tensor.FromSlice(slices.Clone(x.Row(r)), 1, dm.K)
						requireRow(ctx+"/MatMul", tensor.MatMulIn(nil, row, w).Data(), prod.Row(r))
						requireRow(ctx+"/AffineFwd", AffineFwd(nil, row, w, b).Data(), aff.Row(r))
					}
				}
			}
			parallel.SetWorkers(prev)
		}
		restore()
	}
}

// TestEdgeAggBackendConformance pins the fused edge message/aggregate
// forward and backward bit-for-bit across every backend on the shared
// geometry and payload grid, over three stacked graph copies of per-copy
// leveled edge lists — these kernels are built entirely from the
// order-preserving class, so no tolerance is allowed.
func TestEdgeAggBackendConformance(t *testing.T) {
	const copies = 3
	names := kernels.Names()
	for di, dm := range kernels.ConformanceDims {
		v, d := dm.M, dm.N
		n := copies * v
		rng := rand.New(rand.NewSource(int64(300 + di)))
		src, dst := edgeCase(rng, v)
		for _, p := range kernels.ConformancePayloads {
			x := make([]float64, n*d)
			g := make([]float64, n*d)
			p.Fill(rand.New(rand.NewSource(int64(400+di))), x)
			p.Fill(rand.New(rand.NewSource(int64(500+di))), g)

			var refFwd, refBwd []float64
			for _, name := range names {
				restore, err := kernels.Use(name)
				if err != nil {
					t.Fatal(err)
				}
				fwd := make([]float64, n*d)
				bwd := make([]float64, n*d)
				edgeAggForward(x, fwd, n, d, copies, src, dst)
				edgeAggBackward(x, g, bwd, n, d, copies, src, dst)
				restore()
				if refFwd == nil {
					refFwd, refBwd = fwd, bwd
					continue
				}
				ctx := name + "/" + p.Name
				requireBitEqual(t, ctx+"/edgeAggForward", refFwd, fwd)
				requireBitEqual(t, ctx+"/edgeAggBackward", refBwd, bwd)
			}
		}
	}
}

// TestEdgeAggFusedMatchesComposedPerBackend re-runs the fused-vs-composed
// equivalence pin under every backend: both fused tails over per-copy
// lists against the composed op chain over the stacked lists. Routing the
// fused inner loops through dispatch must not open a gap on any backend.
// The pin matches the established contract (fused_test.go): forward
// bit-exact, backward within 1e-12 — the fused backward interleaves the
// src/dst edge contributions where the composed path scatters all src
// contributions before all dst ones, an accumulation-order gap of a ULP
// that predates dispatch and exists identically on every backend.
func TestEdgeAggFusedMatchesComposedPerBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const v, copies, d, eps = 13, 4, 7, 1e-5
	src, dst := edgeCase(rng, v)
	allSrc, allDst, inLevel := stackCopies(src, dst, v, copies)
	xdata := tensor.RandN(rng, 1, v*copies, d)
	gamma, beta := tensor.RandN(rng, 1, d), tensor.RandN(rng, 1, d)
	rm := tensor.RandN(rng, 0.3, d)
	rv := tensor.RandN(rng, 0.3, d)
	for i, x := range rv.Data() {
		rv.Data()[i] = x*x + 0.5
	}
	for _, name := range kernels.Names() {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, train := range []bool{false, true} {
			ctx := fmt.Sprintf("%s/train=%v", name, train)
			xf, xc := Param(xdata.Clone()), Param(xdata.Clone())
			gf, gc := Constant(gamma), Constant(gamma)
			bf, bc := Constant(beta), Constant(beta)
			agg := EdgeAggregate(xc, EdgeMessage(xc, allSrc, allDst), allDst, inLevel)
			var fused, composed *Value
			if train {
				fused, _, _ = EdgeAggNormActTrain(xf, gf, bf, src, dst, copies, eps)
				bn, _, _ := BatchNormTrain(agg, gc, bc, eps)
				composed = ELU(bn)
			} else {
				fused = EdgeAggNormActEval(xf, gf, bf, src, dst, copies, rm, rv, eps)
				composed = ELU(BatchNormEval(agg, gc, bc, rm, rv, eps))
			}
			requireBitEqual(t, ctx+"/forward", composed.Data.Data(), fused.Data.Data())
			Sum(fused).Backward()
			Sum(composed).Backward()
			if !tensor.AllClose(xc.Grad, xf.Grad, 1e-12) {
				t.Errorf("%s: fused grad diverges from composed beyond 1e-12", ctx)
			}
		}
		restore()
	}
}

// TestBatchedAttentionBackendConformance checks the fused attention under
// every backend: bit-identical to the composed per-window reference within
// the backend, and its forward and gradients bit-identical to the scalar
// backend's, whatever order kernels.Names lists the backends in.
func TestBatchedAttentionBackendConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const batch, win, heads, dk = 3, 5, 2, 3
	dim := heads * dk
	scale := 1 / math.Sqrt(float64(dk))
	qd := tensor.RandN(rng, 1, batch*win, dim)
	kd := tensor.RandN(rng, 1, batch*win, dim)
	vd := tensor.RandN(rng, 1, batch*win, dim)
	gseed := tensor.RandN(rng, 1, batch*win, dim)

	// run returns the fused forward and the q, k and v gradients on the
	// named backend.
	run := func(name string) []*tensor.Tensor {
		restore, err := kernels.Use(name)
		if err != nil {
			t.Fatal(err)
		}
		defer restore()
		q, k, v := Param(qd.Clone()), Param(kd.Clone()), Param(vd.Clone())
		fused := BatchedAttention(q, k, v, batch, heads, scale)
		qc, kc, vc := Param(qd.Clone()), Param(kd.Clone()), Param(vd.Clone())
		composed := composedAttention(qc, kc, vc, batch, heads, scale)
		requireBitEqual(t, name+"/forward-vs-composed", composed.Data.Data(), fused.Data.Data())

		Sum(Mul(fused, Constant(gseed))).Backward()
		Sum(Mul(composed, Constant(gseed))).Backward()
		// Backward agreement follows the established 1e-12 contract
		// (attention_test.go): the composed graph accumulates adjoints
		// through a different node order than the fused closure.
		for i, pair := range [][2]*Value{{q, qc}, {k, kc}, {v, vc}} {
			if !tensor.AllClose(pair[1].Grad, pair[0].Grad, 1e-12) {
				t.Errorf("%s: input %d grad diverges from composed beyond 1e-12", name, i)
			}
		}
		return []*tensor.Tensor{fused.Data, q.Grad, k.Grad, v.Grad}
	}

	want := run("scalar")
	for _, name := range kernels.Names() {
		if name == "scalar" {
			continue
		}
		for i, got := range run(name) {
			requireBitEqual(t, fmt.Sprintf("%s/%s-vs-scalar", name, []string{"forward", "q-grad", "k-grad", "v-grad"}[i]),
				want[i].Data(), got.Data())
		}
	}
}

// queryRows copies rows b·T+s of a (batch·T × c) matrix, for each s in
// sel, into rows b·len(sel)+i of a fresh (batch·len(sel) × c) one: the
// queries a window-major caller projects when it reads only those
// positions of each window.
func queryRows[T tensor.Float](x *tensor.Dense[T], batch int, sel []int) *tensor.Dense[T] {
	win := x.Rows() / batch
	out := tensor.NewOf[T](batch*len(sel), x.Cols())
	for b := 0; b < batch; b++ {
		for i, s := range sel {
			copy(out.Row(b*len(sel)+i), x.Row(b*win+s))
		}
	}
	return out
}

// requireQueryRows runs BatchedAttentionFwd over one (batch·T × heads·dk)
// q/k/v payload at width T under every backend, once with every row of q
// as a query and once with rows sel of each window only, and requires row
// b·len(sel)+i of the second to hold the bits of row b·T+sel[i] of the
// first — with sel the last position, the identity the eval engine's
// temporal block rests on. Within one backend both forms run the same
// per-query body, so no tolerance is allowed, whatever the payload.
func requireQueryRows[T tensor.Float](t *testing.T, ctx string, qd, kd, vd []T, batch, win, heads, dk int, sel []int) {
	t.Helper()
	rows, dim := batch*win, heads*dk
	q, k, v := tensor.FromSlice(qd, rows, dim), tensor.FromSlice(kd, rows, dim), tensor.FromSlice(vd, rows, dim)
	scale := T(1 / math.Sqrt(float64(dk)))
	for _, name := range kernels.Names() {
		func() {
			restore, err := kernels.Use(name)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			some := BatchedAttentionFwd(nil, queryRows(q, batch, sel), k, v, batch, heads, scale)
			full := BatchedAttentionFwd(nil, q, k, v, batch, heads, scale)
			for b := 0; b < batch; b++ {
				for i, s := range sel {
					want, got := full.Row(b*win+s), some.Row(b*len(sel)+i)
					for j := range want {
						if err := kernels.CompareExact(want[j], got[j]); err != nil {
							t.Fatalf("%s/%s window %d query %d col %d: %v", ctx, name, b, s, j, err)
						}
					}
				}
			}
		}()
	}
}

// requireQueryGrads runs BatchedAttention's backward over queryRows(q, sel)
// and over the full q, seeded with g (batch·len(sel) × dim) on rows
// b·T+sel[i] and zero on every other row, under every backend at one
// worker and at four. Row b·len(sel)+i of the selected dQ must hold the
// bits of row b·T+sel[i] of the full dQ, and dK and dV the full op's bits
// (NaN matches NaN): both run the one backward body for those queries, and
// a query with a zero adjoint adds nothing. The one exception is an entry
// where the payload holds a NaN or an Inf and the full op's dK or dV is
// NaN: an unread query whose weights or values are not finite turns its
// zero adjoint into NaN there, and the selected form never runs that
// query.
func requireQueryGrads(t *testing.T, ctx string, qd, kd, vd, gd []float64, batch, win, heads, dk int, sel []int) {
	t.Helper()
	rows, dim := batch*win, heads*dk
	scale := 1 / math.Sqrt(float64(dk))
	q, k, v := tensor.FromSlice(qd, rows, dim), tensor.FromSlice(kd, rows, dim), tensor.FromSlice(vd, rows, dim)
	gFull := tensor.New(rows, dim)
	for b := 0; b < batch; b++ {
		for i, s := range sel {
			r := b*len(sel) + i
			copy(gFull.Row(b*win+s), gd[r*dim:(r+1)*dim])
		}
	}
	finite := true
	for _, s := range [][]float64{qd, kd, vd, gd} {
		for _, x := range s {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
	}
	for _, name := range kernels.Names() {
		for _, workers := range []int{1, 4} {
			func() {
				restore, err := kernels.Use(name)
				if err != nil {
					t.Fatal(err)
				}
				defer restore()
				defer parallel.SetWorkers(parallel.SetWorkers(workers))
				at := fmt.Sprintf("%s/%s/workers=%d", ctx, name, workers)

				fq, fk, fv := Param(q.Clone()), Param(k.Clone()), Param(v.Clone())
				BatchedAttention(fq, fk, fv, batch, heads, scale).BackwardWith(gFull)
				sq, sk, sv := Param(queryRows(q, batch, sel)), Param(k.Clone()), Param(v.Clone())
				BatchedAttention(sq, sk, sv, batch, heads, scale).BackwardWith(tensor.FromSlice(gd, batch*len(sel), dim))

				for b := 0; b < batch; b++ {
					for i, s := range sel {
						want, got := fq.Grad.Row(b*win+s), sq.Grad.Row(b*len(sel)+i)
						for j := range want {
							if err := kernels.CompareExact(want[j], got[j]); err != nil {
								t.Fatalf("%s dQ window %d query %d col %d: %v", at, b, s, j, err)
							}
						}
					}
				}
				for _, pair := range []struct {
					name      string
					want, got *tensor.Tensor
				}{{"dK", fk.Grad, sk.Grad}, {"dV", fv.Grad, sv.Grad}} {
					for i, w := range pair.want.Data() {
						if !finite && math.IsNaN(w) {
							continue
						}
						if err := kernels.CompareExact(w, pair.got.Data()[i]); err != nil {
							t.Fatalf("%s %s element %d: %v", at, pair.name, i, err)
						}
					}
				}
			}()
		}
	}
}

// oneQueryGrid is the geometry both one-query conformance tests run:
// single-position windows, one head, and the paper's 8 heads × dk 16 at
// window 8.
var oneQueryGrid = []struct{ batch, win, heads, dk int }{
	{1, 1, 1, 1}, {1, 4, 2, 8}, {3, 5, 2, 3}, {5, 3, 1, 7}, {2, 8, 8, 16},
}

// TestBatchedAttentionOneQueryBackwardConformance drives the one-query
// backward identity through the shared payload grid at float64, the tape's
// width.
func TestBatchedAttentionOneQueryBackwardConformance(t *testing.T) {
	for gi, g := range oneQueryGrid {
		n := g.batch * g.win * g.heads * g.dk
		for _, p := range kernels.ConformancePayloads {
			rng := rand.New(rand.NewSource(int64(800 + gi)))
			requireQueryGrads(t, fmt.Sprintf("%+v/%s", g, p.Name),
				kernels.FillAs[float64](p, rng, n), kernels.FillAs[float64](p, rng, n), kernels.FillAs[float64](p, rng, n),
				kernels.FillAs[float64](p, rng, g.batch*g.heads*g.dk),
				g.batch, g.win, g.heads, g.dk, []int{g.win - 1})
		}
	}
}

// TestBatchedAttentionOneQueryBackendConformance drives the one-query
// identity through the shared payload grid (normal, mixed magnitude,
// subnormal, signed zero, NaN, Inf) at both widths.
func TestBatchedAttentionOneQueryBackendConformance(t *testing.T) {
	for gi, g := range oneQueryGrid {
		n := g.batch * g.win * g.heads * g.dk
		last := []int{g.win - 1}
		for _, p := range kernels.ConformancePayloads {
			ctx := fmt.Sprintf("%+v/%s", g, p.Name)
			rng := rand.New(rand.NewSource(int64(700 + gi)))
			requireQueryRows(t, ctx+"/f64",
				kernels.FillAs[float64](p, rng, n), kernels.FillAs[float64](p, rng, n), kernels.FillAs[float64](p, rng, n),
				g.batch, g.win, g.heads, g.dk, last)
			requireQueryRows(t, ctx+"/f32",
				kernels.FillAs[float32](p, rng, n), kernels.FillAs[float32](p, rng, n), kernels.FillAs[float32](p, rng, n),
				g.batch, g.win, g.heads, g.dk, last)
		}
	}
}

// FuzzBatchedAttention is the one-query identity on fuzz-chosen geometry
// and payloads: the selector byte picks one of the conformance payload
// classes (seeded from the raw bytes) or the raw bytes themselves. At
// float64 it also compares the backward (requireQueryGrads).
func FuzzBatchedAttention(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(4), uint8(1), uint8(3), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, uint8(0), uint8(7), uint8(7), uint8(15), uint8(4))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0x80}, uint8(4), uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(3), uint8(1), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, bb, ww, hh, dd, sel uint8) {
		batch, win, heads, dk := 1+int(bb%6), 1+int(ww%9), 1+int(hh%8), 1+int(dd%16)
		fuzzOneQuery[float64](t, raw, batch, win, heads, dk, int(sel))
		fuzzOneQuery[float32](t, raw, batch, win, heads, dk, int(sel))
	})
}

func fuzzOneQuery[T tensor.Float](t *testing.T, raw []byte, batch, win, heads, dk, sel int) {
	n, gn := batch*win*heads*dk, batch*heads*dk
	var qd, kd, vd, gd []T
	if p := sel % (len(kernels.ConformancePayloads) + 1); p < len(kernels.ConformancePayloads) {
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(raw))))
		pl := kernels.ConformancePayloads[p]
		qd, kd, vd = kernels.FillAs[T](pl, rng, n), kernels.FillAs[T](pl, rng, n), kernels.FillAs[T](pl, rng, n)
		gd = kernels.FillAs[T](pl, rng, gn)
	} else {
		qd, kd, vd, gd = make([]T, n), make([]T, n), make([]T, n), make([]T, gn)
		kernels.FillFuzz(qd, raw)
		kernels.FillFuzz(kd, raw[min(1, len(raw)):])
		kernels.FillFuzz(vd, raw[min(2, len(raw)):])
		kernels.FillFuzz(gd, raw[min(3, len(raw)):])
	}
	ctx := fmt.Sprintf("batch=%d T=%d heads=%d dk=%d", batch, win, heads, dk)
	last := []int{win - 1}
	requireQueryRows(t, ctx, qd, kd, vd, batch, win, heads, dk, last)
	if q64, ok := any(qd).([]float64); ok {
		requireQueryGrads(t, ctx, q64, any(kd).([]float64), any(vd).([]float64), any(gd).([]float64), batch, win, heads, dk, last)
	}
}
