package autograd

import (
	"fmt"
	"math"

	"edgekg/internal/flops"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// The hierarchical GNN layer tail — edge messages and mean aggregation →
// BatchNorm → ELU (eqs. 2–4 after the dense sub-layer) — fused into a
// single tape node per mode, over copies graph copies stacked row-wise
// with src/dst indexing one copy's rows. On a strictly valid KG's edge
// group, whose destinations are exactly the level V(l), the forward is the
// composed EdgeAggregate(x, EdgeMessage(x, …), …) → BatchNorm → ELU chain
// bit for bit, but allocates one output tensor, one Value and one closure,
// and keeps every intermediate except the aggregate pre-activation (needed
// by the BatchNorm backward) in pooled scratch. src and dst are borrowed:
// the caller must not mutate them for the lifetime of the computation
// graph (the GNN layout owns them and is immutable).

// EdgeAggNormActEval is the inference-mode tail, normalising with the
// frozen running statistics. Gradients still flow into x (and gamma/beta
// when trainable), which deployment-time token adaptation requires.
func EdgeAggNormActEval(x, gamma, beta *Value, src, dst []int, copies int, runningMean, runningVar *tensor.Tensor, eps float64) *Value {
	n := x.Data.Rows()
	d := x.Data.Cols()
	xd := x.Data.Data()

	// The aggregate is normalised in place and invStd lives in pooled
	// scratch for the forward only; the backward recomputes both on demand
	// (one cheap edge pass plus d square roots) rather than pinning
	// buffers to the graph for its whole lifetime. runningMean/runningVar
	// are borrowed by the backward closure, matching BatchNormEval: a graph
	// built in eval mode must run its backward before the statistics move.
	checkEdgeLists(n, copies, src, dst)
	fws := tensor.NewWorkspace()
	rm, gam, bet := runningMean.Data(), gamma.Data.Data(), beta.Data.Data()
	out := tensor.New(n, d)
	od := out.Data()
	edgeAggForward(xd, od, n, d, copies, src, dst)
	batchNormEvalInto(out, out, gam, bet, rm, InvStd(tensor.Scratch[float64](fws, d), runningVar, eps))
	kernels.Active().ELU(od, od)
	fws.Release()
	return newOp3("edgeaggnormact.eval", out, x, gamma, beta, func(g *tensor.Tensor) {
		ws := tensor.NewWorkspace()
		binvStd := tensor.Scratch[float64](ws, d)
		for j, v := range runningVar.Data() {
			binvStd[j] = 1 / math.Sqrt(v+eps)
		}
		gpre := tensor.Scratch[float64](ws, n*d)
		gd := g.Data()
		// ELU backward from the stored output alone: out > 0 ⇔ pre > 0,
		// and for pre ≤ 0, d out/d pre = exp(pre) = out + 1.
		for i := range gpre {
			if od[i] > 0 {
				gpre[i] = gd[i]
			} else {
				gpre[i] = gd[i] * (od[i] + 1)
			}
		}
		if gamma.requiresGrad {
			btmp := tensor.Scratch[float64](ws, n*d)
			edgeAggForward(xd, btmp, n, d, copies, src, dst)
			gg := tensor.New(d)
			ggd := gg.Data()
			for i := 0; i < n; i++ {
				trow := btmp[i*d : (i+1)*d]
				prow := gpre[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					ggd[j] += prow[j] * (trow[j] - rm[j]) * binvStd[j]
				}
			}
			gamma.accumulate(gg.Reshape(gamma.Data.Shape()...))
		}
		if beta.requiresGrad {
			gb := tensor.New(d)
			gbd := gb.Data()
			for i := 0; i < n; i++ {
				prow := gpre[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					gbd[j] += prow[j]
				}
			}
			beta.accumulate(gb.Reshape(beta.Data.Shape()...))
		}
		if x.requiresGrad {
			dtmp := tensor.Scratch[float64](ws, n*d)
			for i := 0; i < n; i++ {
				prow := gpre[i*d : (i+1)*d]
				drow := dtmp[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					drow[j] = prow[j] * gam[j] * binvStd[j]
				}
			}
			gx := tensor.New(n, d)
			edgeAggBackward(xd, dtmp, gx.Data(), n, d, copies, src, dst)
			x.accumulate(gx)
		}
		ws.Release()
	})
}

// EdgeAggNormActEvalLevel is the eval tail of one edge group written for
// its destination level alone. x stacks graph copies of the group's n
// source-level rows each; to holds the destination level's m rows (m·d
// values), which no copy's frame reaches before this aggregation and
// which every copy shares. src indexes a copy's source rows and dst the
// destination rows; a destination with no incoming edge passes through.
// The output (copies·m × d) is EdgeAggNormActEval's output at the
// destination rows: each row's arithmetic — products summed in edge
// order, the mean, BatchNorm and ELU — is the full kernel's, so given
// the same dense rows it returns the same bits.
func EdgeAggNormActEvalLevel[T tensor.Float](ws *tensor.Workspace, x *tensor.Dense[T], n int, to []T, gamma, beta, runningMean, invStd []T, src, dst []int) *tensor.Dense[T] {
	d := x.Cols()
	if n < 1 || x.Rows()%n != 0 || len(to)%d != 0 || len(src) != len(dst) {
		panic(fmt.Sprintf("autograd: level edge kernel over %d rows of %d per copy into %d values of width %d, %d sources vs %d destinations",
			x.Rows(), n, len(to), d, len(src), len(dst)))
	}
	m, copies := len(to)/d, x.Rows()/n
	sw := tensor.NewWorkspace()
	counts := tensor.Scratch[float64](sw, m)
	for e, t := range dst {
		if s := src[e]; s < 0 || s >= n || t < 0 || t >= m {
			panic(fmt.Sprintf("autograd: level edge %d→%d outside [0,%d)→[0,%d)", s, t, n, m))
		}
		counts[t]++
	}
	out := tensor.Alloc[T](ws, copies*m, d)
	bk := kernels.ActiveOf[T]()
	for k := 0; k < copies; k++ {
		xc := x.Data()[k*n*d : (k+1)*n*d]
		oc := out.Data()[k*m*d : (k+1)*m*d]
		for e, t := range dst {
			s := src[e]
			bk.MulAcc(xc[s*d:(s+1)*d], to[t*d:(t+1)*d], oc[t*d:(t+1)*d])
		}
		for i := 0; i < m; i++ {
			row := oc[i*d : (i+1)*d]
			if counts[i] > 0 {
				bk.Scale(T(1/counts[i]), row, row)
			} else {
				copy(row, to[i*d:(i+1)*d])
			}
		}
	}
	sw.Release()
	batchNormEvalInto(out, out, gamma, beta, runningMean, invStd)
	bk.ELU(out.Data(), out.Data())
	flops.Add(int64(2 * copies * len(dst) * d))
	return out
}

// EdgeAggNormActTrain is the training-mode tail, normalising with batch
// statistics. It returns the batch mean and biased variance so the caller
// can maintain the running statistics for inference.
func EdgeAggNormActTrain(x, gamma, beta *Value, src, dst []int, copies int, eps float64) (out *Value, batchMean, batchVar *tensor.Tensor) {
	n := x.Data.Rows()
	d := x.Data.Cols()
	checkEdgeLists(n, copies, src, dst)
	xd := x.Data.Data()

	fws := tensor.NewWorkspace()
	tmpT := tensor.Alloc[float64](fws, n, d)
	tmp := tmpT.Data()
	edgeAggForward(xd, tmp, n, d, copies, src, dst)
	mean := tensor.MeanAxis0(tmpT)
	variance := tensor.VarAxis0(tmpT)
	invStd := make([]float64, d)
	for j, v := range variance.Data() {
		invStd[j] = 1 / math.Sqrt(v+eps)
	}
	// xhat is retained for the backward pass (as in BatchNormTrain); the
	// aggregate output itself is only needed within this forward.
	xhat := make([]float64, n*d)
	md := mean.Data()
	for i := 0; i < n; i++ {
		trow := tmp[i*d : (i+1)*d]
		hrow := xhat[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			hrow[j] = (trow[j] - md[j]) * invStd[j]
		}
	}
	fws.Release()
	o := tensor.New(n, d)
	od := o.Data()
	gam, bet := gamma.Data.Data(), beta.Data.Data()
	for i := 0; i < n; i++ {
		hrow := xhat[i*d : (i+1)*d]
		orow := od[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			orow[j] = gam[j]*hrow[j] + bet[j]
		}
	}
	kernels.Active().ELU(od, od)
	v := newOp3("edgeaggnormact", o, x, gamma, beta, func(g *tensor.Tensor) {
		ws := tensor.NewWorkspace()
		gpre := tensor.Scratch[float64](ws, n*d)
		gd := g.Data()
		for i := range gpre {
			if od[i] > 0 {
				gpre[i] = gd[i]
			} else {
				gpre[i] = gd[i] * (od[i] + 1)
			}
		}
		if gamma.requiresGrad {
			gg := tensor.New(d)
			ggd := gg.Data()
			for i := 0; i < n; i++ {
				hrow := xhat[i*d : (i+1)*d]
				prow := gpre[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					ggd[j] += prow[j] * hrow[j]
				}
			}
			gamma.accumulate(gg.Reshape(gamma.Data.Shape()...))
		}
		if beta.requiresGrad {
			gb := tensor.New(d)
			gbd := gb.Data()
			for i := 0; i < n; i++ {
				prow := gpre[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					gbd[j] += prow[j]
				}
			}
			beta.accumulate(gb.Reshape(beta.Data.Shape()...))
		}
		if x.requiresGrad {
			// Batch-norm input gradient over the aggregate output:
			// dtmp = (γ·invStd/n) · (n·gpre − Σgpre − x̂·Σ(gpre⊙x̂))
			sumG := tensor.Scratch[float64](ws, d)
			sumGH := tensor.Scratch[float64](ws, d)
			for i := 0; i < n; i++ {
				prow := gpre[i*d : (i+1)*d]
				hrow := xhat[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					sumG[j] += prow[j]
					sumGH[j] += prow[j] * hrow[j]
				}
			}
			dtmp := tensor.Scratch[float64](ws, n*d)
			rn := float64(n)
			for i := 0; i < n; i++ {
				prow := gpre[i*d : (i+1)*d]
				hrow := xhat[i*d : (i+1)*d]
				drow := dtmp[i*d : (i+1)*d]
				for j := 0; j < d; j++ {
					coef := gam[j] * invStd[j] / rn
					drow[j] = coef * (rn*prow[j] - sumG[j] - hrow[j]*sumGH[j])
				}
			}
			gx := tensor.New(n, d)
			edgeAggBackward(xd, dtmp, gx.Data(), n, d, copies, src, dst)
			x.accumulate(gx)
		}
		ws.Release()
	})
	return v, mean, variance
}
