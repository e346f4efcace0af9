package autograd

import (
	"fmt"

	"edgekg/internal/flops"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// EdgeMessage computes the hierarchical message passing layer of eq. (2):
// for each edge e = (src[e], dst[e]) in E(l) it emits the elementwise
// product X_src ⊙ X_dst of the node-embedding rows. x is (|V|×D); the
// result is (|E(l)|×D).
func EdgeMessage(x *Value, src, dst []int) *Value {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("autograd: EdgeMessage %d sources vs %d destinations", len(src), len(dst)))
	}
	srcIdx := append([]int(nil), src...)
	dstIdx := append([]int(nil), dst...)
	xs := tensor.Gather(x.Data, srcIdx)
	xd := tensor.Gather(x.Data, dstIdx)
	out := tensor.Mul(xs, xd)
	return newOp3("edgemessage", out, x, nil, nil, func(g *tensor.Tensor) {
		// d/dX_src = g ⊙ X_dst scattered to src rows; symmetric for dst.
		gx := tensor.New(x.Data.Shape()...)
		tensor.ScatterAddRows(gx, srcIdx, tensor.Mul(g, xd))
		tensor.ScatterAddRows(gx, dstIdx, tensor.Mul(g, xs))
		x.accumulate(gx)
	})
}

// EdgeAggregate implements the hierarchical aggregate layer of eq. (3):
// nodes in the current level (inLevel[d] true) receive the mean of the
// messages addressed to them, all other nodes pass their embedding through
// unchanged. msgs is (|E(l)|×D) aligned with dst; x is (|V|×D).
//
// A node flagged inLevel with no incoming messages keeps its embedding —
// the situation arises transiently after node creation (Fig. 4C) before
// random edges are attached, and dropping such nodes to zero would poison
// BatchNorm statistics.
func EdgeAggregate(x, msgs *Value, dst []int, inLevel []bool) *Value {
	n := x.Data.Rows()
	d := x.Data.Cols()
	if len(inLevel) != n {
		panic(fmt.Sprintf("autograd: EdgeAggregate inLevel length %d != %d nodes", len(inLevel), n))
	}
	if msgs.Data.Rows() != len(dst) {
		panic(fmt.Sprintf("autograd: EdgeAggregate %d messages vs %d destinations", msgs.Data.Rows(), len(dst)))
	}
	dstIdx := append([]int(nil), dst...)
	level := append([]bool(nil), inLevel...)

	counts := make([]float64, n)
	for _, t := range dstIdx {
		counts[t]++
	}
	out := tensor.New(n, d)
	// Pass-through rows.
	for i := 0; i < n; i++ {
		if !level[i] || counts[i] == 0 {
			copy(out.Row(i), x.Data.Row(i))
		}
	}
	// Mean-aggregated rows.
	tensor.ScatterAddRows(out, dstIdx, msgs.Data)
	for i := 0; i < n; i++ {
		if level[i] && counts[i] > 0 {
			row := out.Row(i)
			// Remove the pass-through contribution is unnecessary: rows
			// with counts>0 and inLevel were never seeded above, so the
			// scatter result alone is the sum of messages.
			inv := 1 / counts[i]
			for j := range row {
				row[j] *= inv
			}
		} else if counts[i] > 0 {
			// Messages addressed to an out-of-level node are ignored per
			// eq. (3); undo the scatter contribution.
			row := out.Row(i)
			copy(row, x.Data.Row(i))
		}
	}
	return newOp3("edgeaggregate", out, x, msgs, nil, func(g *tensor.Tensor) {
		if x.requiresGrad {
			gx := tensor.New(n, d)
			for i := 0; i < n; i++ {
				if !level[i] || counts[i] == 0 {
					copy(gx.Row(i), g.Row(i))
				}
			}
			x.accumulate(gx)
		}
		if msgs.requiresGrad {
			gm := tensor.New(len(dstIdx), d)
			for e, t := range dstIdx {
				if !level[t] || counts[t] == 0 {
					continue
				}
				inv := 1 / counts[t]
				grow, mrow := g.Row(t), gm.Row(e)
				for j := 0; j < d; j++ {
					mrow[j] = grow[j] * inv
				}
			}
			msgs.accumulate(gm)
		}
	})
}

// checkEdgeLists validates the index structure shared by the fused edge
// kernels: n rows holding copies stacked graph copies, and src/dst
// indexing one copy's rows.
func checkEdgeLists(n, copies int, src, dst []int) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("autograd: edge kernel %d sources vs %d destinations", len(src), len(dst)))
	}
	if copies < 1 || n%copies != 0 {
		panic(fmt.Sprintf("autograd: edge kernel over %d rows in %d graph copies", n, copies))
	}
	v := n / copies
	for e := range dst {
		if dst[e] < 0 || dst[e] >= v || src[e] < 0 || src[e] >= v {
			panic(fmt.Sprintf("autograd: edge %d→%d out of range [0,%d)", src[e], dst[e], v))
		}
	}
}

// edgeAggForward computes the fused message/aggregate forward (eqs. 2–3)
// from xd into od (both n×d row-major, copies graph copies of n/copies
// rows each, with src/dst indexing one copy): every edge destination
// receives the mean over its incoming edges of the elementwise
// source·destination product, and every other row passes through. On a
// strictly valid KG's edge group the destinations are exactly V(l), so
// this is EdgeAggregate(x, EdgeMessage(x, src, dst), dst, inLevel) per
// copy, bit for bit. od must start zeroed.
func edgeAggForward[T tensor.Float](xd, od []T, n, d, copies int, src, dst []int) {
	v := n / copies
	ws := tensor.NewWorkspace()
	counts := tensor.Scratch[float64](ws, v)
	for _, t := range dst {
		counts[t]++
	}
	// Sum of products into destination rows, in edge order, one copy at a
	// time. The active kernel backend's MulAcc is bit-identical to the
	// scalar loop (order-preserving class), so fused-vs-composed
	// equivalence holds on every backend.
	bk := kernels.ActiveOf[T]()
	for k := 0; k < copies; k++ {
		xc, oc := xd[k*v*d:(k+1)*v*d], od[k*v*d:(k+1)*v*d]
		for e, t := range dst {
			s := src[e]
			bk.MulAcc(xc[s*d:(s+1)*d], xc[t*d:(t+1)*d], oc[t*d:(t+1)*d])
		}
		// Scale aggregated rows to means; everything else passes through.
		for i := 0; i < v; i++ {
			row := oc[i*d : (i+1)*d]
			if counts[i] > 0 {
				bk.Scale(T(1/counts[i]), row, row)
			} else {
				copy(row, xc[i*d:(i+1)*d])
			}
		}
	}
	flops.Add(int64(2 * copies * len(dst) * d))
	ws.Release()
}

// edgeAggBackward accumulates the adjoint of edgeAggForward into gxd given
// the upstream gradient gd (both n×d row-major). gxd must start zeroed.
func edgeAggBackward(xd, gd, gxd []float64, n, d, copies int, src, dst []int) {
	v := n / copies
	ws := tensor.NewWorkspace()
	counts := tensor.Scratch[float64](ws, v)
	for _, t := range dst {
		counts[t]++
	}
	// ScaledMulAcc computes dst[j] += (inv·g[j])·other[j] with exactly the
	// rounding order of the original fused loop, so splitting the src and
	// dst accumulations into two row-wide calls stays bit-identical: each
	// element is touched by the same two additions in the same order.
	bk := kernels.Active()
	for k := 0; k < copies; k++ {
		xc, gc, gxc := xd[k*v*d:(k+1)*v*d], gd[k*v*d:(k+1)*v*d], gxd[k*v*d:(k+1)*v*d]
		for i := 0; i < v; i++ {
			if counts[i] == 0 {
				copy(gxc[i*d:(i+1)*d], gc[i*d:(i+1)*d])
			}
		}
		for e, t := range dst {
			s := src[e]
			inv := 1 / counts[t]
			grow := gc[t*d : (t+1)*d]
			bk.ScaledMulAcc(inv, grow, xc[t*d:(t+1)*d], gxc[s*d:(s+1)*d])
			bk.ScaledMulAcc(inv, grow, xc[s*d:(s+1)*d], gxc[t*d:(t+1)*d])
		}
	}
	flops.Add(int64(5 * copies * len(dst) * d))
	ws.Release()
}
