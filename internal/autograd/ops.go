package autograd

import (
	"fmt"
	"math"

	"edgekg/internal/flops"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// Add returns a + b elementwise.
func Add(a, b *Value) *Value {
	out := tensor.Add(a.Data, b.Data)
	return newOp3("add", out, a, b, nil, func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumulate(g)
		}
		if b.requiresGrad {
			b.accumulate(g)
		}
	})
}

// Sub returns a - b elementwise.
func Sub(a, b *Value) *Value {
	out := tensor.Sub(a.Data, b.Data)
	return newOp3("sub", out, a, b, nil, func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumulate(g)
		}
		if b.requiresGrad {
			b.accumulate(tensor.Neg(g))
		}
	})
}

// Mul returns the elementwise (Hadamard) product a ⊙ b — the primitive the
// hierarchical message passing layer (eq. 2) is built from.
func Mul(a, b *Value) *Value {
	out := tensor.Mul(a.Data, b.Data)
	return newOp3("mul", out, a, b, nil, func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumulate(tensor.Mul(g, b.Data))
		}
		if b.requiresGrad {
			b.accumulate(tensor.Mul(g, a.Data))
		}
	})
}

// Scale returns alpha * a.
func Scale(a *Value, alpha float64) *Value {
	out := tensor.Scale(a.Data, alpha)
	return newOp3("scale", out, a, nil, nil, func(g *tensor.Tensor) {
		a.accumulate(tensor.Scale(g, alpha))
	})
}

// MatMul returns the matrix product a·b.
func MatMul(a, b *Value) *Value {
	out := tensor.MatMul(a.Data, b.Data)
	return newOp3("matmul", out, a, b, nil, func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumulate(tensor.MatMulT2(g, b.Data)) // dA = G·Bᵀ
		}
		if b.requiresGrad {
			b.accumulate(tensor.MatMulT1(a.Data, g)) // dB = Aᵀ·G
		}
	})
}

// MatMulT2 returns a·bᵀ. Attention scores use it as Q·Kᵀ.
func MatMulT2(a, b *Value) *Value {
	out := tensor.MatMulT2(a.Data, b.Data)
	return newOp3("matmulT2", out, a, b, nil, func(g *tensor.Tensor) {
		if a.requiresGrad {
			a.accumulate(tensor.MatMul(g, b.Data)) // dA = G·B
		}
		if b.requiresGrad {
			b.accumulate(tensor.MatMulT1(g, a.Data)) // dB = Gᵀ·A
		}
	})
}

// AffineFwd is Affine's forward, x·W + b, on bare tensors at width T.
//
// It is the first of the tape-free forwards this package shares with the
// eval-only scoring engine (the …Fwd and …InPlace functions): each is the
// one place its op's forward arithmetic and FLOP count are written. The
// tape op calls it at float64 and adds only the backward closure, so
// scoring without a tape is bit-identical to scoring through one by
// construction, and a frame is billed the same count at either width.
// Each that returns a tensor lends it from the workspace it takes first
// (tensor.Alloc); the tape passes nil and owns fresh tensors.
func AffineFwd[T tensor.Float](ws *tensor.Workspace, x, w *tensor.Dense[T], b []T) *tensor.Dense[T] {
	out := tensor.MatMulIn(ws, x, w)
	r, c := out.Rows(), out.Cols()
	if len(b) != c {
		panic(fmt.Sprintf("autograd: Affine bias size %d != cols %d", len(b), c))
	}
	od := out.Data()
	for i := 0; i < r; i++ {
		row := od[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			row[j] += b[j]
		}
	}
	flops.Add(int64(r * c))
	return out
}

// Affine returns x·W + b with the 1-D bias b broadcast over rows — the
// dense sub-layer (eq. 1) fused into one graph node. It is MatMul+AddRow
// without the intermediate op: the bias is added in place into the matmul
// output, saving a full matrix clone and a tape node per dense layer.
func Affine(x, w, b *Value) *Value {
	out := AffineFwd(nil, x.Data, w.Data, b.Data.Data())
	return newOp3("affine", out, x, w, b, func(g *tensor.Tensor) {
		if x.requiresGrad {
			x.accumulate(tensor.MatMulT2(g, w.Data)) // dX = G·Wᵀ
		}
		if w.requiresGrad {
			w.accumulate(tensor.MatMulT1(x.Data, g)) // dW = Xᵀ·G
		}
		if b.requiresGrad {
			b.accumulate(tensor.SumAxis0(g).Reshape(b.Data.Shape()...))
		}
	})
}

// AddRow broadcasts the 1-D bias b over every row of matrix m — the "+ b"
// of the dense sub-layer (eq. 1) and decision head (eq. 5).
func AddRow(m, b *Value) *Value {
	out := tensor.AddRow(m.Data, b.Data)
	return newOp3("addrow", out, m, b, nil, func(g *tensor.Tensor) {
		if m.requiresGrad {
			m.accumulate(g)
		}
		if b.requiresGrad {
			b.accumulate(tensor.SumAxis0(g).Reshape(b.Data.Shape()...))
		}
	})
}

// GatherRows selects rows of m. The KG token-embedding lookup and the
// temporal windows are row gathers; the backward pass is the scatter-add
// adjoint, which is how gradients reach only the selected token
// embeddings during adaptive learning. The caller guarantees rows stays
// immutable for the lifetime of the computation graph (e.g. the GNN
// layout's cached row lists); it is borrowed, not copied.
func GatherRows(m *Value, rows []int) *Value {
	out := tensor.Gather(m.Data, rows)
	return newOp3("gather", out, m, nil, nil, func(g *tensor.Tensor) {
		gm := tensor.New(m.Data.Shape()...)
		tensor.ScatterAddRows(gm, rows, g)
		m.accumulate(gm)
	})
}

// ConcatCols horizontally concatenates matrices with equal row counts;
// the multi-KG reasoning embedding f_t = r_T1 ⌢ … ⌢ r_Tn is a ConcatCols.
func ConcatCols(vs ...*Value) *Value {
	datas := make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		datas[i] = v.Data
	}
	out := tensor.ConcatCols(datas...)
	return newOp("concatcols", out, vs, func(g *tensor.Tensor) {
		off := 0
		for _, v := range vs {
			c := v.Data.Cols()
			if v.requiresGrad {
				v.accumulate(sliceColsTensor(g, off, off+c))
			}
			off += c
		}
	})
}

// ConcatRows vertically concatenates matrices with equal column counts.
func ConcatRows(vs ...*Value) *Value {
	datas := make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		datas[i] = v.Data
	}
	out := tensor.ConcatRows(datas...)
	return newOp("concatrows", out, vs, func(g *tensor.Tensor) {
		off := 0
		for _, v := range vs {
			r := v.Data.Rows()
			if v.requiresGrad {
				v.accumulate(tensor.SliceRows(g, off, off+r))
			}
			off += r
		}
	})
}

// SliceCols returns columns [from, to) of a matrix; multi-head attention
// splits its projections per head with it.
func SliceCols(m *Value, from, to int) *Value {
	out := sliceColsTensor(m.Data, from, to)
	return newOp3("slicecols", out, m, nil, nil, func(g *tensor.Tensor) {
		gm := tensor.New(m.Data.Shape()...)
		r := gm.Rows()
		for i := 0; i < r; i++ {
			copy(gm.Row(i)[from:to], g.Row(i))
		}
		m.accumulate(gm)
	})
}

// SliceRows returns rows [from, to) of a matrix.
func SliceRows(m *Value, from, to int) *Value {
	out := tensor.SliceRows(m.Data, from, to)
	return newOp3("slicerows", out, m, nil, nil, func(g *tensor.Tensor) {
		gm := tensor.New(m.Data.Shape()...)
		c := gm.Cols()
		copy(gm.Data()[from*c:to*c], g.Data())
		m.accumulate(gm)
	})
}

func sliceColsTensor(m *tensor.Tensor, from, to int) *tensor.Tensor {
	r, c := m.Rows(), m.Cols()
	if from < 0 || to > c || from > to {
		panic(fmt.Sprintf("autograd: SliceCols [%d,%d) out of range for %d cols", from, to, c))
	}
	out := tensor.New(r, to-from)
	for i := 0; i < r; i++ {
		copy(out.Row(i), m.Row(i)[from:to])
	}
	return out
}

// Sum reduces v to a scalar.
func Sum(v *Value) *Value {
	out := tensor.Scalar(v.Data.Sum())
	return newOp3("sum", out, v, nil, nil, func(g *tensor.Tensor) {
		v.accumulate(tensor.Full(g.Data()[0], v.Data.Shape()...))
	})
}

// Mean reduces v to its scalar arithmetic mean.
func Mean(v *Value) *Value {
	n := v.Data.Size()
	if n == 0 {
		return Constant(tensor.Scalar(0))
	}
	out := tensor.Scalar(v.Data.Sum() / float64(n))
	return newOp3("mean", out, v, nil, nil, func(g *tensor.Tensor) {
		v.accumulate(tensor.Full(g.Data()[0]/float64(n), v.Data.Shape()...))
	})
}

// MeanRows returns the column means of a matrix as a (1×cols) matrix; the
// text encoder pools token embeddings with it.
func MeanRows(v *Value) *Value {
	r := v.Data.Rows()
	out := tensor.MeanAxis0(v.Data).Reshape(1, v.Data.Cols())
	return newOp3("meanrows", out, v, nil, nil, func(g *tensor.Tensor) {
		gm := tensor.New(v.Data.Shape()...)
		inv := 1.0 / float64(r)
		grow := g.Data()
		for i := 0; i < r; i++ {
			row := gm.Row(i)
			for j := range row {
				row[j] = grow[j] * inv
			}
		}
		v.accumulate(gm)
	})
}

// ELU applies the exponential linear unit elementwise (alpha = 1), the
// activation of every hierarchical GNN layer (eq. 4).
func ELU(v *Value) *Value {
	out := tensor.ELUInPlace(v.Data.Clone())
	return newOp3("elu", out, v, nil, nil, func(g *tensor.Tensor) {
		gv := tensor.New(v.Data.Shape()...)
		vd, od, gd, dst := v.Data.Data(), out.Data(), g.Data(), gv.Data()
		for i := range vd {
			if vd[i] > 0 {
				dst[i] = gd[i]
			} else {
				dst[i] = gd[i] * (od[i] + 1)
			}
		}
		v.accumulate(gv)
	})
}

// geluC is √(2/π), the tanh-approximated GELU's constant, as the
// forward (tensor.GELUInPlace) has it.
const geluC = 0.7978845608028654

// GELU applies the Gaussian error linear unit (tanh approximation), used by
// the transformer feed-forward blocks.
func GELU(v *Value) *Value {
	out := tensor.GELUInPlace(v.Data.Clone())
	return newOp3("gelu", out, v, nil, nil, func(g *tensor.Tensor) {
		gv := tensor.New(v.Data.Shape()...)
		vd, gd, dst := v.Data.Data(), g.Data(), gv.Data()
		for i := range vd {
			x := vd[i]
			t := math.Tanh(geluC * (x + 0.044715*x*x*x))
			dt := (1 - t*t) * geluC * (1 + 3*0.044715*x*x)
			dst[i] = gd[i] * (0.5*(1+t) + 0.5*x*dt)
		}
		v.accumulate(gv)
	})
}

// SoftmaxRows applies a row-wise softmax to a matrix — attention weights
// and the decision head (eq. 5) both use it.
//
// The adjoint is dx[i][j] = out[i][j]·(g[i][j] − Σ_k out[i][k]·g[i][k]).
// Its row dot uses the backend kernel so the fused BatchedAttention
// backward (which calls the same Dot) stays bit-identical to this composed
// path on every backend.
func SoftmaxRows(v *Value) *Value {
	out := tensor.SoftmaxRows(v.Data)
	return newOp3("softmaxrows", out, v, nil, nil, func(g *tensor.Tensor) {
		r, c := out.Rows(), out.Cols()
		gv := tensor.New(r, c)
		bk := kernels.Active()
		for i := 0; i < r; i++ {
			orow, grow, drow := out.Row(i), g.Row(i), gv.Row(i)
			dot := bk.Dot(orow, grow)
			for j := 0; j < c; j++ {
				drow[j] = orow[j] * (grow[j] - dot)
			}
		}
		v.accumulate(gv)
	})
}
