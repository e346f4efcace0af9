package autograd

import (
	"fmt"
	"math"

	"edgekg/internal/tensor"
)

// CrossEntropy returns the mean negative log-likelihood of integer class
// labels under row-wise softmax of logits. It fuses log-softmax and NLL for
// numerical stability; this is the "Decision Loss" of Fig. 2(B).
func CrossEntropy(logits *Value, labels []int) *Value {
	r, c := logits.Data.Rows(), logits.Data.Cols()
	if len(labels) != r {
		panic(fmt.Sprintf("autograd: CrossEntropy %d labels for %d rows", len(labels), r))
	}
	probs := tensor.SoftmaxRows(logits.Data)
	loss := 0.0
	for i, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("autograd: CrossEntropy label %d out of range [0,%d)", y, c))
		}
		p := probs.At2(i, y)
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	loss /= float64(r)
	out := tensor.Scalar(loss)
	return newOp3("crossentropy", out, logits, nil, nil, func(g *tensor.Tensor) {
		scale := g.Data()[0] / float64(r)
		gl := tensor.New(r, c)
		for i := 0; i < r; i++ {
			prow, grow := probs.Row(i), gl.Row(i)
			for j := 0; j < c; j++ {
				grow[j] = scale * prow[j]
			}
			grow[labels[i]] -= scale
		}
		logits.accumulate(gl)
	})
}

// BinaryScoreLoss drives selected rows' anomaly probability toward the
// given targets: mean over rows of (pA − target)², where pA = 1 − softmax
// row's class-0 probability. Adaptive learning (Sec. III-D) uses it to pull
// pseudo-anomalies toward 1 and retained normals toward 0 through the
// frozen decision head into the token embeddings.
func BinaryScoreLoss(logits *Value, targets []float64) *Value {
	r, c := logits.Data.Rows(), logits.Data.Cols()
	if len(targets) != r {
		panic(fmt.Sprintf("autograd: BinaryScoreLoss %d targets for %d rows", len(targets), r))
	}
	probs := tensor.SoftmaxRows(logits.Data)
	loss := 0.0
	for i, target := range targets {
		pa := 1 - probs.At2(i, 0)
		d := pa - target
		loss += d * d
	}
	loss /= float64(r)
	out := tensor.Scalar(loss)
	return newOp3("binaryscoreloss", out, logits, nil, nil, func(g *tensor.Tensor) {
		// d/dlogit_j of pA = -(d p0/d logit_j); dp0/dlogit_j = p0*(δ0j - pj)
		scale := g.Data()[0] * 2 / float64(r)
		gl := tensor.New(r, c)
		for i, target := range targets {
			prow, grow := probs.Row(i), gl.Row(i)
			p0 := prow[0]
			pa := 1 - p0
			coef := scale * (pa - target)
			for j := 0; j < c; j++ {
				delta := 0.0
				if j == 0 {
					delta = 1
				}
				grow[j] = coef * (-p0 * (delta - prow[j]))
			}
		}
		logits.accumulate(gl)
	})
}

// SmoothnessPenalty returns mean((s[t] − s[t−1])²) over a 1-D score column
// (r×1 matrix), the λ_smt temporal-smoothness regulariser.
func SmoothnessPenalty(scores *Value) *Value {
	r := scores.Data.Rows()
	if r < 2 {
		return Constant(tensor.Scalar(0))
	}
	d := scores.Data.Data()
	loss := 0.0
	for i := 1; i < r; i++ {
		diff := d[i] - d[i-1]
		loss += diff * diff
	}
	loss /= float64(r - 1)
	out := tensor.Scalar(loss)
	return newOp3("smoothness", out, scores, nil, nil, func(g *tensor.Tensor) {
		scale := 2 * g.Data()[0] / float64(r-1)
		gv := tensor.New(scores.Data.Shape()...)
		gd := gv.Data()
		for i := 1; i < r; i++ {
			diff := d[i] - d[i-1]
			gd[i] += scale * diff
			gd[i-1] -= scale * diff
		}
		scores.accumulate(gv)
	})
}

// SparsityPenalty returns mean(|x|), the λ_spa regulariser on anomaly
// scores.
func SparsityPenalty(v *Value) *Value {
	n := v.Data.Size()
	if n == 0 {
		return Constant(tensor.Scalar(0))
	}
	loss := 0.0
	for _, x := range v.Data.Data() {
		loss += math.Abs(x)
	}
	loss /= float64(n)
	out := tensor.Scalar(loss)
	return newOp3("sparsity", out, v, nil, nil, func(g *tensor.Tensor) {
		scale := g.Data()[0] / float64(n)
		gv := tensor.New(v.Data.Shape()...)
		vd, gd := v.Data.Data(), gv.Data()
		for i := range vd {
			switch {
			case vd[i] > 0:
				gd[i] = scale
			case vd[i] < 0:
				gd[i] = -scale
			}
		}
		v.accumulate(gv)
	})
}
