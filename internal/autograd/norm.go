package autograd

import (
	"math"

	"edgekg/internal/tensor"
)

// BatchNormTrain applies training-mode batch normalisation over the rows of
// x (statistics per column), with learnable per-column gain gamma and bias
// beta. It returns the normalised output along with the batch mean and
// biased variance so the caller can maintain running statistics for
// inference. This is the BatchNorm of the GNN layer (eq. 4).
func BatchNormTrain(x, gamma, beta *Value, eps float64) (out *Value, batchMean, batchVar *tensor.Tensor) {
	r, c := x.Data.Rows(), x.Data.Cols()
	mean := tensor.MeanAxis0(x.Data)
	variance := tensor.VarAxis0(x.Data)

	invStd := make([]float64, c)
	for j, v := range variance.Data() {
		invStd[j] = 1 / math.Sqrt(v+eps)
	}
	xhat := tensor.New(r, c)
	for i := 0; i < r; i++ {
		xrow, hrow := x.Data.Row(i), xhat.Row(i)
		for j := 0; j < c; j++ {
			hrow[j] = (xrow[j] - mean.Data()[j]) * invStd[j]
		}
	}
	o := tensor.New(r, c)
	for i := 0; i < r; i++ {
		hrow, orow := xhat.Row(i), o.Row(i)
		for j := 0; j < c; j++ {
			orow[j] = gamma.Data.Data()[j]*hrow[j] + beta.Data.Data()[j]
		}
	}

	v := newOp3("batchnorm", o, x, gamma, beta, func(g *tensor.Tensor) {
		if gamma.requiresGrad {
			gg := tensor.New(c)
			for i := 0; i < r; i++ {
				grow, hrow := g.Row(i), xhat.Row(i)
				for j := 0; j < c; j++ {
					gg.Data()[j] += grow[j] * hrow[j]
				}
			}
			gamma.accumulate(gg.Reshape(gamma.Data.Shape()...))
		}
		if beta.requiresGrad {
			beta.accumulate(tensor.SumAxis0(g).Reshape(beta.Data.Shape()...))
		}
		if x.requiresGrad {
			// Standard batch-norm input gradient:
			// dx = (γ·invStd/r) · (r·g − Σg − x̂·Σ(g⊙x̂))
			sumG := tensor.New(c)
			sumGH := tensor.New(c)
			for i := 0; i < r; i++ {
				grow, hrow := g.Row(i), xhat.Row(i)
				for j := 0; j < c; j++ {
					sumG.Data()[j] += grow[j]
					sumGH.Data()[j] += grow[j] * hrow[j]
				}
			}
			gx := tensor.New(r, c)
			rn := float64(r)
			for i := 0; i < r; i++ {
				grow, hrow, xrow := g.Row(i), xhat.Row(i), gx.Row(i)
				for j := 0; j < c; j++ {
					coef := gamma.Data.Data()[j] * invStd[j] / rn
					xrow[j] = coef * (rn*grow[j] - sumG.Data()[j] - hrow[j]*sumGH.Data()[j])
				}
			}
			x.accumulate(gx)
		}
	})
	return v, mean, variance
}

// BatchNormEval applies inference-mode batch normalisation using the frozen
// running statistics. Gradients still flow into x (and gamma/beta if
// trainable), which is what deployment-time adaptive learning needs: the
// decision model is frozen but gradients must pass through it into the KG
// token embeddings.
func BatchNormEval(x, gamma, beta *Value, runningMean, runningVar *tensor.Tensor, eps float64) *Value {
	r, c := x.Data.Rows(), x.Data.Cols()
	invStd := InvStd(make([]float64, c), runningVar, eps)
	o := batchNormEvalInto(tensor.New(r, c), x.Data, gamma.Data.Data(), beta.Data.Data(), runningMean.Data(), invStd)
	return newOp3("batchnorm.eval", o, x, gamma, beta, func(g *tensor.Tensor) {
		if gamma.requiresGrad {
			gg := tensor.New(c)
			for i := 0; i < r; i++ {
				xrow, grow := x.Data.Row(i), g.Row(i)
				for j := 0; j < c; j++ {
					xh := (xrow[j] - runningMean.Data()[j]) * invStd[j]
					gg.Data()[j] += grow[j] * xh
				}
			}
			gamma.accumulate(gg.Reshape(gamma.Data.Shape()...))
		}
		if beta.requiresGrad {
			beta.accumulate(tensor.SumAxis0(g).Reshape(beta.Data.Shape()...))
		}
		if x.requiresGrad {
			gx := tensor.New(r, c)
			for i := 0; i < r; i++ {
				grow, xrow := g.Row(i), gx.Row(i)
				for j := 0; j < c; j++ {
					xrow[j] = grow[j] * gamma.Data.Data()[j] * invStd[j]
				}
			}
			x.accumulate(gx)
		}
	})
}

// LayerNorm normalises each row of x to zero mean and unit variance, then
// applies the per-column gain gamma and bias beta. The temporal transformer
// blocks use it.
func LayerNorm(x, gamma, beta *Value, eps float64) *Value {
	r, c := x.Data.Rows(), x.Data.Cols()
	xhat, o := tensor.New(r, c), tensor.New(r, c)
	invStds := make([]float64, r)
	layerNormInto(o, xhat, invStds, x.Data, gamma.Data.Data(), beta.Data.Data(), eps)
	return newOp3("layernorm", o, x, gamma, beta, func(g *tensor.Tensor) {
		if gamma.requiresGrad {
			gg := tensor.New(c)
			for i := 0; i < r; i++ {
				grow, hrow := g.Row(i), xhat.Row(i)
				for j := 0; j < c; j++ {
					gg.Data()[j] += grow[j] * hrow[j]
				}
			}
			gamma.accumulate(gg.Reshape(gamma.Data.Shape()...))
		}
		if beta.requiresGrad {
			beta.accumulate(tensor.SumAxis0(g).Reshape(beta.Data.Shape()...))
		}
		if x.requiresGrad {
			gx := tensor.New(r, c)
			cn := float64(c)
			for i := 0; i < r; i++ {
				grow, hrow, xrow := g.Row(i), xhat.Row(i), gx.Row(i)
				sumG, sumGH := 0.0, 0.0
				for j := 0; j < c; j++ {
					gj := grow[j] * gamma.Data.Data()[j]
					sumG += gj
					sumGH += gj * hrow[j]
				}
				for j := 0; j < c; j++ {
					gj := grow[j] * gamma.Data.Data()[j]
					xrow[j] = invStds[i] / cn * (cn*gj - sumG - hrow[j]*sumGH)
				}
			}
			x.accumulate(gx)
		}
	})
}

// InvStd fills dst with 1/√(variance+eps) per column — the frozen-statistics
// scale of eval-mode BatchNorm — evaluated at float64 and rounded to T.
func InvStd[T tensor.Float](dst []T, variance *tensor.Tensor, eps float64) []T {
	for j, v := range variance.Data() {
		dst[j] = T(1 / math.Sqrt(v+eps))
	}
	return dst
}

// BatchNormEvalInPlace is BatchNormEval's forward overwriting x, with the
// running mean and InvStd of the running variance already at width T.
func BatchNormEvalInPlace[T tensor.Float](x *tensor.Dense[T], gamma, beta, runningMean, invStd []T) {
	batchNormEvalInto(x, x, gamma, beta, runningMean, invStd)
}

func batchNormEvalInto[T tensor.Float](o, x *tensor.Dense[T], gamma, beta, runningMean, invStd []T) *tensor.Dense[T] {
	r, c := x.Rows(), x.Cols()
	for i := 0; i < r; i++ {
		xrow, orow := x.Row(i), o.Row(i)
		for j := 0; j < c; j++ {
			xh := (xrow[j] - runningMean[j]) * invStd[j]
			orow[j] = gamma[j]*xh + beta[j]
		}
	}
	return o
}

// LayerNormFwd is LayerNorm's forward on bare tensors at width T. It
// retains nothing: x̂ is written into the output and scaled in place.
func LayerNormFwd[T tensor.Float](ws *tensor.Workspace, x *tensor.Dense[T], gamma, beta []T, eps float64) *tensor.Dense[T] {
	o := tensor.Alloc[T](ws, x.Rows(), x.Cols())
	layerNormInto(o, o, nil, x, gamma, beta, eps)
	return o
}

// layerNormInto writes the normalised rows x̂ into xhat and γ·x̂+β into o
// (the two may be the same tensor), and each row's 1/σ into invStds when
// the caller keeps them for a backward pass.
func layerNormInto[T tensor.Float](o, xhat *tensor.Dense[T], invStds []T, x *tensor.Dense[T], gamma, beta []T, eps float64) {
	r, c := x.Rows(), x.Cols()
	for i := 0; i < r; i++ {
		row := x.Row(i)
		var mu T
		for _, v := range row {
			mu += v
		}
		mu /= T(c)
		var va T
		for _, v := range row {
			d := v - mu
			va += d * d
		}
		va /= T(c)
		inv := T(1 / math.Sqrt(float64(va)+eps))
		if invStds != nil {
			invStds[i] = inv
		}
		hrow, orow := xhat.Row(i), o.Row(i)
		for j, v := range row {
			hrow[j] = (v - mu) * inv
		}
		for j := 0; j < c; j++ {
			orow[j] = gamma[j]*hrow[j] + beta[j]
		}
	}
}
