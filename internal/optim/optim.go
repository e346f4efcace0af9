// Package optim implements the optimizer used to train the GNN decision
// model and to drive deployment-time token adaptation: AdamW, the optimizer
// of the paper's Sec. IV-A, plus global-norm gradient clipping. The
// trainer applies the paper's α_d = 0.9999 learning-rate decay itself
// through AdamW.SetLR.
package optim

import (
	"math"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// ClipGradNorm rescales the gradients of params so their global L2 norm is
// at most maxNorm, returning the pre-clip norm. Parameters with nil
// gradients are skipped.
func ClipGradNorm(params []*autograd.Value, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data() {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			if p.Grad != nil {
				tensor.ScaleInPlace(p.Grad, scale)
			}
		}
	}
	return norm
}
