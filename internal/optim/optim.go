// Package optim implements the optimizers and learning-rate schedules used
// to train the GNN decision model and to drive deployment-time token
// adaptation: AdamW with the paper's hyper-parameters (Sec. IV-A),
// exponential decay (the α_d = 0.9999 threshold decay) and cosine
// annealing, plus global-norm gradient clipping.
package optim

import (
	"math"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// Optimizer updates a fixed set of parameters from their accumulated
// gradients.
type Optimizer interface {
	// Step applies one update and clears nothing; call ZeroGrad after.
	Step()
	// ZeroGrad clears the gradients of all managed parameters.
	ZeroGrad()
	// SetLR overrides the current learning rate (schedulers call this).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
}

// zeroGrads clears gradients on params.
func zeroGrads(params []*autograd.Value) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

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

// GradNorm returns the global L2 norm of the accumulated gradients.
func GradNorm(params []*autograd.Value) float64 {
	total := 0.0
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data() {
			total += g * g
		}
	}
	return math.Sqrt(total)
}
