package optim

import (
	"math"

	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// AdamWConfig carries the AdamW hyper-parameters. The zero value is not
// usable: Beta1, Beta2 and Eps must be set (the paper's Sec. IV-A uses
// 0.9, 0.999 and 1e-8).
type AdamWConfig struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// AdamW implements Adam with decoupled weight decay (Loshchilov & Hutter),
// the optimizer of Sec. IV-A.
type AdamW struct {
	cfg    AdamWConfig
	params []*autograd.Value
	m, v   []*tensor.Tensor
	t      int
}

// NewAdamW returns an AdamW over params. Parameters whose gradients are nil
// at Step time (e.g. frozen branches) are skipped that step. Moment buffers
// are allocated lazily on a parameter's first update: a zero-valued moment
// and an absent one are numerically identical, and continuous-adaptation
// deployments hold one optimizer per stream over mostly-idle parameters —
// eager buffers would double every idle stream's token-bank footprint.
func NewAdamW(params []*autograd.Value, cfg AdamWConfig) *AdamW {
	a := &AdamW{cfg: cfg, params: params}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	return a
}

// Step applies one AdamW update.
func (a *AdamW) Step() {
	a.t++
	c := a.cfg
	bc1 := 1 - math.Pow(c.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(c.Beta2, float64(a.t))
	for i, p := range a.params {
		if p.Grad == nil || !p.RequiresGrad() {
			continue
		}
		// The update writes the parameter tensor in place; a COW-aliased
		// parameter (per-stream serving clone) materializes a private copy
		// here, leaving its siblings' bits untouched.
		p.EnsurePrivate()
		if a.m[i] == nil {
			a.m[i] = tensor.New(p.Data.Shape()...)
			a.v[i] = tensor.New(p.Data.Shape()...)
		}
		pd := p.Data.Data()
		gd := p.Grad.Data()
		md := a.m[i].Data()
		vd := a.v[i].Data()
		for k := range pd {
			g := gd[k]
			md[k] = c.Beta1*md[k] + (1-c.Beta1)*g
			vd[k] = c.Beta2*vd[k] + (1-c.Beta2)*g*g
			mhat := md[k] / bc1
			vhat := vd[k] / bc2
			// Decoupled weight decay: shrink the parameter directly rather
			// than folding decay into the gradient.
			pd[k] -= c.LR * (mhat/(math.Sqrt(vhat)+c.Eps) + c.WeightDecay*pd[k])
		}
	}
}

// ZeroGrad clears the gradients of every managed parameter.
func (a *AdamW) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// SetLR sets the learning rate of the following steps; the trainer's
// decay calls it before each step.
func (a *AdamW) SetLR(lr float64) { a.cfg.LR = lr }

// StepCount returns how many updates have been applied.
func (a *AdamW) StepCount() int { return a.t }

// SetStepCount overrides the update counter — checkpoint restore uses it
// so bias correction continues from the pre-restart step.
func (a *AdamW) SetStepCount(t int) { a.t = t }

// Moments returns the live first/second-moment buffers, index-aligned with
// the params slice the optimizer was constructed over. Buffers are lazily
// allocated: a nil entry means that parameter has never been updated and
// its moments are identically zero. Checkpointing reads them out and
// restore copies saved state back in; mutating them outside that use
// corrupts the optimizer trajectory.
func (a *AdamW) Moments() (m, v []*tensor.Tensor) { return a.m, a.v }

// EnsureMoment materializes and returns parameter i's moment buffers —
// the checkpoint-restore hook for writing saved nonzero moments back in.
func (a *AdamW) EnsureMoment(i int) (m, v *tensor.Tensor) {
	if a.m[i] == nil {
		a.m[i] = tensor.New(a.params[i].Data.Shape()...)
		a.v[i] = tensor.New(a.params[i].Data.Shape()...)
	}
	return a.m[i], a.v[i]
}

// MomentBytes returns the resident bytes of the allocated moment buffers —
// the memory ledger's optimizer term. Lazily-absent buffers cost nothing.
func (a *AdamW) MomentBytes() int64 {
	var b int64
	for i := range a.m {
		if a.m[i] != nil {
			b += int64(a.m[i].Size()+a.v[i].Size()) * 8
		}
	}
	return b
}
