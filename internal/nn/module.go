// Package nn provides the neural-network building blocks of the detector:
// dense layers, batch/layer normalisation, multi-head attention and
// transformer encoders, together with parameter management (collection,
// freezing) shared by training and deployment-time adaptation.
package nn

import "edgekg/internal/autograd"

// Param is a named trainable tensor.
type Param struct {
	Name string
	V    *autograd.Value
}

// Values extracts the raw autograd values from a parameter list, the form
// optimizers consume.
func Values(ps []Param) []*autograd.Value {
	out := make([]*autograd.Value, len(ps))
	for i, p := range ps {
		out[i] = p.V
	}
	return out
}

// Prefix returns ps with prefix+"." prepended to every name; composites use
// it to namespace their children.
func Prefix(prefix string, ps []Param) []Param {
	out := make([]Param, len(ps))
	for i, p := range ps {
		out[i] = Param{Name: prefix + "." + p.Name, V: p.V}
	}
	return out
}

// Freeze disables gradient accumulation for every parameter in ps.
// Parameters already frozen are left untouched (a pure read), so
// re-asserting a deployed model's frozen state — which every serving
// stream's adapter does after structural KG changes — never writes to
// backbone parameters other streams are concurrently reading.
func Freeze(ps []Param) {
	for _, p := range ps {
		if p.V.RequiresGrad() {
			p.V.SetRequiresGrad(false)
		}
	}
}

// Unfreeze enables gradient accumulation for every parameter in ps.
// Already-trainable parameters are left untouched (see Freeze).
func Unfreeze(ps []Param) {
	for _, p := range ps {
		if !p.V.RequiresGrad() {
			p.V.SetRequiresGrad(true)
		}
	}
}
