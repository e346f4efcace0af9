package nn

import (
	"edgekg/internal/autograd"
	"edgekg/internal/tensor"
)

// BatchNorm1d normalises each column of a (batch × features) activation
// over the batch, with learnable gain/bias and running statistics for
// inference — the BatchNorm of every hierarchical GNN layer (eq. 4).
type BatchNorm1d struct {
	Gamma *autograd.Value
	Beta  *autograd.Value

	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	Eps      float64
	Momentum float64 // running = (1-m)*running + m*batch
	training bool
	features int
}

// NewBatchNorm1d returns a BatchNorm over the given feature count with
// gamma=1, beta=0, running mean 0 and running variance 1.
func NewBatchNorm1d(features int) *BatchNorm1d {
	return &BatchNorm1d{
		Gamma:       autograd.Param(tensor.Ones(features)),
		Beta:        autograd.Param(tensor.New(features)),
		RunningMean: tensor.New(features),
		RunningVar:  tensor.Ones(features),
		Eps:         1e-5,
		Momentum:    0.1,
		training:    true,
		features:    features,
	}
}

// Forward applies the normalisation. In training mode batch statistics are
// used and the running statistics updated; in inference mode the frozen
// running statistics are used (gradients still flow through to the input,
// as deployment-time adaptation requires).
func (b *BatchNorm1d) Forward(x *autograd.Value) *autograd.Value {
	if b.training {
		out, mean, variance := autograd.BatchNormTrain(x, b.Gamma, b.Beta, b.Eps)
		b.UpdateRunning(mean, variance)
		return out
	}
	return autograd.BatchNormEval(x, b.Gamma, b.Beta, b.RunningMean, b.RunningVar, b.Eps)
}

// UpdateRunning folds one batch's statistics into the running mean and
// variance: running = (1-momentum)·running + momentum·batch. Fused layers
// that compute batch statistics outside Forward report them through here.
func (b *BatchNorm1d) UpdateRunning(mean, variance *tensor.Tensor) {
	m := b.Momentum
	tensor.AxpyInPlace(tensor.ScaleInPlace(b.RunningMean, 1-m), m, mean)
	tensor.AxpyInPlace(tensor.ScaleInPlace(b.RunningVar, 1-m), m, variance)
}

// SetTraining switches between batch and running statistics.
// Re-asserting the current mode is a pure read: concurrent inference callers over one frozen model (the serving
// runtime's per-frame ScoreVideo calls) all SetTraining(false) on shared
// layers, and an unconditional store would be a data race.
func (b *BatchNorm1d) SetTraining(t bool) {
	if b.training != t {
		b.training = t
	}
}

// Training reports the current mode.
func (b *BatchNorm1d) Training() bool { return b.training }

// Params returns the layer's trainable parameters.
func (b *BatchNorm1d) Params() []Param {
	return []Param{{Name: "gamma", V: b.Gamma}, {Name: "beta", V: b.Beta}}
}

// LayerNorm normalises each row of its input, with learnable gain/bias.
type LayerNorm struct {
	Gamma *autograd.Value
	Beta  *autograd.Value
	Eps   float64
}

// NewLayerNorm returns a LayerNorm over rows of width features.
func NewLayerNorm(features int) *LayerNorm {
	return &LayerNorm{
		Gamma: autograd.Param(tensor.Ones(features)),
		Beta:  autograd.Param(tensor.New(features)),
		Eps:   1e-5,
	}
}

// Forward applies the normalisation.
func (l *LayerNorm) Forward(x *autograd.Value) *autograd.Value {
	return autograd.LayerNorm(x, l.Gamma, l.Beta, l.Eps)
}

// Params returns the layer's trainable parameters.
func (l *LayerNorm) Params() []Param {
	return []Param{{Name: "gamma", V: l.Gamma}, {Name: "beta", V: l.Beta}}
}

// LayerNormEval is the eval-only form of a LayerNorm at width T.
type LayerNormEval[T tensor.Float] struct {
	Gamma, Beta []T
	Eps         float64
}

// EvalLayerNorm returns l's eval form at width T.
func EvalLayerNorm[T tensor.Float](l *LayerNorm) LayerNormEval[T] {
	return LayerNormEval[T]{
		Gamma: tensor.Narrow[T](l.Gamma.Data).Data(),
		Beta:  tensor.Narrow[T](l.Beta.Data).Data(),
		Eps:   l.Eps,
	}
}

// Forward normalises each row of x into a new tensor.
func (l LayerNormEval[T]) Forward(ws *tensor.Workspace, x *tensor.Dense[T]) *tensor.Dense[T] {
	return autograd.LayerNormFwd(ws, x, l.Gamma, l.Beta, l.Eps)
}
