package core

import (
	"fmt"
	"math"
	"math/rand"

	"edgekg/internal/autograd"
	"edgekg/internal/decision"
	"edgekg/internal/metrics"
	"edgekg/internal/nn"
	"edgekg/internal/optim"
	"edgekg/internal/tensor"
)

// ClipSource supplies contiguous training clips: frames of
// window+batch−1 rows and batch per-window labels. internal/dataset's
// ClipSource satisfies it.
type ClipSource interface {
	NextClip(rng *rand.Rand) (frames *tensor.Tensor, labels []int)
	Window() int
	Batch() int
}

// trainAdamW carries the AdamW hyper-parameters of pre-deployment
// training: the paper's β1 0.9, β2 0.999, ε 1e-8 (Sec. IV-A). The paper's
// lr of 1e-5 and weight decay of 1.0 are tuned for ImageBind-scale
// features — the synthetic space trains well around lr 1e-3..1e-2.
var trainAdamW = optim.AdamWConfig{LR: 5e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 1e-4}

const (
	// trainDecayRate multiplies the learning rate per step: the paper's
	// α_d = 0.9999 threshold decay.
	trainDecayRate = 0.9999
	// trainClipNorm bounds the global gradient norm.
	trainClipNorm = 5
)

// TrainConfig controls pre-deployment training (Fig. 2B).
type TrainConfig struct {
	// Steps is the number of optimisation steps (paper: 3000).
	Steps int
	// TrainTokens also updates KG token embeddings during training; the
	// paper trains the full stack before deployment.
	TrainTokens bool
}

// DefaultTrainConfig returns the paper's regime scaled to the synthetic
// substrate.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Steps: 3000, TrainTokens: true}
}

// Trainer drives pre-deployment training of a Detector.
type Trainer struct {
	det *Detector
	cfg TrainConfig
	opt *optim.AdamW
	// params caches the optimiser's parameter set (detector weights, plus
	// token banks when TrainTokens) — it is fixed for the trainer's
	// lifetime, and Step previously rebuilt the slice on every call just
	// to clip gradients.
	params []*autograd.Value
	steps  int
}

// NewTrainer builds a trainer over the detector's weights (plus token
// banks when TrainTokens).
func NewTrainer(det *Detector, cfg TrainConfig) *Trainer {
	det.UnfreezeAll()
	params := det.Params()
	if cfg.TrainTokens {
		params = append(params, det.TokenParams()...)
	}
	values := nn.Values(params)
	return &Trainer{det: det, cfg: cfg, opt: optim.NewAdamW(values, trainAdamW), params: values}
}

// Step performs one optimisation step — sample a clip, forward, loss,
// backward, clip the global gradient norm, one AdamW update at the decayed
// learning rate — and returns the clip's loss.
func (t *Trainer) Step(rng *rand.Rand, src ClipSource) float64 {
	t.det.SetTraining(true)
	frames, labels := src.NextClip(rng)
	t.opt.ZeroGrad()
	logits := t.det.ForwardClip(frames, src.Batch())
	loss := decision.Loss(logits, labels, t.det.cfg.Loss, true)
	loss.Backward()
	optim.ClipGradNorm(t.params, trainClipNorm)
	t.opt.SetLR(trainAdamW.LR * math.Pow(trainDecayRate, float64(t.steps)))
	t.opt.Step()
	t.steps++
	return loss.Scalar()
}

// Train runs the configured number of steps, invoking progress (if
// non-nil) with the step index and loss.
func (t *Trainer) Train(rng *rand.Rand, src ClipSource, progress func(step int, loss float64)) {
	for i := 0; i < t.cfg.Steps; i++ {
		loss := t.Step(rng, src)
		if progress != nil {
			progress(i, loss)
		}
	}
}

// StepsTaken returns how many optimisation steps have run.
func (t *Trainer) StepsTaken() int { return t.steps }

// EvalAUC scores frames in inference mode and returns the ROC-AUC of
// anomaly scores against per-frame binary labels — the paper's test
// metric.
func EvalAUC(det *Detector, frames *tensor.Tensor, labels []bool) (float64, error) {
	if frames.Rows() != len(labels) {
		return 0, fmt.Errorf("core: %d frames vs %d labels", frames.Rows(), len(labels))
	}
	scores := det.ScoreVideo(frames)
	return metrics.AUC(scores, labels)
}
