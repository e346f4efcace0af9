package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgekg/internal/decision"
	"edgekg/internal/nn"
	"edgekg/internal/optim"
	"edgekg/internal/tensor"
)

// trainedState lists everything training moves: weights, token banks and
// the BatchNorm running statistics.
func trainedState(det *Detector) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range append(det.Params(), det.TokenParams()...) {
		out = append(out, p.V.Data)
	}
	for i := 0; i < det.NumGNNs(); i++ {
		out = append(out, det.GNN(i).RunningStats()...)
	}
	return out
}

// TestTrainStepIsThePlainLoop pins Trainer.Step to the textbook training
// loop written out from public pieces: one clip, zero the gradients,
// forward, loss, backward, clip the global norm, one AdamW update at the
// decayed learning rate. Two identically seeded rigs, one driven each way,
// must agree on every loss, every trained value and the scores of the
// deployed detectors to the bit.
func TestTrainStepIsThePlainLoop(t *testing.T) {
	const steps = 24
	for _, trainTokens := range []bool{true, false} {
		t.Run(fmt.Sprintf("tokens=%v", trainTokens), func(t *testing.T) {
			cfg := DefaultTrainConfig()
			cfg.TrainTokens = trainTokens

			rStep, srcStep := trainRig(t, 41)
			tr := NewTrainer(rStep.det, cfg)

			rLoop, srcLoop := trainRig(t, 41)
			det := rLoop.det
			det.UnfreezeAll()
			params := det.Params()
			if trainTokens {
				params = append(params, det.TokenParams()...)
			}
			values := nn.Values(params)
			opt := optim.NewAdamW(values, trainAdamW)

			rngStep := rand.New(rand.NewSource(7))
			rngLoop := rand.New(rand.NewSource(7))
			for s := 0; s < steps; s++ {
				got := tr.Step(rngStep, srcStep)

				det.SetTraining(true)
				frames, labels := srcLoop.NextClip(rngLoop)
				opt.ZeroGrad()
				loss := decision.Loss(det.ForwardClip(frames, srcLoop.Batch()), labels, det.cfg.Loss, true)
				loss.Backward()
				optim.ClipGradNorm(values, trainClipNorm)
				opt.SetLR(trainAdamW.LR * math.Pow(trainDecayRate, float64(s)))
				opt.Step()

				if want := loss.Scalar(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: Step loss %.17g, plain loop %.17g", s, got, want)
				}
			}
			if tr.StepsTaken() != steps {
				t.Errorf("StepsTaken = %d, want %d", tr.StepsTaken(), steps)
			}
			want, got := trainedState(det), trainedState(rStep.det)
			if len(got) != len(want) {
				t.Fatalf("%d trained tensors, want %d", len(got), len(want))
			}
			for i := range want {
				requireSameBits(t, fmt.Sprintf("trained tensor %d", i), want[i].Data(), got[i].Data())
			}

			video := tensor.RandN(rand.New(rand.NewSource(8)), 1, 9, rStep.space.PixDim())
			rStep.det.Deploy()
			det.Deploy()
			requireSameBits(t, "ScoreVideo", det.ScoreVideo(video), rStep.det.ScoreVideo(video))
		})
	}
}
