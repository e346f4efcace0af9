package experiments

import (
	"math/rand"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/kg"
	"edgekg/internal/serve"
)

// streamAnomalyRate is the share of anomalous frames in every deployment
// feed.
const streamAnomalyRate = 0.5

// TickFunc observes a deployment at one adaptation-cadence tick: the live
// detector, its mission KG, the tick number and the index of the schedule
// phase the tick's frames came from.
type TickFunc func(det *core.Detector, g *kg.Graph, tick, phase int) error

// Arm is one deployment run of the paper's evaluation protocol: train a
// detector on Mission, deploy it on a stream configured by Stream, and
// feed it Phases of the anomaly-trend schedule.
type Arm struct {
	Mission concept.Class
	Phases  []dataset.Phase
	Stream  serve.StreamConfig
	// Salt spaces the run's seeds: the k-th seed is Scale.Seed + k·Salt
	// (1 trains the detector, 2 drives the stream, 3 draws the feed, 4
	// draws the offline test set).
	Salt int64
	// Tick, when set, runs once the detector is trained, before it is
	// deployed (tick 0, phase 0), and after every Scale.AdaptEvery frames
	// (tick k, the phase of frame k·AdaptEvery−1). The cadence is the
	// scale's even when Stream does not adapt, so both Fig. 5 arms tick
	// alike.
	Tick TickFunc
}

func (a Arm) seed(env *Env, k int64) int64 { return env.Scale.Seed + k*a.Salt }

// Deploy runs one arm end to end and returns its stream's counters. It is
// the one deployment loop behind Fig. 5, Fig. 6 and Table I; what each
// figure reads of the run, it reads through arm.Tick.
func Deploy(env *Env, arm Arm) (serve.Stats, error) {
	every := env.Scale.AdaptEvery
	sched := dataset.Schedule{Phases: arm.Phases}
	det, g, err := env.BuildTrainedDetector(arm.Mission, arm.seed(env, 1))
	if err != nil {
		return serve.Stats{}, err
	}
	tick := func(k, frame int) error {
		if arm.Tick == nil {
			return nil
		}
		_, phase := sched.PhaseAt(frame)
		return arm.Tick(det, g, k, phase)
	}
	if err := tick(0, 0); err != nil {
		return serve.Stats{}, err
	}
	rt, err := serve.NewStream(0, det, arm.Stream, rand.NewSource(arm.seed(env, 2)), nil)
	if err != nil {
		return serve.Stats{}, err
	}
	feed, err := dataset.NewStream(env.Gen, sched, streamAnomalyRate, rand.New(rand.NewSource(arm.seed(env, 3))))
	if err != nil {
		return serve.Stats{}, err
	}
	for i := 0; i < sched.TotalSteps(); i++ {
		pix, _, _ := feed.Next()
		if err := rt.Process(pix).Err; err != nil {
			return serve.Stats{}, err
		}
		if (i+1)%every == 0 {
			if err := tick((i+1)/every, i); err != nil {
				return serve.Stats{}, err
			}
		}
	}
	return rt.Stats(), nil
}

// recordAUC returns a Tick hook that appends, at every tick after the
// first, the offline test AUC against the tick's phase class, on the test
// set drawn from arm's fourth seed. Point k−1 is tick k.
func recordAUC(env *Env, arm Arm, points *[]Fig5Point) TickFunc {
	seed := arm.seed(env, 4)
	return func(det *core.Detector, _ *kg.Graph, tick, phase int) error {
		if tick == 0 {
			return nil
		}
		auc, err := env.EvalAUC(det, arm.Phases[phase].Class, seed)
		if err != nil {
			return err
		}
		*points = append(*points, Fig5Point{Step: tick - 1, Phase: phase, AUC: auc})
		return nil
	}
}
