package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"edgekg/internal/concept"
	"edgekg/internal/dataset"
	"edgekg/internal/serve"
)

// Fig5Point is one measurement of the continuous-learning curve.
type Fig5Point struct {
	// Step is the continuous-learning step index (one per adaptation
	// cadence tick).
	Step int
	// Phase is 0 before the anomaly shift, 1 after.
	Phase int
	// AUC is the test AUC against the current phase's anomaly class.
	AUC float64
}

// Fig5Result is one scenario's curves for both arms.
type Fig5Result struct {
	Scenario         string
	Initial, Shifted concept.Class
	// Overlap is the profile cosine between the two classes — high for
	// weak shifts, near zero for strong ones.
	Overlap float64
	// Adaptive and Static are the with/without-KG-adaptive-learning
	// curves of Fig. 5.
	Adaptive, Static []Fig5Point
	// AdaptTriggers counts triggered adaptation rounds in the adaptive
	// arm.
	AdaptTriggers int
}

// RunFig5 reproduces one panel of Fig. 5: train on the initial anomaly,
// deploy, adapt through a shift to the second anomaly, and record test
// AUC per continuous-learning step for the adaptive and static arms. Both
// arms start from bitwise-identical trained detectors (same seeds).
func RunFig5(env *Env, initial, shifted concept.Class) (Fig5Result, error) {
	res := Fig5Result{
		Scenario: fmt.Sprintf("%s→%s", initial, shifted),
		Initial:  initial,
		Shifted:  shifted,
		Overlap:  env.Ont.ClassOverlap(initial, shifted),
	}
	adaptive, triggers, err := runFig5Arm(env, initial, shifted, true)
	if err != nil {
		return res, fmt.Errorf("adaptive arm: %w", err)
	}
	static, _, err := runFig5Arm(env, initial, shifted, false)
	if err != nil {
		return res, fmt.Errorf("static arm: %w", err)
	}
	res.Adaptive = adaptive
	res.Static = static
	res.AdaptTriggers = triggers
	return res, nil
}

func runFig5Arm(env *Env, initial, shifted concept.Class, adaptive bool) ([]Fig5Point, int, error) {
	s := env.Scale
	det, _, err := env.BuildTrainedDetector(initial, s.Seed+101)
	if err != nil {
		return nil, 0, err
	}
	rt, err := serve.NewStream(0, det, env.StreamConfig(adaptive), rand.NewSource(s.Seed+202), nil)
	if err != nil {
		return nil, 0, err
	}

	sched := dataset.Schedule{Phases: []dataset.Phase{
		{Class: initial, Steps: s.SegmentFrames},
		{Class: shifted, Steps: s.SegmentFrames},
	}}
	stream, err := dataset.NewStream(env.Gen, sched, s.StreamAnomalyRate, rand.New(rand.NewSource(s.Seed+303)))
	if err != nil {
		return nil, 0, err
	}

	var points []Fig5Point
	triggers := 0
	total := sched.TotalSteps()
	step := 0
	for i := 0; i < total; i++ {
		phaseCls := stream.CurrentClass()
		phaseIdx := stream.PhaseIndex()
		pix, _, _ := stream.Next()
		r := rt.Process(pix)
		if r.Err != nil {
			return nil, 0, r.Err
		}
		if r.Adapt.Triggered {
			triggers++
		}
		if (i+1)%s.AdaptEvery == 0 {
			auc, err := env.EvalAUC(det, phaseCls, s.Seed+404)
			if err != nil {
				return nil, 0, err
			}
			points = append(points, Fig5Point{Step: step, Phase: phaseIdx, AUC: auc})
			step++
		}
	}
	return points, triggers, nil
}

// PostShiftGain summarises a result: mean post-shift AUC of the adaptive
// arm minus the static arm — positive when adaptation helps (the claim of
// Fig. 5).
func (r Fig5Result) PostShiftGain() float64 {
	mean := func(points []Fig5Point) float64 {
		sum, n := 0.0, 0
		for _, p := range points {
			if p.Phase == 1 {
				sum += p.AUC
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	return mean(r.Adaptive) - mean(r.Static)
}

// FinalRecovery returns the adaptive arm's mean AUC over the last third of
// the post-shift segment — how far the model recovered.
func (r Fig5Result) FinalRecovery() float64 {
	var post []Fig5Point
	for _, p := range r.Adaptive {
		if p.Phase == 1 {
			post = append(post, p)
		}
	}
	if len(post) == 0 {
		return 0
	}
	tail := post[len(post)*2/3:]
	if len(tail) == 0 {
		tail = post
	}
	sum := 0.0
	for _, p := range tail {
		sum += p.AUC
	}
	return sum / float64(len(tail))
}

// Render prints the scenario as an aligned text table matching the
// figure's series.
func (r Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — %s (profile overlap %.3f)\n", r.Scenario, r.Overlap)
	fmt.Fprintf(&b, "%-6s %-6s %-12s %-12s\n", "step", "phase", "AUC(adapt)", "AUC(static)")
	n := len(r.Adaptive)
	if len(r.Static) < n {
		n = len(r.Static)
	}
	for i := 0; i < n; i++ {
		marker := ""
		if i > 0 && r.Adaptive[i].Phase != r.Adaptive[i-1].Phase {
			marker = "  <-- anomaly shift"
		}
		fmt.Fprintf(&b, "%-6d %-6d %-12.4f %-12.4f%s\n",
			r.Adaptive[i].Step, r.Adaptive[i].Phase, r.Adaptive[i].AUC, r.Static[i].AUC, marker)
	}
	fmt.Fprintf(&b, "post-shift gain (adaptive − static): %+.4f, final recovery %.4f, triggers %d\n",
		r.PostShiftGain(), r.FinalRecovery(), r.AdaptTriggers)
	return b.String()
}

// CSV renders the curves as comma-separated values.
func (r Fig5Result) CSV() string {
	var b strings.Builder
	b.WriteString("step,phase,auc_adaptive,auc_static\n")
	n := len(r.Adaptive)
	if len(r.Static) < n {
		n = len(r.Static)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d,%.6f,%.6f\n", r.Adaptive[i].Step, r.Adaptive[i].Phase, r.Adaptive[i].AUC, r.Static[i].AUC)
	}
	return b.String()
}
