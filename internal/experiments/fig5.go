package experiments

import (
	"fmt"
	"strings"

	"edgekg/internal/concept"
	"edgekg/internal/dataset"
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
	adaptive := fig5Arm(env, initial, shifted, true)
	adaptive.Tick = recordAUC(env, adaptive, &res.Adaptive)
	st, err := Deploy(env, adaptive)
	if err != nil {
		return res, fmt.Errorf("adaptive arm: %w", err)
	}
	res.AdaptTriggers = st.TriggeredRounds
	static := fig5Arm(env, initial, shifted, false)
	static.Tick = recordAUC(env, static, &res.Static)
	if _, err := Deploy(env, static); err != nil {
		return res, fmt.Errorf("static arm: %w", err)
	}
	return res, nil
}

// fig5Arm is one arm of a Fig. 5 panel: trained on initial, one segment
// of initial, then one of shifted.
func fig5Arm(env *Env, initial, shifted concept.Class, adaptive bool) Arm {
	seg := env.Scale.SegmentFrames
	return Arm{
		Mission: initial,
		Phases:  []dataset.Phase{{Class: initial, Steps: seg}, {Class: shifted, Steps: seg}},
		Stream:  env.StreamConfig(adaptive),
		Salt:    101,
	}
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
