package optim

import "math"

// Schedule maps a step index to a learning-rate multiplier in (0, 1].
type Schedule interface {
	// Factor returns the multiplier applied to the base learning rate at
	// the given zero-based step.
	Factor(step int) float64
}

// ConstantSchedule keeps the base learning rate.
type ConstantSchedule struct{}

// Factor implements Schedule.
func (ConstantSchedule) Factor(int) float64 { return 1 }

// ExponentialDecay multiplies the learning rate by Rate each step. The
// paper's decaying threshold α_d = 0.9999 is expressed as
// ExponentialDecay{Rate: 0.9999}.
type ExponentialDecay struct {
	Rate float64
}

// Factor implements Schedule.
func (e ExponentialDecay) Factor(step int) float64 {
	return math.Pow(e.Rate, float64(step))
}

// CosineAnnealing decays from 1 to MinFactor over TotalSteps with a cosine
// profile, then holds MinFactor.
type CosineAnnealing struct {
	TotalSteps int
	MinFactor  float64
}

// Factor implements Schedule.
func (c CosineAnnealing) Factor(step int) float64 {
	if c.TotalSteps <= 0 || step >= c.TotalSteps {
		return c.MinFactor
	}
	cos := 0.5 * (1 + math.Cos(math.Pi*float64(step)/float64(c.TotalSteps)))
	return c.MinFactor + (1-c.MinFactor)*cos
}

// WarmupWrap linearly ramps the factor from 0 to the inner schedule's value
// over WarmupSteps, then defers to Inner.
type WarmupWrap struct {
	WarmupSteps int
	Inner       Schedule
}

// Factor implements Schedule.
func (w WarmupWrap) Factor(step int) float64 {
	inner := 1.0
	if w.Inner != nil {
		inner = w.Inner.Factor(step)
	}
	if w.WarmupSteps > 0 && step < w.WarmupSteps {
		return inner * float64(step+1) / float64(w.WarmupSteps)
	}
	return inner
}

// Scheduled couples an optimizer with a schedule and a base learning rate;
// Step advances both.
type Scheduled struct {
	Opt    Optimizer
	Sched  Schedule
	BaseLR float64
	step   int
}

// NewScheduled returns a scheduled optimizer starting at step 0.
func NewScheduled(opt Optimizer, sched Schedule) *Scheduled {
	return &Scheduled{Opt: opt, Sched: sched, BaseLR: opt.LR()}
}

// Step sets the scheduled learning rate, applies one optimizer step and
// advances the schedule.
func (s *Scheduled) Step() {
	s.Opt.SetLR(s.BaseLR * s.Sched.Factor(s.step))
	s.Opt.Step()
	s.step++
}

// ZeroGrad forwards to the underlying optimizer.
func (s *Scheduled) ZeroGrad() { s.Opt.ZeroGrad() }
