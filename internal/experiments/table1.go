package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"edgekg/internal/baseline"
	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/flops"
	"edgekg/internal/serve"
)

// TableIConfig shapes the cost-comparison scenario: the paper assumes the
// anomaly trend alternates between Stealing and Robbery four times per
// month, the baseline regenerating its KG at every change while the
// proposed method adapts once per day on the edge.
type TableIConfig struct {
	Days            int
	UpdatesPerMonth int
	ClassA, ClassB  concept.Class
}

// DefaultTableIConfig returns the paper's scenario.
func DefaultTableIConfig() TableIConfig {
	return TableIConfig{Days: 30, UpdatesPerMonth: 4, ClassA: concept.Stealing, ClassB: concept.Robbery}
}

// TableIResult carries every row of Table I, measured where this
// implementation actually runs the work and constant where the paper
// states cloud-side figures.
type TableIResult struct {
	Cfg       TableIConfig
	Constants flops.CloudConstants
	Device    flops.DeviceProfile

	BaselineAUC float64
	ProposedAUC float64

	CloudCosts baseline.CloudCosts
	EdgeStats  serve.Stats

	EdgeOpsPerDay   int64
	EdgeOpsPerMonth int64
	EnergyPerDayJ   float64
	AdaptLatencyS   float64
}

// RunTableI simulates one month under the Table I scenario for both arms
// and assembles the comparison.
func RunTableI(env *Env, cfg TableIConfig) (TableIResult, error) {
	res := TableIResult{Cfg: cfg, Constants: flops.PaperCloudConstants(), Device: flops.JetsonClass()}
	s := env.Scale
	dayFrames := s.AdaptEvery

	// phases carry Steps in *days*; the frame stream scales by dayFrames.
	phases := buildAlternation(cfg)
	framePhases := make([]dataset.Phase, len(phases))
	for i, p := range phases {
		framePhases[i] = dataset.Phase{Class: p.Class, Steps: p.Steps * dayFrames}
	}
	// --- Proposed arm: one detector, continuous edge adaptation. ---
	arm := Arm{Mission: cfg.ClassA, Phases: framePhases, Stream: env.StreamConfig(true), Salt: 11}
	var days []Fig5Point
	arm.Tick = recordAUC(env, arm, &days)
	var err error
	if res.EdgeStats, err = Deploy(env, arm); err != nil {
		return res, fmt.Errorf("proposed arm: %w", err)
	}
	for _, d := range days {
		res.ProposedAUC += d.AUC
	}
	res.ProposedAUC /= float64(cfg.Days)
	res.EdgeOpsPerDay = res.EdgeStats.AdaptOpsPerRound
	res.EdgeOpsPerMonth = res.EdgeOpsPerDay * int64(cfg.Days)
	res.EnergyPerDayJ = res.Device.EnergyJoules(res.EdgeOpsPerDay)
	res.AdaptLatencyS = res.Device.LatencySeconds(res.EdgeOpsPerDay)

	// --- Baseline arm: cloud KG regeneration on every trend change. ---
	bcfg := baseline.Config{
		Gen:            env.GenOptions(),
		Detector:       env.DetectorConfig(),
		Train:          env.TrainConfig(),
		TrainNormal:    s.TrainNormals,
		TrainAnomalous: s.TrainAnomlous,
		Batch:          s.TrainBatch,
		Cloud:          res.Constants,
	}
	updater := baseline.NewCloudUpdater(env.Space, env.NewLLM(77), env.Gen, bcfg)
	brng := rand.New(rand.NewSource(s.Seed + 55))
	var bdet *core.Detector
	var baseAUC float64
	day := 0
	for pi, ph := range phases {
		// The baseline notices the shift and rebuilds in the cloud.
		bdet, err = updater.BuildFor(brng, ph.Class.String())
		if err != nil {
			return res, fmt.Errorf("baseline arm phase %d: %w", pi, err)
		}
		phaseDays := ph.Steps
		for d := 0; d < phaseDays && day < cfg.Days; d++ {
			auc, err := env.EvalAUC(bdet, ph.Class, arm.seed(env, 4))
			if err != nil {
				return res, err
			}
			baseAUC += auc
			day++
		}
	}
	if day > 0 {
		res.BaselineAUC = baseAUC / float64(day)
	}
	res.CloudCosts = updater.Costs()
	return res, nil
}

// buildAlternation returns UpdatesPerMonth phases alternating A↔B, with
// Steps counted in days. Each phase start costs the baseline one cloud KG
// update (including the first, which refreshes the month's deployment).
func buildAlternation(cfg TableIConfig) []dataset.Phase {
	perPhaseDays := cfg.Days / cfg.UpdatesPerMonth
	var phases []dataset.Phase
	for i := 0; i < cfg.UpdatesPerMonth; i++ {
		cls := cfg.ClassA
		if i%2 == 1 {
			cls = cfg.ClassB
		}
		days := perPhaseDays
		if i == cfg.UpdatesPerMonth-1 {
			days = cfg.Days - perPhaseDays*(cfg.UpdatesPerMonth-1)
		}
		phases = append(phases, dataset.Phase{Class: cls, Steps: days})
	}
	return phases
}

// Render prints the comparison in the paper's Table I layout.
func (r TableIResult) Render() string {
	var b strings.Builder
	c := r.Constants
	row := func(metric, base, prop string) {
		fmt.Fprintf(&b, "%-58s %-28s %s\n", metric, base, prop)
	}
	// measured fills a row metered from adaptation rounds; with no triggered
	// round there is nothing to measure, and a 0 would read as "free".
	measured := func(v string) string {
		if r.EdgeStats.TriggeredRounds == 0 {
			return "n/a (no round triggered)"
		}
		return v
	}
	b.WriteString("TABLE I — computational and performance comparison\n")
	row("Metric", "Baseline (cloud KG updates)", "Proposed (edge adaptation)")
	b.WriteString(strings.Repeat("-", 110) + "\n")
	b.WriteString("Initial setup\n")
	row("  Human intervention", "yes", "yes")
	row("  Initial KG generation time (min)", fmt.Sprintf("%.0f", c.KGGenMinutes), fmt.Sprintf("%.0f", c.KGGenMinutes))
	row("  Initial KG generation cost (FLOPs)", fmtE(c.KGGenFLOPs), fmtE(c.KGGenFLOPs))
	row("  Memory for KG (GB)", fmt.Sprintf("%.1f", c.KGMemoryGB), fmt.Sprintf("%.1f", c.KGMemoryGB))
	row("  Memory for GPT-4 during initial generation (GB)", fmt.Sprintf("%.0f", c.GPTMemoryGB), fmt.Sprintf("%.0f", c.GPTMemoryGB))
	row("  Edge device storage (GB)", fmt.Sprintf("%.0f", c.EdgeStorageGB), fmt.Sprintf("%.0f", c.EdgeStorageGB))
	b.WriteString("Monthly updates and maintenance\n")
	row("  Human intervention", "yes", "no")
	row("  KG updates (per month)", fmt.Sprintf("%d", r.CloudCosts.Updates), "0")
	row("  Total KG update time (min/month)", fmt.Sprintf("%.0f", r.CloudCosts.TotalMinutes), "0")
	row("  GPT-4 compute (FLOPs/month)", fmtE(r.CloudCosts.TotalFLOPs), "0")
	row("  Edge compute per adaptation (FLOPs/day, measured)", "n/a", measured(fmtE(float64(r.EdgeOpsPerDay))))
	row("  Edge compute (FLOPs/month, measured)", "n/a", measured(fmtE(float64(r.EdgeOpsPerMonth))))
	row("  Memory for GPT-4 during updates (GB)", fmt.Sprintf("%.0f", r.CloudCosts.GPTMemoryGB), "0")
	row("  Network bandwidth for KG updates (GB/month)", fmt.Sprintf("%.1f", r.CloudCosts.BandwidthGB), "0")
	row("  Edge energy per adaptation (J, device model)", "n/a", measured(fmt.Sprintf("%.2e", r.EnergyPerDayJ)))
	b.WriteString("Operational performance\n")
	row("  Average AUC score", fmt.Sprintf("%.3f", r.BaselineAUC), fmt.Sprintf("%.3f", r.ProposedAUC))
	row("  KG update latency", "high (cloud round-trip)", measured(fmt.Sprintf("%.2es on-device", r.AdaptLatencyS)))
	row("  Scalability (edge devices supported)", "limited by cloud", "high (independent)")
	fmt.Fprintf(&b, "\n(proposed arm: %d adaptation rounds, %d triggered, %d nodes pruned/created)\n",
		r.EdgeStats.AdaptRounds, r.EdgeStats.TriggeredRounds, r.EdgeStats.PrunedNodes)
	return b.String()
}

func fmtE(v float64) string {
	if v == 0 {
		return "0"
	}
	return fmt.Sprintf("%.2e", v)
}
