package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/flops"
	"edgekg/internal/kg"
	"edgekg/internal/serve"
)

// testScale is even smaller than QuickScale so the whole suite stays fast.
func testScale() Scale {
	s := QuickScale()
	s.TrainSteps = 150
	s.SegmentFrames = 96
	s.AdaptEvery = 24
	s.MonitorN = 24
	s.MonitorLag = 12
	s.EvalNormals, s.EvalAnomlous = 3, 3
	return s
}

func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(testScale())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvConstruction(t *testing.T) {
	env := testEnv(t)
	if env.Space.Dim() != 16 || env.Space.PixDim() != 32 {
		t.Errorf("space dims %d/%d", env.Space.Dim(), env.Space.PixDim())
	}
	if env.Tok.VocabSize() == 0 {
		t.Error("empty vocab")
	}
}

func TestBuildTrainedDetectorDeterministic(t *testing.T) {
	env := testEnv(t)
	d1, g1, err := env.BuildTrainedDetector(concept.Stealing, 7)
	if err != nil {
		t.Fatal(err)
	}
	d2, g2, err := env.BuildTrainedDetector(concept.Stealing, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Error("same-seed KGs differ structurally")
	}
	// Same seed ⇒ identical weights ⇒ identical evaluation.
	a1, err := env.EvalAUC(d1, concept.Stealing, 99)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := env.EvalAUC(d2, concept.Stealing, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("same-seed detectors disagree: %v vs %v", a1, a2)
	}
	if a1 < 0.7 {
		t.Errorf("trained AUC %v too low", a1)
	}
}

func TestRunFig5WeakShiftShape(t *testing.T) {
	env := testEnv(t)
	res, err := RunFig5(env, concept.Stealing, concept.Robbery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Adaptive) == 0 || len(res.Static) == 0 {
		t.Fatal("no curve points")
	}
	if len(res.Adaptive) != len(res.Static) {
		t.Errorf("arm lengths differ: %d vs %d", len(res.Adaptive), len(res.Static))
	}
	// Both phases must be represented.
	phases := map[int]bool{}
	for _, p := range res.Adaptive {
		phases[p.Phase] = true
		if p.AUC < 0 || p.AUC > 1 {
			t.Fatalf("AUC %v out of range", p.AUC)
		}
	}
	if !phases[0] || !phases[1] {
		t.Error("curve missing a phase")
	}
	if res.Overlap <= 0.1 {
		t.Errorf("weak-shift overlap %v suspiciously low", res.Overlap)
	}
	out := res.Render()
	for _, want := range []string{"Figure 5", "Stealing→Robbery", "anomaly shift", "post-shift gain"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "step,phase,auc_adaptive,auc_static\n") {
		t.Error("CSV header wrong")
	}
	if strings.Count(csv, "\n") != len(res.Adaptive)+1 {
		t.Error("CSV row count wrong")
	}
}

// TestDeploy pins the one deployment loop: an arm replays bit for bit, its
// hook sees every cadence tick in order with the schedule's phase, the
// static arm never adapts, and Fig. 5 reads the same run Deploy returns.
func TestDeploy(t *testing.T) {
	env := testEnv(t)
	type tick struct{ tick, phase int }
	deploy := func(arm Arm) (serve.Stats, []Fig5Point, []tick) {
		t.Helper()
		var points []Fig5Point
		var ticks []tick
		auc := recordAUC(env, arm, &points)
		arm.Tick = func(det *core.Detector, g *kg.Graph, k, phase int) error {
			ticks = append(ticks, tick{k, phase})
			return auc(det, g, k, phase)
		}
		st, err := Deploy(env, arm)
		if err != nil {
			t.Fatal(err)
		}
		return st, points, ticks
	}

	adaptive := fig5Arm(env, concept.Stealing, concept.Robbery, true)
	st1, points1, ticks := deploy(adaptive)
	st2, points2, _ := deploy(adaptive)
	if st1 != st2 {
		t.Errorf("same arm, different stats:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(points1, points2) {
		t.Errorf("same arm, different tick AUCs:\n%v\n%v", points1, points2)
	}

	sched := dataset.Schedule{Phases: adaptive.Phases}
	every := env.Scale.AdaptEvery
	if n := sched.TotalSteps()/every + 1; len(ticks) != n {
		t.Fatalf("hook saw %d ticks, want %d", len(ticks), n)
	}
	for k, tk := range ticks {
		_, want := sched.PhaseAt(max(k*every-1, 0))
		if tk.tick != k || tk.phase != want {
			t.Errorf("call %d: tick %d phase %d, want tick %d phase %d", k, tk.tick, tk.phase, k, want)
		}
	}
	if len(points1) != len(ticks)-1 {
		t.Errorf("%d AUC points for %d ticks after deployment", len(points1), len(ticks)-1)
	}
	if st1.AdaptRounds == 0 {
		t.Error("adaptive arm ran no adaptation round")
	}

	static, staticPoints, staticTicks := deploy(fig5Arm(env, concept.Stealing, concept.Robbery, false))
	if static.AdaptRounds != 0 {
		t.Errorf("static arm ran %d adaptation rounds", static.AdaptRounds)
	}
	if !reflect.DeepEqual(staticTicks, ticks) {
		t.Errorf("static arm ticks %v, adaptive %v", staticTicks, ticks)
	}

	res, err := RunFig5(env, concept.Stealing, concept.Robbery)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdaptTriggers != st1.TriggeredRounds {
		t.Errorf("Fig. 5 reports %d triggers, the adaptive arm's stream %d", res.AdaptTriggers, st1.TriggeredRounds)
	}
	if !reflect.DeepEqual(res.Adaptive, points1) || !reflect.DeepEqual(res.Static, staticPoints) {
		t.Error("Fig. 5's curves are not its arms' tick AUCs")
	}
}

func TestRunFig6Trajectory(t *testing.T) {
	env := testEnv(t)
	res, err := RunFig6(env, "sneaky", "firearm")
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trajectory
	if len(tr.Iterations) < 3 {
		t.Fatalf("trajectory too short: %d points", len(tr.Iterations))
	}
	if res.DecodedStart == "" {
		t.Error("no decoded start phrase")
	}
	if len(res.TopKEnd) != 5 {
		t.Errorf("top-5 has %d entries", len(res.TopKEnd))
	}
	out := res.Render()
	for _, want := range []string{"Figure 6", "sneaky", "firearm", "net drift"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if !strings.Contains(res.CSV(), "iteration,dist_initial,dist_target,top_word") {
		t.Error("CSV header wrong")
	}
}

func TestRunTableIAccounting(t *testing.T) {
	env := testEnv(t)
	cfg := DefaultTableIConfig()
	cfg.Days = 8 // keep the test fast; cost scaling is linear anyway
	res, err := RunTableI(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cloud side: 4 updates at the paper's constants.
	if res.CloudCosts.Updates != 4 {
		t.Errorf("cloud updates = %d, want 4", res.CloudCosts.Updates)
	}
	if res.CloudCosts.TotalFLOPs != 4e15 {
		t.Errorf("cloud FLOPs = %v, want 4e15", res.CloudCosts.TotalFLOPs)
	}
	if res.CloudCosts.BandwidthGB != 2 {
		t.Errorf("bandwidth = %v, want 2 GB", res.CloudCosts.BandwidthGB)
	}
	// Edge side: measured, nonzero, and orders of magnitude below cloud.
	if res.EdgeOpsPerDay <= 0 {
		t.Error("no edge adaptation ops measured")
	}
	if float64(res.EdgeOpsPerMonth) >= res.CloudCosts.TotalFLOPs/1000 {
		t.Errorf("edge monthly ops %v not ≪ cloud %v", res.EdgeOpsPerMonth, res.CloudCosts.TotalFLOPs)
	}
	// AUCs sane.
	if res.BaselineAUC < 0.5 || res.ProposedAUC < 0.5 {
		t.Errorf("AUCs too low: baseline %v proposed %v", res.BaselineAUC, res.ProposedAUC)
	}
	out := res.Render()
	for _, want := range []string{"TABLE I", "Average AUC", "FLOPs/month", "Scalability"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestTableIRenderMeasuredRows pins how Table I prints the four rows
// metered from adaptation rounds: in scientific notation, so a quick-scale
// round's millijoules and microseconds do not round to zero, and as "n/a"
// when no round triggered, rather than a 0 that reads as free.
func TestTableIRenderMeasuredRows(t *testing.T) {
	res := TableIResult{Device: flops.JetsonClass()}
	res.EdgeStats = serve.Stats{AdaptRounds: 30, TriggeredRounds: 2}
	res.EdgeOpsPerDay = 250_000
	res.EdgeOpsPerMonth = 30 * res.EdgeOpsPerDay
	res.EnergyPerDayJ = res.Device.EnergyJoules(res.EdgeOpsPerDay)
	res.AdaptLatencyS = res.Device.LatencySeconds(res.EdgeOpsPerDay)
	out := res.Render()
	for _, want := range []string{
		fmt.Sprintf("%.2e\n", res.EnergyPerDayJ),
		fmt.Sprintf("%.2es on-device\n", res.AdaptLatencyS),
		"2.50e+05\n",
		"7.50e+06\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("triggered rounds: render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no round triggered") {
		t.Errorf("triggered rounds rendered as none:\n%s", out)
	}

	res.EdgeStats.TriggeredRounds = 0
	out = res.Render()
	if n := strings.Count(out, "n/a (no round triggered)\n"); n != 4 {
		t.Errorf("no triggered round: %d rows say so, want the 4 measured edge rows:\n%s", n, out)
	}
}

func TestScalesConstructible(t *testing.T) {
	if _, err := NewEnv(QuickScale()); err != nil {
		t.Errorf("quick scale: %v", err)
	}
	full := FullScale()
	if full.TemporalInner != 128 || full.TemporalHeads != 8 || full.Window != 8 {
		t.Error("full scale should use the paper's temporal shape")
	}
}

func TestDefaultAdaptConfigSanity(t *testing.T) {
	cfg := core.DefaultAdaptConfig()
	if cfg.LR <= 0 || cfg.Patience < 1 {
		t.Error("default adapt config invalid")
	}
}

// TestEnvStreamConfig pins the one Scale → stream-config mapping to what
// the five hand-written blocks it replaced (table1, fig5, fig6,
// System.deploy, System.Serve) produced, field for field, at both preset
// scales: the suite's anchored monitor and device profile, the scale's
// window, lag, adapter settings and cadence, synchronous adaptation, no
// score history, default precision.
func TestEnvStreamConfig(t *testing.T) {
	for _, c := range []struct {
		name                   string
		scale                  Scale
		monitorN, lag, cadence int
	}{
		{"quick", QuickScale(), 32, 16, 32},
		{"full", FullScale(), 64, 32, 64},
	} {
		env := &Env{Scale: c.scale}
		adapt := core.DefaultAdaptConfig()
		adapt.Patience = 4
		want := serve.StreamConfig{
			MonitorN:          c.monitorN,
			MonitorLag:        c.lag,
			AnchoredReference: true,
			AdaptEveryFrames:  c.cadence,
			Adapt:             adapt,
			Device:            flops.JetsonClass(),
		}
		if got := env.StreamConfig(true); got != want {
			t.Errorf("%s adaptive: %+v, want %+v", c.name, got, want)
		}
		want.AdaptEveryFrames = 0
		if got := env.StreamConfig(false); got != want {
			t.Errorf("%s static: %+v, want %+v", c.name, got, want)
		}
	}
}
