package edgekg

import (
	"errors"
	"strings"
	"testing"

	"edgekg/internal/serve"
)

func quickSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(Options{Seed: 5, Scale: "quick", TrainSteps: 120})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func trainedSystem(t *testing.T) *System {
	t.Helper()
	sys := quickSystem(t)
	if err := sys.Train("Stealing"); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestMissionsListsUCFCrime(t *testing.T) {
	ms := Missions()
	if len(ms) != 13 {
		t.Fatalf("missions = %d, want 13", len(ms))
	}
	want := map[string]bool{"Stealing": true, "Robbery": true, "Explosion": true}
	for _, m := range ms {
		delete(want, m)
	}
	if len(want) != 0 {
		t.Errorf("missing missions: %v", want)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{Scale: "galactic"}); err == nil {
		t.Error("bogus scale accepted")
	}
	if _, err := NewSystem(Options{}); err != nil {
		t.Errorf("zero options (default quick) rejected: %v", err)
	}
}

func TestLifecycleGuards(t *testing.T) {
	sys := quickSystem(t)
	if err := sys.DeployAdaptive(); err == nil {
		t.Error("deploy before train accepted")
	}
	if _, err := sys.TestAUC("Stealing"); err == nil {
		t.Error("TestAUC before train accepted")
	}
	if _, err := sys.ProcessFrame(make([]float64, sys.FrameSize())); err == nil {
		t.Error("ProcessFrame before deploy accepted")
	}
	if _, err := sys.KG(); err == nil {
		t.Error("KG before train accepted")
	}
	if _, err := sys.InterpretKG(); err == nil {
		t.Error("InterpretKG before train accepted")
	}
	if err := sys.Train("NotAMission"); err == nil {
		t.Error("unknown mission accepted")
	}
	if err := sys.Train("Normal"); err == nil {
		t.Error("Normal as mission accepted")
	}
}

func TestTrainDeployProcess(t *testing.T) {
	sys := trainedSystem(t)
	auc, err := sys.TestAUC("Stealing")
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.7 {
		t.Errorf("trained AUC %v", auc)
	}
	if err := sys.DeployAdaptive(); err != nil {
		t.Fatal(err)
	}
	if !sys.Deployed() {
		t.Error("not deployed")
	}
	frame, err := sys.SynthesizeFrame("Stealing")
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != sys.FrameSize() {
		t.Fatalf("frame size %d", len(frame))
	}
	res, err := sys.ProcessFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < 0 || res.Score > 1 {
		t.Errorf("score %v", res.Score)
	}
	if _, err := sys.ProcessFrame(frame[:3]); err == nil {
		t.Error("short frame accepted")
	}
	if _, err := sys.SynthesizeFrame("Martians"); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestKGAccessors(t *testing.T) {
	sys := trainedSystem(t)
	st, err := sys.KG()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mission != "Stealing" || st.Nodes < 5 || st.Depth < 1 {
		t.Errorf("stats %+v", st)
	}
	dot, err := sys.KGDOT()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph") {
		t.Error("DOT output malformed")
	}
}

func TestInterpretKGInitiallyFaithful(t *testing.T) {
	sys := trainedSystem(t)
	nodes, err := sys.InterpretKG()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) == 0 {
		t.Fatal("no nodes")
	}
	// Most nodes should decode to their own concept before heavy drift
	// (training with token updates moves them slightly).
	faithful := 0
	for _, n := range nodes {
		if n.Decoded == n.Concept {
			faithful++
		}
	}
	if faithful*2 < len(nodes) {
		t.Errorf("only %d/%d nodes decode to their own concept after training", faithful, len(nodes))
	}
}

func TestStatsAccumulate(t *testing.T) {
	sys := trainedSystem(t)
	if st := sys.Stats(); st.Frames != 0 {
		t.Error("stats before deploy should be zero")
	}
	if err := sys.DeployAdaptive(); err != nil {
		t.Fatal(err)
	}
	frames, err := sys.NextStreamFrames("Robbery", 40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := sys.ProcessFrame(f.Frame); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.Frames != 40 {
		t.Errorf("frames = %d", st.Frames)
	}
	if st.ScoringFLOPs <= 0 {
		t.Error("no scoring FLOPs metered")
	}
	if st.AdaptRounds == 0 {
		t.Error("no adaptation rounds at default cadence")
	}
}

func TestDeployStaticNeverAdapts(t *testing.T) {
	sys := trainedSystem(t)
	if err := sys.DeployStatic(); err != nil {
		t.Fatal(err)
	}
	frames, err := sys.NextStreamFrames("Explosion", 40, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		res, err := sys.ProcessFrame(f.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if res.Adapted {
			t.Fatal("static deployment adapted")
		}
	}
	if st := sys.Stats(); st.AdaptRounds != 0 {
		t.Errorf("static stats %+v", st)
	}
}

func TestNextStreamFramesLabels(t *testing.T) {
	sys := quickSystem(t)
	frames, err := sys.NextStreamFrames("Arson", 30, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if !f.Anomalous || f.Class != "Arson" {
			t.Fatalf("rate-1.0 stream emitted %+v", f)
		}
	}
	frames, err = sys.NextStreamFrames("Arson", 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if f.Anomalous || f.Class != "Normal" {
			t.Fatalf("rate-0 stream emitted %+v", f)
		}
	}
	if _, err := sys.NextStreamFrames("Nope", 5, 0.5); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestCameraSchedulesDerivation pins the one schedule derivation cmd/serve
// and cmd/loadgen share: per-camera seeds, a staggered shift capped at the
// frame target, and a longer target extending a shorter one frame-for-frame
// (what -resume and -expect rely on).
func TestCameraSchedulesDerivation(t *testing.T) {
	sys := quickSystem(t)
	const seed = 7
	short, err := sys.CameraSchedules(3, 6, "Stealing", "Robbery", 0.5, 2, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	long, err := sys.CameraSchedules(3, 9, "Stealing", "Robbery", 0.5, 2, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for cam := range short {
		if len(short[cam]) != 6 || len(long[cam]) != 9 {
			t.Fatalf("camera %d: schedules of %d and %d frames", cam, len(short[cam]), len(long[cam]))
		}
		// Camera 2 shifts at frame 8: past the short target, inside the long
		// one — and still a prefix, because the capped segment is the head of
		// the same seeded stream.
		for f := range short[cam] {
			if !same(short[cam][f], long[cam][f]) {
				t.Fatalf("camera %d frame %d differs between the 6- and 9-frame targets", cam, f)
			}
		}
	}
	pre, err := sys.NextStreamFramesSeeded("Stealing", 5, 0.5, seed+1001)
	if err != nil {
		t.Fatal(err)
	}
	post, err := sys.NextStreamFramesSeeded("Robbery", 4, 0.5, seed+2001)
	if err != nil {
		t.Fatal(err)
	}
	for f, want := range append(pre, post...) {
		if !same(long[1][f], want.Frame) {
			t.Fatalf("camera 1 frame %d is not the seed+1000+i / seed+2000+i derivation", f)
		}
	}
	if _, err := sys.CameraSchedules(1, 4, "Nope", "Robbery", 0.5, 2, 0, seed); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestRetrainResetsDeployment(t *testing.T) {
	sys := trainedSystem(t)
	if err := sys.DeployAdaptive(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Train("Robbery"); err != nil {
		t.Fatal(err)
	}
	if sys.Deployed() {
		t.Error("retrain should reset the deployment")
	}
	st, err := sys.KG()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mission != "Robbery" {
		t.Errorf("mission = %s", st.Mission)
	}
}

func TestSystemCheckpointWarmRestart(t *testing.T) {
	const frames = 20
	const split = 9

	// Frame schedule synthesised once, replayed identically by the
	// "restarted process" (same system seed → same synthesis stream).
	mkFrames := func(sys *System) [][]float64 {
		t.Helper()
		out := make([][]float64, frames)
		for i := range out {
			f, err := sys.SynthesizeFrame("Stealing")
			if err != nil {
				t.Fatal(err)
			}
			out[i] = f
		}
		return out
	}

	// Uninterrupted arm.
	sysA := trainedSystem(t)
	if err := sysA.DeployAdaptive(); err != nil {
		t.Fatal(err)
	}
	framesA := mkFrames(sysA)
	var want []float64
	for _, f := range framesA {
		res, err := sysA.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Score)
	}

	// Interrupted arm: process to the split, checkpoint, discard the
	// system, rebuild from the same options, restore and continue.
	path := t.TempDir() + "/system.json"
	sysB := trainedSystem(t)
	if err := sysB.DeployAdaptive(); err != nil {
		t.Fatal(err)
	}
	if err := sysB.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	framesB := mkFrames(sysB)
	var got []float64
	for _, f := range framesB[:split] {
		res, err := sysB.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Score)
	}
	if err := sysB.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	sysC := trainedSystem(t)
	if err := sysC.DeployAdaptive(); err != nil {
		t.Fatal(err)
	}
	if err := sysC.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	framesC := mkFrames(sysC)
	for _, f := range framesC[split:] {
		res, err := sysC.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Score)
	}

	if len(got) != len(want) {
		t.Fatalf("resumed run scored %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: resumed score %v != uninterrupted %v", i, got[i], want[i])
		}
	}
	if a, b := sysA.Stats(), sysC.Stats(); a != b {
		t.Fatalf("resumed stats %+v != uninterrupted %+v", b, a)
	}

	// Checkpointing before deployment fails loudly.
	sysD := trainedSystem(t)
	if err := sysD.SaveCheckpoint(path); err == nil {
		t.Error("checkpoint before deployment accepted")
	}
	if err := sysD.LoadCheckpoint(path); err == nil {
		t.Error("restore before deployment accepted")
	}
}

// TestLoadsCheckpointWrittenBeforeRuntimeFold pins the single-camera
// checkpoint file format across the deletion of the edge runtime wrapper:
// testdata/deploy_checkpoint_pr12.json was written by System.SaveCheckpoint
// at the commit before the fold (DefaultOptions, mission Stealing,
// DeployAdaptive, frame 230 of the schedule below, five triggered rounds
// in). It must load into today's bare-stream deployment with its counters
// intact and keep serving. (Bit-identical continuation against the old
// commit's own run was checked on the generating host; the retrained
// backbone under the restored delta is only bit-reproducible per kernel
// backend, so the durable assertions here are the exact ones.)
func TestLoadsCheckpointWrittenBeforeRuntimeFold(t *testing.T) {
	const fixture = "testdata/deploy_checkpoint_pr12.json"
	sys, err := NewSystem(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train("Stealing"); err != nil {
		t.Fatal(err)
	}

	// A static deployment refuses the adaptive checkpoint.
	if err := sys.DeployStatic(); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadCheckpoint(fixture); !errors.Is(err, serve.ErrCheckpointMismatch) {
		t.Fatalf("adaptive checkpoint into a static deployment: %v, want a mismatch error", err)
	}

	if err := sys.DeployAdaptive(); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadCheckpoint(fixture); err != nil {
		t.Fatalf("checkpoint written before the fold no longer loads: %v", err)
	}
	st := sys.Stats()
	if st.Frames != 230 || st.AdaptRounds != 7 || st.TriggeredRounds != 5 || st.ScoringFLOPs <= 0 || st.AdaptFLOPs <= 0 {
		t.Fatalf("restored stats %+v, want frames 230, rounds 7, triggered 5 and the metered totals", st)
	}
	if st.ResidentBytes <= 0 {
		t.Errorf("single-stream deployment reports %d resident bytes", st.ResidentBytes)
	}
	a, err := sys.NextStreamFramesSeeded("Stealing", 128, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.NextStreamFramesSeeded("Explosion", 256, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(a, b...)[230:260] {
		res, err := sys.ProcessFrame(f.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score < 0 || res.Score > 1 {
			t.Fatalf("score %v out of range", res.Score)
		}
	}
	if st := sys.Stats(); st.Frames != 260 || st.AdaptRounds != 8 {
		t.Fatalf("after 30 more frames: %+v, want frames 260 and the round at 256 accounted", st)
	}
}
