package edgekg

import (
	"errors"
	"reflect"
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

// serveOne deploys sys to one camera and closes it when the test ends.
func serveOne(t *testing.T, sys *System, adaptive bool) *StreamServer {
	t.Helper()
	cam, err := sys.Serve(ServeOptions{Streams: 1, Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cam.Close)
	return cam
}

func TestLifecycleGuards(t *testing.T) {
	sys := quickSystem(t)
	if _, err := sys.TestAUC("Stealing"); err == nil {
		t.Error("TestAUC before train accepted")
	}
	if _, err := sys.KG(); err == nil {
		t.Error("KG before train accepted")
	}
	if _, err := sys.KGDOT(); err == nil {
		t.Error("KGDOT before train accepted")
	}
	if err := sys.Train("NotAMission"); err == nil {
		t.Error("unknown mission accepted")
	}
	if err := sys.Train("Normal"); err == nil {
		t.Error("Normal as mission accepted")
	}
}

// TestServeRefusals pins what Serve refuses to build and what a running
// server refuses to address.
func TestServeRefusals(t *testing.T) {
	untrained := quickSystem(t)
	sys := trainedSystem(t)
	for _, tc := range []struct {
		name string
		sys  *System
		opts ServeOptions
	}{
		{"no streams", sys, ServeOptions{}},
		{"unknown precision", sys, ServeOptions{Streams: 1, Precision: "f16"}},
		{"budget without spill dir", sys, ServeOptions{Streams: 1, MemBudgetBytes: 1 << 20}},
		{"before Train", untrained, ServeOptions{Streams: 1}},
	} {
		if cam, err := tc.sys.Serve(tc.opts); err == nil {
			cam.Close()
			t.Errorf("%s: Serve(%+v) accepted", tc.name, tc.opts)
		}
	}

	cam := serveOne(t, sys, true)
	frame := make([]float64, sys.FrameSize())
	for _, stream := range []int{-1, 1} {
		for name, call := range map[string]func() error{
			"ProcessFrame": func() error { _, err := cam.ProcessFrame(stream, frame); return err },
			"Stats":        func() error { _, err := cam.Stats(stream); return err },
			"TestAUC":      func() error { _, err := cam.TestAUC(stream, "Stealing"); return err },
			"InterpretKG":  func() error { _, err := cam.InterpretKG(stream); return err },
		} {
			if call() == nil {
				t.Errorf("%s on stream %d of a 1-stream server accepted", name, stream)
			}
		}
	}
	if _, err := cam.ProcessFrame(0, frame); err != nil {
		t.Errorf("stream 0 refused after the out-of-range calls: %v", err)
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
	cam := serveOne(t, sys, true)
	frame, err := sys.SynthesizeFrame("Stealing")
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != sys.FrameSize() {
		t.Fatalf("frame size %d", len(frame))
	}
	res, err := cam.ProcessFrame(0, frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < 0 || res.Score > 1 {
		t.Errorf("score %v", res.Score)
	}
	if _, err := cam.ProcessFrame(0, frame[:3]); err == nil {
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
	nodes, err := serveOne(t, sys, false).InterpretKG(0)
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
	cam := serveOne(t, sys, true)
	if st, err := cam.Stats(0); err != nil || st.Frames != 0 {
		t.Errorf("stats before the first frame: %+v, %v", st, err)
	}
	frames, err := sys.NextStreamFrames("Robbery", 40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := cam.ProcessFrame(0, f.Frame); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cam.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
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
	cam := serveOne(t, sys, false)
	frames, err := sys.NextStreamFrames("Explosion", 40, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		res, err := cam.ProcessFrame(0, f.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if res.Adapted {
			t.Fatal("static deployment adapted")
		}
	}
	if st, err := cam.Stats(0); err != nil || st.AdaptRounds != 0 {
		t.Errorf("static stats %+v, %v", st, err)
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
	if _, err := sys.NextStreamFrames("Arson", -5, 0.5); err == nil {
		t.Error("negative frame count accepted")
	}
	if _, err := sys.NextStreamFramesSeeded("Arson", -5, 0.5, 1); err == nil {
		t.Error("negative seeded frame count accepted")
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
	for _, c := range [][2]int{{-1, 4}, {1, -4}} {
		if _, err := sys.CameraSchedules(c[0], c[1], "Stealing", "Robbery", 0.5, 2, 0, seed); err == nil {
			t.Errorf("%d cameras of %d frames accepted", c[0], c[1])
		}
	}
}

// TestRetrainKeepsRunningServers pins that a System holds no deployment:
// retraining it swaps the trained detector for the next Serve, while a
// server built before keeps serving the backbone it was built over.
func TestRetrainKeepsRunningServers(t *testing.T) {
	sys := trainedSystem(t)
	cam := serveOne(t, sys, true)
	before, err := cam.InterpretKG(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train("Robbery"); err != nil {
		t.Fatal(err)
	}
	st, err := sys.KG()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mission != "Robbery" {
		t.Errorf("mission = %s", st.Mission)
	}
	after, err := cam.InterpretKG(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("retraining the System changed a running server's KG")
	}
	frame, err := sys.SynthesizeFrame("Stealing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cam.ProcessFrame(0, frame); err != nil {
		t.Errorf("server built before retraining stopped serving: %v", err)
	}
}

// TestSystemCheckpointWarmRestart pins a single camera's warm restart: a
// 1-stream server checkpointed mid-run and restored into a server of a
// rebuilt System continues bit-identically to the uninterrupted run.
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
	score := func(cam *StreamServer, frames [][]float64) []float64 {
		t.Helper()
		var out []float64
		for _, f := range frames {
			res, err := cam.ProcessFrame(0, f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Score)
		}
		return out
	}
	stats := func(cam *StreamServer) DeploymentStats {
		t.Helper()
		st, err := cam.Stats(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Uninterrupted arm.
	sysA := trainedSystem(t)
	camA := serveOne(t, sysA, true)
	want := score(camA, mkFrames(sysA))
	statsA := stats(camA)
	camA.Close()

	// Interrupted arm: process to the split, checkpoint, discard the
	// system, rebuild from the same options, restore and continue.
	path := t.TempDir() + "/system.json"
	sysB := trainedSystem(t)
	camB := serveOne(t, sysB, true)
	if err := camB.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	got := score(camB, mkFrames(sysB)[:split])
	if err := camB.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	camB.Close()

	sysC := trainedSystem(t)
	camC := serveOne(t, sysC, true)
	counts, err := camC.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 1 || counts[0] != split {
		t.Fatalf("restored frame counts %v, want [%d]", counts, split)
	}
	got = append(got, score(camC, mkFrames(sysC)[split:])...)

	if len(got) != len(want) {
		t.Fatalf("resumed run scored %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: resumed score %v != uninterrupted %v", i, got[i], want[i])
		}
	}
	if statsC := stats(camC); statsA != statsC {
		t.Fatalf("resumed stats %+v != uninterrupted %+v", statsC, statsA)
	}
}

// TestLoadsCheckpointWrittenBeforeRuntimeFold pins the single-camera
// checkpoint file format across the deletion of the edge runtime wrapper:
// testdata/deploy_checkpoint_pr12.json was written by the single-camera
// deployment of an older commit (DefaultOptions, mission Stealing,
// adaptive, frame 230 of the schedule below, five triggered rounds in).
// It must load into today's 1-stream server with its counters intact and
// keep serving. (Bit-identical continuation against the old commit's own
// run was checked on the generating host; the retrained backbone under
// the restored delta is only bit-reproducible per kernel backend, so the
// durable assertions here are the exact ones.)
func TestLoadsCheckpointWrittenBeforeRuntimeFold(t *testing.T) {
	const fixture = "testdata/deploy_checkpoint_pr12.json"
	sys, err := NewSystem(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train("Stealing"); err != nil {
		t.Fatal(err)
	}

	// A static server refuses the adaptive checkpoint.
	static := serveOne(t, sys, false)
	if _, err := static.LoadCheckpoint(fixture); !errors.Is(err, serve.ErrCheckpointMismatch) {
		t.Fatalf("adaptive checkpoint into a static server: %v, want a mismatch error", err)
	}
	static.Close()

	cam := serveOne(t, sys, true)
	counts, err := cam.LoadCheckpoint(fixture)
	if err != nil {
		t.Fatalf("checkpoint written before the fold no longer loads: %v", err)
	}
	if len(counts) != 1 || counts[0] != 230 {
		t.Fatalf("restored frame counts %v, want [230]", counts)
	}
	st, err := cam.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
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
		res, err := cam.ProcessFrame(0, f.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score < 0 || res.Score > 1 {
			t.Fatalf("score %v out of range", res.Score)
		}
	}
	if st, err := cam.Stats(0); err != nil || st.Frames != 260 || st.AdaptRounds != 8 {
		t.Fatalf("after 30 more frames: %+v (%v), want frames 260 and the round at 256 accounted", st, err)
	}
}

// TestServeLeavesBackboneFrozen pins that serving never adapts the
// System: after an adaptive camera ran the trendshift example's scenario
// (triggered rounds included), a static server built from the same System
// scores a probe set bit-identically to one built before it.
func TestServeLeavesBackboneFrozen(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 42, Scale: "quick", TrainSteps: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train("Stealing"); err != nil {
		t.Fatal(err)
	}
	probe, err := sys.NextStreamFramesSeeded("Robbery", 8, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	probes := func() []float64 {
		t.Helper()
		cam := serveOne(t, sys, false)
		defer cam.Close()
		var out []float64
		for _, f := range probe {
			res, err := cam.ProcessFrame(0, f.Frame)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Score)
		}
		return out
	}

	want := probes()
	cam := serveOne(t, sys, true)
	for _, class := range []string{"Stealing", "Robbery"} {
		frames, err := sys.NextStreamFrames(class, 256, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if _, err := cam.ProcessFrame(0, f.Frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := cam.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.TriggeredRounds < 1 {
		t.Fatalf("adaptive camera never triggered a round (%+v): the scenario adapted nothing", st)
	}
	cam.Close()

	for i, got := range probes() {
		if got != want[i] {
			t.Errorf("probe %d: %v after an adaptive deployment, %v before it", i, got, want[i])
		}
	}
}
