package dataset

import (
	"math/rand"
	"testing"

	"edgekg/internal/bpe"
	"edgekg/internal/concept"
	"edgekg/internal/embed"
	"edgekg/internal/tensor"
)

func testGen(t *testing.T) *Generator {
	t.Helper()
	corpus := concept.Builtin().Concepts()
	tok := bpe.Train(corpus, 600)
	space, err := embed.NewSpace(tok, corpus, embed.Config{Dim: 16, PixDim: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FramesPerVideo = 24
	g, err := NewGenerator(space, concept.Builtin(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorValidation(t *testing.T) {
	gen := testGen(t)
	if _, err := NewGenerator(gen.Space(), concept.Builtin(), Config{FramesPerVideo: 2, AnomalyFrac: 0.4}); err == nil {
		t.Error("tiny video accepted")
	}
	if _, err := NewGenerator(gen.Space(), concept.Builtin(), Config{FramesPerVideo: 24, AnomalyFrac: 1.5}); err == nil {
		t.Error("bad anomaly fraction accepted")
	}
}

func TestNormalVideoAllNormal(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(1))
	v := gen.Video(rng, concept.Normal)
	if v.NumFrames() != 24 {
		t.Fatalf("frames = %d", v.NumFrames())
	}
	for i := range v.Labels {
		if v.Labels[i] != 0 || v.FrameAnomalous(i) {
			t.Fatalf("normal video frame %d labelled anomalous", i)
		}
	}
	if v.SegmentStart != 0 || v.SegmentEnd != 0 {
		t.Error("normal video has a segment")
	}
}

func TestAnomalousVideoSegmentStructure(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		v := gen.Video(rng, concept.Robbery)
		segLen := v.SegmentEnd - v.SegmentStart
		want := int(gen.Config().AnomalyFrac * 24)
		if segLen != want {
			t.Fatalf("segment length %d, want %d", segLen, want)
		}
		for i := range v.Labels {
			inSeg := i >= v.SegmentStart && i < v.SegmentEnd
			if inSeg && v.Labels[i] != int(concept.Robbery) {
				t.Fatalf("segment frame %d label %d", i, v.Labels[i])
			}
			if !inSeg && v.Labels[i] != 0 {
				t.Fatalf("non-segment frame %d label %d", i, v.Labels[i])
			}
		}
	}
}

// Frames must be semantically separable: an anomaly frame's encoding is
// closer to its class profile direction than a normal frame's is.
func TestFrameSemanticSeparation(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(3))
	space := gen.Space()
	classDir := func(cls concept.Class) *tensor.Tensor {
		acc := tensor.New(space.Dim())
		for _, w := range concept.Builtin().Profile(cls) {
			tensor.AxpyInPlace(acc, w.Weight, space.WordVector(w.Concept))
		}
		return tensor.Normalize(acc)
	}
	dir := classDir(concept.Explosion)
	var anomSim, normSim float64
	const trials = 30
	for i := 0; i < trials; i++ {
		af := space.EncodeImage(gen.Frame(rng, concept.Explosion))
		nf := space.EncodeImage(gen.Frame(rng, concept.Normal))
		anomSim += tensor.CosineSimilarity(af, dir)
		normSim += tensor.CosineSimilarity(nf, dir)
	}
	anomSim /= trials
	normSim /= trials
	if anomSim < normSim+0.3 {
		t.Errorf("separation too weak: anomaly %v vs normal %v", anomSim, normSim)
	}
}

func TestTaskVideosComposition(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(5))
	vids := gen.TaskVideos(rng, concept.Stealing, 3, 4)
	if len(vids) != 7 {
		t.Fatalf("count %d", len(vids))
	}
	for i := 0; i < 3; i++ {
		if vids[i].Class != concept.Normal {
			t.Error("first block must be normal")
		}
	}
	for i := 3; i < 7; i++ {
		if vids[i].Class != concept.Stealing {
			t.Error("second block must be target anomaly")
		}
	}
}

func TestFlattenEval(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(6))
	vids := []*Video{gen.Video(rng, concept.Normal), gen.Video(rng, concept.Arson)}
	frames, labels := FlattenEval(vids)
	if frames.Rows() != 48 || len(labels) != 48 {
		t.Fatalf("flatten shape %d/%d", frames.Rows(), len(labels))
	}
	anomalous := 0
	for _, l := range labels {
		if l {
			anomalous++
		}
	}
	want := int(gen.Config().AnomalyFrac * 24)
	if anomalous != want {
		t.Errorf("anomalous frames %d, want %d", anomalous, want)
	}
	if frames2, labels2 := FlattenEval(nil); frames2.Size() != 0 || labels2 != nil {
		t.Error("empty flatten should be empty")
	}
}

func TestClipSourceGeometry(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(7))
	vids := gen.TaskVideos(rng, concept.Fighting, 2, 2)
	src, err := NewClipSource(vids, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	frames, labels := src.NextClip(rng)
	if frames.Rows() != 4+6-1 {
		t.Errorf("clip rows %d", frames.Rows())
	}
	if len(labels) != 6 {
		t.Errorf("labels %d", len(labels))
	}
	if src.Window() != 4 || src.Batch() != 6 {
		t.Error("geometry accessors wrong")
	}
}

func TestClipSourceLabelAlignment(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(8))
	v := gen.Video(rng, concept.Shooting)
	src, err := NewClipSource([]*Video{v}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Sample many clips; every label must equal the video label of the
	// window's final frame. We verify by matching frame contents.
	for trial := 0; trial < 20; trial++ {
		frames, labels := src.NextClip(rng)
		for k, lab := range labels {
			rowK := frames.Row(3 - 1 + k)
			found := false
			for i := 0; i < v.NumFrames(); i++ {
				if floatsEqual(rowK, v.Frames.Row(i)) {
					if v.Labels[i] != lab {
						t.Fatalf("label %d for frame with video label %d", lab, v.Labels[i])
					}
					found = true
					break
				}
			}
			if !found {
				t.Fatal("clip frame not found in source video")
			}
		}
	}
}

func floatsEqual(a, b []float64) bool {
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

func TestClipSourceValidation(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(9))
	vids := []*Video{gen.Video(rng, concept.Normal)}
	if _, err := NewClipSource(nil, 4, 4); err == nil {
		t.Error("empty videos accepted")
	}
	if _, err := NewClipSource(vids, 20, 20); err == nil {
		t.Error("clip longer than video accepted")
	}
	if _, err := NewClipSource(vids, 0, 4); err == nil {
		t.Error("zero window accepted")
	}
}

func TestScheduleAndStream(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(11))
	sched := Schedule{Phases: []Phase{
		{Class: concept.Stealing, Steps: 10},
		{Class: concept.Robbery, Steps: 10},
	}}
	if sched.TotalSteps() != 20 {
		t.Errorf("total steps %d", sched.TotalSteps())
	}
	if p, i := sched.PhaseAt(5); p.Class != concept.Stealing || i != 0 {
		t.Error("phase 0 wrong")
	}
	if p, i := sched.PhaseAt(15); p.Class != concept.Robbery || i != 1 {
		t.Error("phase 1 wrong")
	}
	if p, _ := sched.PhaseAt(99); p.Class != concept.Robbery {
		t.Error("clamping past end broken")
	}

	stream, err := NewStream(gen, sched, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	sawAnomaly, sawNormal := false, false
	for i := 0; i < 10; i++ {
		pix, anom, cls := stream.Next()
		if pix.Size() != gen.Space().PixDim() {
			t.Fatal("frame size wrong")
		}
		if anom {
			sawAnomaly = true
			if cls != concept.Stealing {
				t.Errorf("phase-0 anomaly class %v", cls)
			}
		} else {
			sawNormal = true
			if cls != concept.Normal {
				t.Errorf("normal frame class %v", cls)
			}
		}
	}
	if !sawAnomaly || !sawNormal {
		t.Error("stream at rate 0.5 should mix anomalies and normals in 10 frames (flaky only with astronomical improbability)")
	}
	// At rate 1.0 every frame is anomalous, so Next's class is the phase's:
	// the first frame after step 10 is the shift's Robbery.
	stream, err = NewStream(gen, sched, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, cls := stream.Next(); cls != concept.Stealing {
			t.Fatalf("frame %d of phase 0 drew %v", i, cls)
		}
	}
	if _, anom, cls := stream.Next(); !anom || cls != concept.Robbery {
		t.Errorf("frame 10: anomalous %v, class %v; the shift did not occur", anom, cls)
	}
}

func TestStreamValidation(t *testing.T) {
	gen := testGen(t)
	rng := rand.New(rand.NewSource(12))
	if _, err := NewStream(gen, Schedule{}, 0.5, rng); err == nil {
		t.Error("empty schedule accepted")
	}
	sched := Schedule{Phases: []Phase{{Class: concept.Arson, Steps: 5}}}
	if _, err := NewStream(gen, sched, 1.5, rng); err == nil {
		t.Error("bad rate accepted")
	}
}
