package serve_test

import (
	"encoding/json"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/serve"
	"edgekg/internal/tensor"
)

// precisionCfg returns the fixture stream config at the given width, with
// adaptation off so the runs isolate the scoring/monitor paths.
func precisionCfg(p core.Precision) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Stream.MonitorN = 8
	cfg.Stream.MonitorLag = 4
	cfg.Stream.AdaptEveryFrames = 0
	cfg.Stream.Precision = p
	return cfg
}

// TestServePrecisionF32MonitorBytes pins the bytes/stream win: with a
// full monitor window, an f32 stream's monitor must hold exactly half the
// frame bytes of the f64 twin, and its charged resident bytes must be
// strictly lower.
func TestServePrecisionF32MonitorBytes(t *testing.T) {
	run := func(p core.Precision) (monBytes, resident int64) {
		det, gen := buildBackbone(t, 31)
		srv, err := serve.NewServer(det, 1, precisionCfg(p))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		frames := frameSchedule(gen, 32, 16, 16, concept.Stealing, concept.Stealing)
		pump(t, srv, 0, frames, len(frames))
		if err := srv.Do(0, func(st *serve.Stream) { monBytes = st.Monitor().MemBytes() }); err != nil {
			t.Fatal(err)
		}
		stats, err := srv.StreamStats(0)
		if err != nil {
			t.Fatal(err)
		}
		return monBytes, stats.ResidentBytes
	}
	mon64, res64 := run(core.PrecisionF64)
	mon32, res32 := run(core.PrecisionF32)

	// Window frames are 8 × 32 pixels; the mean-history tail is identical
	// on both sides, so subtract it out by comparing frame bytes directly:
	// monitor bytes differ by exactly the frame-storage halving.
	frame64 := int64(8 * 32 * 8)
	frame32 := int64(8 * 32 * 4)
	if mon64-mon32 != frame64-frame32 {
		t.Errorf("monitor bytes f64=%d f32=%d: frame storage not halved (want Δ=%d, got %d)",
			mon64, mon32, frame64-frame32, mon64-mon32)
	}
	if res32 >= res64 {
		t.Errorf("resident bytes/stream: f32 %d ≥ f64 %d — reduced-precision stream must be cheaper", res32, res64)
	}
}

// TestServePrecisionF32ScoresMatchDirect pins that a served f32 stream
// scores exactly what a detector set to float32 produces directly — the
// serve tier adds plumbing, not arithmetic.
func TestServePrecisionF32ScoresMatchDirect(t *testing.T) {
	det, gen := buildBackbone(t, 33)
	ref, gen2 := buildBackbone(t, 33)
	ref.Deploy()
	ref.SetPrecision(core.PrecisionF32)

	srv, err := serve.NewServer(det, 1, precisionCfg(core.PrecisionF32))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	frames := frameSchedule(gen, 34, 12, 12, concept.Stealing, concept.Robbery)
	tr := pump(t, srv, 0, frames, len(frames))

	refFrames := frameSchedule(gen2, 34, 12, 12, concept.Stealing, concept.Robbery)
	for i, f := range refFrames {
		want := ref.ScoreVideo(f.Reshape(1, f.Size()))[0]
		if tr.scores[i] != want {
			t.Fatalf("frame %d: served f32 score %.17g != direct %.17g", i, tr.scores[i], want)
		}
	}
}

// TestServeCheckpointAtF32IsCanonical pins width-independent checkpoints:
// a checkpoint taken from an f32 deployment must carry canonical float64
// monitor frames that survive an encode→decode round trip bit-exactly,
// and restoring it under f64 must succeed with identical sample payloads.
func TestServeCheckpointAtF32IsCanonical(t *testing.T) {
	mon, err := core.NewAnchoredMonitor(4)
	if err != nil {
		t.Fatal(err)
	}
	mon.SetFrameWidth(tensor.F32)
	_, gen := buildBackbone(t, 35)
	frames := frameSchedule(gen, 36, 4, 4, concept.Stealing, concept.Stealing)
	for i, f := range frames {
		mon.Push(f.Reshape(1, f.Size()), float64(i)/8)
	}

	state := mon.ExportState()
	for i, frame := range state.Frames {
		if frame == nil {
			t.Fatalf("sample %d: exported state must carry canonical f64 frames", i)
		}
		for _, v := range frame.Data() {
			if float64(float32(v)) != v {
				t.Fatalf("sample %d: exported frame value %v is not a float32-representable canonical value", i, v)
			}
		}
	}

	wire, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	var decoded core.MonitorState
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}

	// Restore under f64: the imported samples must match the narrowed
	// originals bit-exactly (float32 values are exact in float64).
	back, err := core.NewAnchoredMonitor(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ImportState(decoded); err != nil {
		t.Fatal(err)
	}
	orig := mon.ExportState()
	got := back.ExportState()
	if len(got.Frames) != len(orig.Frames) {
		t.Fatalf("sample count %d != %d", len(got.Frames), len(orig.Frames))
	}
	for i := range got.Frames {
		a, b := got.Frames[i].Data(), orig.Frames[i].Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("sample %d pixel %d: %v != %v after round trip", i, j, a[j], b[j])
			}
		}
	}

	// Restore under f32: same canonical state, re-narrowed storage.
	back32, err := core.NewAnchoredMonitor(4)
	if err != nil {
		t.Fatal(err)
	}
	back32.SetFrameWidth(tensor.F32)
	if err := back32.ImportState(decoded); err != nil {
		t.Fatal(err)
	}
	if back32.MemBytes() >= back.MemBytes() {
		t.Errorf("f32-restored monitor %d bytes ≥ f64-restored %d", back32.MemBytes(), back.MemBytes())
	}
	got32 := back32.ExportState()
	for i := range got32.Frames {
		a, b := got32.Frames[i].Data(), orig.Frames[i].Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("f32 restore sample %d pixel %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}
