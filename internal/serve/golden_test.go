package serve_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// goldenCheckpoint was written by Stream.Save under the script below
// (scalar kernels, float64 scoring) when checkpoints went binary (format
// version 2). The format must not move by a byte across any later change
// that does not bump snapshot.Version.
const goldenCheckpoint = "../../testdata/stream_checkpoint_pr36.bin"

// goldenV1 is the same script's file in the version 1 JSON form, written
// once the adapter's step became the plain single-tape loop. It holds the
// same state: it must re-encode to goldenCheckpoint byte for byte, and
// resume as bit-identically.
const goldenV1 = "../../testdata/stream_checkpoint_pr26.json"

// legacyCheckpoint is the same script's version 1 file from before the
// adapter's step became the plain loop, when the step summed four
// row-shard gradients. It stays a load fixture: it must restore and serve
// on.
const legacyCheckpoint = "../../testdata/stream_checkpoint_pr17.json"

// goldenStop is the frame the scripted deployment is saved at: two frames
// after the trigger at 48, inside that round's 3-frame lag, so the file
// carries a pending round — a triggered one without structural changes, so
// the AdamW moments it leaves are non-zero, over a graph whose earlier
// rounds pruned and re-created five nodes.
const goldenStop = 50

// goldenStream builds the scripted deployment's stream and frames: an
// adaptive lag-3 stream over the suite's small backbone (patience 1, so a
// node is pruned and re-created), unmetered so the ledger is independent
// of how the background round overlaps scoring.
func goldenStream(t *testing.T) (*serve.Stream, []*tensor.Tensor) {
	t.Helper()
	det, gen := buildBackbone(t, 5)
	cfg := streamCfg(3)
	cfg.ScoreHistory = 6
	cfg.Precision = core.PrecisionF64
	st, err := serve.NewStream(0, det, cfg, rng.NewSource(29), &flops.Counter{})
	if err != nil {
		t.Fatal(err)
	}
	return st, frameSchedule(gen, 777, 64, 10, concept.Stealing, concept.Robbery)
}

// goldenDrive processes frames[lo:hi), forcing the anchored reference to
// 1.0 before frame 8 (a mean drop, so the following rounds trigger), and
// returns the scores.
func goldenDrive(t testing.TB, st *serve.Stream, frames []*tensor.Tensor, lo, hi int) []float64 {
	t.Helper()
	var scores []float64
	for i := lo; i < hi; i++ {
		if i == 8 {
			st.Monitor().SetReference(1.0)
		}
		res := st.Process(frames[i])
		if res.Err != nil {
			t.Fatalf("frame %d: %v", i, res.Err)
		}
		scores = append(scores, res.Score)
	}
	return scores
}

// pinGoldenArithmetic makes the scripted run's floats reproducible on any
// amd64 host: the scalar kernel backend (the optimized ones reassociate
// differently) and no fused multiply-add (which the compiler introduces on
// other architectures).
func pinGoldenArithmetic(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes were computed on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	restore, err := kernels.Use("scalar")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restore)
}

// TestSaveReproducesGoldenCheckpoint replays the script and requires
// Stream.Save to produce the committed file byte for byte, and the
// version 1 file of the same state to re-encode to it. Then it loads each
// committed file into a fresh stream and requires the continuation to be
// bit-identical to the uninterrupted run.
func TestSaveReproducesGoldenCheckpoint(t *testing.T) {
	pinGoldenArithmetic(t)
	want, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}

	st, frames := goldenStream(t)
	goldenDrive(t, st, frames, 0, goldenStop)
	path := filepath.Join(t.TempDir(), "stream.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("Save wrote %d bytes, golden has %d; first difference at byte %d:\n got  …%s\n want …%s",
			len(got), len(want), i, clip(got, i), clip(want, i))
	}
	s := st.Stats()
	if s.TriggeredRounds == 0 || s.PrunedNodes == 0 || s.CreatedNodes == 0 {
		t.Fatalf("scripted deployment no longer exercises the format: stats %+v", s)
	}
	v1, err := snapshot.Load(goldenV1)
	if err != nil {
		t.Fatal(err)
	}
	if reencoded, err := snapshot.Encode(v1); err != nil || !bytes.Equal(reencoded, want) {
		t.Fatalf("%s re-encodes to %d bytes (%v), not to the %d of %s", goldenV1, len(reencoded), err, len(want), goldenCheckpoint)
	}
	uninterrupted := goldenDrive(t, st, frames, goldenStop, len(frames))
	// The last frame dispatched a round; settle it before reading stats.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	for _, file := range []string{goldenCheckpoint, goldenV1} {
		resumed, _ := goldenStream(t)
		if err := resumed.Load(file); err != nil {
			t.Fatalf("%s no longer loads: %v", file, err)
		}
		continued := goldenDrive(t, resumed, frames, goldenStop, len(frames))
		for i := range uninterrupted {
			if math.Float64bits(continued[i]) != math.Float64bits(uninterrupted[i]) {
				t.Fatalf("%s: frame %d after resume: score %v, uninterrupted run %v", file, goldenStop+i, continued[i], uninterrupted[i])
			}
		}
		if err := resumed.Sync(); err != nil {
			t.Fatal(err)
		}
		if a, b := resumed.Stats(), st.Stats(); a != b {
			t.Fatalf("%s: stats after resume %+v, uninterrupted %+v", file, a, b)
		}
	}
}

// TestLoadsCheckpointWrittenBeforePlainLoop loads legacyCheckpoint into a
// fresh stream: its counters come back exactly, and the stream serves
// through the pending round's swap at frame 51 and the rounds after it
// without error.
func TestLoadsCheckpointWrittenBeforePlainLoop(t *testing.T) {
	st, frames := goldenStream(t)
	if err := st.Load(legacyCheckpoint); err != nil {
		t.Fatalf("checkpoint written before the plain loop no longer loads: %v", err)
	}
	// frames, adaptation rounds, triggered, pruned, created
	want := [5]int{goldenStop, 5, 4, 5, 5}
	if s := st.Stats(); [5]int{s.Frames, s.AdaptRounds, s.TriggeredRounds, s.PrunedNodes, s.CreatedNodes} != want {
		t.Fatalf("restored stats %+v, want the file's counters %v", s, want)
	}
	goldenDrive(t, st, frames, goldenStop, goldenStop+2)
	if s := st.Stats(); s.AdaptRounds != 6 || s.TriggeredRounds != 5 {
		t.Fatalf("after the swap at frame 51: %+v, want the pending triggered round accounted", s)
	}
	goldenDrive(t, st, frames, goldenStop+2, len(frames))
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.AdaptRounds != 8 || s.TriggeredRounds < 6 || s.LastErr != "" {
		t.Fatalf("after frame %d: %+v, want rounds 8 with a later one triggered", len(frames), s)
	}
}

// clip returns up to 60 bytes of b around offset i, for failure messages.
func clip(b []byte, i int) []byte {
	lo, hi := max(i-20, 0), min(i+40, len(b))
	return b[lo:hi]
}
