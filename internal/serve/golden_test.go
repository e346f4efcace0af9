package serve_test

import (
	"bytes"
	"errors"
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
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// goldenCheckpoint was written by Stream.Save at the commit before the
// component state structs became the checkpoint's wire form (PR 17's tree,
// the script below, scalar kernels, float64 scoring). The format must not
// move by a byte across that change or any later one that does not bump
// snapshot.Version.
const goldenCheckpoint = "../../testdata/stream_checkpoint_pr17.json"

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
// Stream.Save to produce the committed file byte for byte, then loads the
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
	uninterrupted := goldenDrive(t, st, frames, goldenStop, len(frames))

	resumed, _ := goldenStream(t)
	if err := resumed.Load(goldenCheckpoint); err != nil {
		t.Fatalf("golden checkpoint no longer loads: %v", err)
	}
	continued := goldenDrive(t, resumed, frames, goldenStop, len(frames))
	for i := range uninterrupted {
		if math.Float64bits(continued[i]) != math.Float64bits(uninterrupted[i]) {
			t.Fatalf("frame %d after resume: score %v, uninterrupted run %v", goldenStop+i, continued[i], uninterrupted[i])
		}
	}
	// The last frame dispatched a round; settle it before reading stats.
	if err := errors.Join(st.Sync(), resumed.Sync()); err != nil {
		t.Fatal(err)
	}
	if a, b := resumed.Stats(), st.Stats(); a != b {
		t.Fatalf("stats after resume %+v, uninterrupted %+v", a, b)
	}
}

// clip returns up to 60 bytes of b around offset i, for failure messages.
func clip(b []byte, i int) []byte {
	lo, hi := max(i-20, 0), min(i+40, len(b))
	return b[lo:hi]
}
