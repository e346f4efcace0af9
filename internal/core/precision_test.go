package core

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/dataset"
	"edgekg/internal/tensor"
)

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", PrecisionAuto, true},
		{"auto", PrecisionAuto, true},
		{"f64", PrecisionF64, true},
		{"Float64", PrecisionF64, true},
		{"f32", PrecisionF32, true},
		{"32", PrecisionF32, true},
		{"bf16", PrecisionAuto, false},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if PrecisionF64.Resolve() != PrecisionF64 || PrecisionF32.Resolve() != PrecisionF32 {
		t.Error("explicit precisions must resolve to themselves")
	}
}

// TestMistypedPrecisionEnvPanicsAtStartup re-runs this test binary with a
// misspelt EDGEKG_PRECISION: the process must die at init naming the
// variable, not score at a default width nobody asked for.
func TestMistypedPrecisionEnvPanicsAtStartup(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "EDGEKG_PRECISION=fp32")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("EDGEKG_PRECISION=fp32: child exited %v, want a non-zero exit\n%s", err, out)
	}
	if want := `EDGEKG_PRECISION="fp32" is not a precision`; !strings.Contains(string(out), want) {
		t.Errorf("child output lacks %q:\n%s", want, out)
	}
}

// TestScoreVideoDriftBudgetAtF32 scores a 200-frame drift schedule at both
// widths and pins the divergence: float32 scores must track float64
// within an absolute budget, and the frame ranking the monitor consumes
// must be preserved to high rank correlation.
func TestScoreVideoDriftBudgetAtF32(t *testing.T) {
	r := newRig(t, "Stealing", 11)
	r.det.Deploy()
	// The f64 leg must stay f64 even under an EDGEKG_PRECISION=f32 run.
	r.det.SetPrecision(PrecisionF64)
	rng := rand.New(rand.NewSource(12))

	// A drift schedule: normal frames with a gradually mixed-in anomalous
	// segment, so scores sweep through the graded range rather than
	// saturating at the extremes. Longer than the engine's 256-window
	// chunk so the chunk seam rides under the same budget.
	const n = 300
	pix := tensor.RandN(rng, 1, n, r.space.PixDim())
	vids := r.gen.TaskVideos(rng, concept.Stealing, 1, 1)
	for i := 0; i < n; i++ {
		src := vids[i%len(vids)].Frames
		alpha := float64(i) / n
		row := pix.Row(i)
		srow := src.Row(i % src.Rows())
		for j := range row {
			row[j] = (1-alpha)*row[j] + alpha*srow[j]
		}
	}

	f64s := r.det.ScoreVideo(pix)
	r.det.SetPrecision(PrecisionF32)
	f32s := r.det.ScoreVideo(pix)
	if len(f32s) != n {
		t.Fatalf("f32 scores length %d, want %d", len(f32s), n)
	}
	var maxAbs, sumAbs float64
	for i := range f64s {
		d := math.Abs(f64s[i] - f32s[i])
		sumAbs += d
		if d > maxAbs {
			maxAbs = d
		}
	}
	const budget = 2e-3
	if maxAbs > budget {
		t.Errorf("max |f64-f32| score drift %.2e exceeds budget %.0e", maxAbs, budget)
	}
	if mean := sumAbs / n; mean > budget/4 {
		t.Errorf("mean |f64-f32| score drift %.2e exceeds %.0e", mean, budget/4)
	}
	if rho := spearman(f64s, f32s); rho < 0.999 {
		t.Errorf("rank correlation f64 vs f32 = %.6f, want ≥ 0.999", rho)
	}
}

// TestScoreVideoAUCAtF32 pins that the reduced-precision path preserves the
// detection quality metric: AUC at f32 matches AUC at f64 within ε on a
// synthetic eval set.
func TestScoreVideoAUCAtF32(t *testing.T) {
	r := newRig(t, "Stealing", 13)
	r.det.Deploy()
	// Pin the f64 leg so an EDGEKG_PRECISION=f32 run still compares widths.
	r.det.SetPrecision(PrecisionF64)
	rng := rand.New(rand.NewSource(14))
	vids := r.gen.TaskVideos(rng, concept.Stealing, 3, 3)
	frames, labels := dataset.FlattenEval(vids)

	auc64, err := EvalAUC(r.det, frames, labels)
	if err != nil {
		t.Fatal(err)
	}
	r.det.SetPrecision(PrecisionF32)
	auc32, err := EvalAUC(r.det, frames, labels)
	if err != nil {
		t.Fatal(err)
	}
	r.det.SetPrecision(PrecisionAuto)
	if d := math.Abs(auc64 - auc32); d > 1e-3 {
		t.Errorf("AUC drift |%.6f - %.6f| = %.2e exceeds 1e-3", auc64, auc32, d)
	}
}

// TestScoreVideoPrecisionDispatch pins that ScoreVideo runs the engine at
// float32 when the config asks for it (the scores move, and every one is
// a float32-resolution probability), that a clone inherits the setting,
// and that the float64 scores are untouched by a precision round trip.
func TestScoreVideoPrecisionDispatch(t *testing.T) {
	r := newRig(t, "Stealing", 15)
	r.det.Deploy()
	rng := rand.New(rand.NewSource(16))
	pix := tensor.RandN(rng, 1, 12, r.space.PixDim())

	r.det.SetPrecision(PrecisionF64)
	base := r.det.ScoreVideo(pix)
	r.det.SetPrecision(PrecisionF32)
	viaConfig := r.det.ScoreVideo(pix)
	clone, err := r.det.CloneCOW()
	if err != nil {
		t.Fatal(err)
	}
	viaClone := clone.ScoreVideo(pix)
	r.det.SetPrecision(PrecisionF64)
	back := r.det.ScoreVideo(pix)

	moved := false
	for i := range base {
		if viaConfig[i] != viaClone[i] {
			t.Fatalf("frame %d: f32 score %.17g != its clone's %.17g", i, viaConfig[i], viaClone[i])
		}
		if p0 := 1 - viaConfig[i]; float64(float32(p0)) != p0 {
			t.Fatalf("frame %d: f32 score %.17g is not 1 − a float32 probability", i, viaConfig[i])
		}
		if base[i] != back[i] {
			t.Fatalf("frame %d: f64 path changed after precision round trip: %.17g != %.17g", i, base[i], back[i])
		}
		moved = moved || viaConfig[i] != base[i]
	}
	if !moved {
		t.Error("f32 scores equal f64 scores on every frame — the precision plumbing is dead")
	}
}

// TestOneBackboneServesBothWidths runs an f32 clone and an f64 clone of
// one deployed backbone concurrently: each must score exactly what it
// scores alone, so the per-width snapshot caches cannot bleed into each
// other.
func TestOneBackboneServesBothWidths(t *testing.T) {
	r := newRig(t, "Stealing", 19)
	r.det.Deploy()
	pix := tensor.RandN(rand.New(rand.NewSource(20)), 1, 16, r.space.PixDim())
	clones := map[Precision]*Detector{}
	alone := map[Precision][]float64{}
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		c, err := r.det.CloneCOW()
		if err != nil {
			t.Fatal(err)
		}
		c.SetPrecision(p)
		clones[p] = c
	}
	for p, c := range clones {
		alone[p] = c.ScoreVideo(pix)
		r.det.SetTraining(true) // drop the snapshots so the race below builds them
		r.det.Deploy()
	}
	type result struct {
		p    Precision
		runs [][]float64
	}
	done := make(chan result)
	for p, c := range clones {
		go func() {
			res := result{p: p}
			for i := 0; i < 8; i++ {
				res.runs = append(res.runs, c.ScoreVideo(pix))
			}
			done <- res
		}()
	}
	for range clones {
		res := <-done
		for _, scores := range res.runs {
			for i := range scores {
				if scores[i] != alone[res.p][i] {
					t.Fatalf("%v frame %d: %.17g beside the other width, %.17g alone", res.p, i, scores[i], alone[res.p][i])
				}
			}
		}
	}
}

// TestSnapshotInvalidation pins that returning to training mode drops the
// cached eval snapshots at both widths: scores after the weights and the
// BatchNorm running statistics move must reflect the new values, not a
// stale narrowing (f32) or a stale folded 1/σ (either width) — at f64
// they must again be the tape reference's bits.
func TestSnapshotInvalidation(t *testing.T) {
	r := newRig(t, "Stealing", 17)
	r.det.Deploy()
	rng := rand.New(rand.NewSource(18))
	pix := tensor.RandN(rng, 1, 8, r.space.PixDim())

	before := map[Precision][]float64{}
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		r.det.SetPrecision(p)
		before[p] = r.det.ScoreVideo(pix)
	}

	// Perturb trainable weights through the training-mode door, and let
	// one training-mode forward move the running statistics.
	r.det.UnfreezeAll()
	for _, p := range r.det.Params() {
		d := p.V.Data.Data()
		for i := range d {
			d[i] += 0.05
		}
	}
	r.det.EmbedFrames(tensor.RandN(rng, 3, 8, r.space.PixDim()))
	r.det.Deploy()

	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		r.det.SetPrecision(p)
		after := r.det.ScoreVideo(pix)
		same := true
		for i := range after {
			same = same && before[p][i] == after[i]
		}
		if same {
			t.Errorf("%v scores unchanged after weight perturbation — stale snapshot served", p)
		}
		if p == PrecisionF64 {
			requireSameBits(t, "after retraining", scoreVideoTape(r.det, pix), after)
		}
	}
}

// spearman computes the Spearman rank correlation of two equal-length
// score slices (average ranks for ties are unnecessary here — scores are
// continuous).
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	n := float64(len(a))
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	r := make([]float64, len(x))
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}
