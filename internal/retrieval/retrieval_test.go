package retrieval

import (
	"strings"
	"testing"

	"edgekg/internal/bpe"
	"edgekg/internal/concept"
	"edgekg/internal/embed"
	"edgekg/internal/tensor"
)

func testSpace(t *testing.T) *embed.Space {
	t.Helper()
	corpus := concept.Builtin().Concepts()
	tok := bpe.Train(corpus, 600)
	s, err := embed.NewSpace(tok, corpus, embed.Config{Dim: 16, PixDim: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNearestRecoversOwnToken(t *testing.T) {
	space := testSpace(t)
	r := New(space)
	// The embedding of a whole-word token must retrieve that token first.
	for _, w := range []string{"sneaky", "firearm", "stealing", "explosion"} {
		ids := space.Tokenizer().Encode(w)
		if len(ids) != 1 {
			t.Logf("%q tokenizes to %d tokens; skipping exact-match check", w, len(ids))
			continue
		}
		emb := space.TokenVector(ids[0])
		ms := r.Nearest(emb, 3, Euclidean)
		if len(ms) != 3 {
			t.Fatalf("got %d matches", len(ms))
		}
		if ms[0].TokenID != ids[0] {
			t.Errorf("top match for %q is token %d (%q), want %d", w, ms[0].TokenID, ms[0].Word, ids[0])
		}
		if ms[0].Distance > 1e-9 {
			t.Errorf("self distance %v", ms[0].Distance)
		}
		if ms[1].Distance < ms[0].Distance {
			t.Error("matches not sorted")
		}
	}
}

func TestAllMetricsAgreeOnSelfRetrieval(t *testing.T) {
	space := testSpace(t)
	r := New(space)
	ids := space.Tokenizer().Encode("robbery")
	if len(ids) != 1 {
		t.Fatalf("robbery tokenizes to %d tokens; the fixture vocab (600 merges over the builtin corpus) must keep it whole-word", len(ids))
	}
	emb := space.TokenVector(ids[0])
	for _, m := range []Metric{Euclidean, Cosine, Dot} {
		ms := r.Nearest(emb, 1, m)
		if ms[0].TokenID != ids[0] {
			t.Errorf("metric %v top match %q", m, ms[0].Word)
		}
	}
}

func TestMetricString(t *testing.T) {
	if Euclidean.String() != "euclidean" || Cosine.String() != "cosine" || Dot.String() != "dot" {
		t.Error("metric names wrong")
	}
	if !strings.Contains(Metric(9).String(), "9") {
		t.Error("unknown metric string")
	}
}

func TestDecodeBankPerRow(t *testing.T) {
	space := testSpace(t)
	r := New(space)
	idsA := space.Tokenizer().Encode("gun")
	idsB := space.Tokenizer().Encode("mask")
	if len(idsA) != 1 || len(idsB) != 1 {
		t.Fatalf("gun/mask tokenize to %d/%d tokens; the fixture vocab (600 merges over the builtin corpus) must keep both whole-word", len(idsA), len(idsB))
	}
	bank := tensor.ConcatRows(
		space.TokenVector(idsA[0]).Reshape(1, space.Dim()),
		space.TokenVector(idsB[0]).Reshape(1, space.Dim()),
	)
	per := r.DecodeBank(bank, 2, Euclidean)
	if len(per) != 2 {
		t.Fatalf("rows = %d", len(per))
	}
	if per[0][0].Word != "gun" || per[1][0].Word != "mask" {
		t.Errorf("decoded %q/%q", per[0][0].Word, per[1][0].Word)
	}
	phrase := r.NodePhrase(bank, Euclidean)
	if phrase != "gun mask" {
		t.Errorf("NodePhrase = %q", phrase)
	}
}

// The Fig. 6 mechanism: an embedding interpolated from "sneaky" toward
// "firearm" must flip its nearest word as it crosses the midpoint, and the
// trajectory's drift statistic must be positive.
func TestTrajectoryDriftSneakyToFirearm(t *testing.T) {
	space := testSpace(t)
	r := New(space)
	from := space.TextEncode("sneaky")
	to := space.TextEncode("firearm")
	rec := NewTrajectoryRecorder(r, "sneaky", "firearm")
	const steps = 9
	for i := 0; i <= steps; i++ {
		alpha := float64(i) / steps
		interp := tensor.Add(tensor.Scale(from, 1-alpha), tensor.Scale(to, alpha))
		rec.Record(i*100, interp.Reshape(1, space.Dim()))
	}
	traj := rec.Trajectory()
	if len(traj.Iterations) != steps+1 {
		t.Fatalf("recorded %d points", len(traj.Iterations))
	}
	// Distance to initial grows; distance to target shrinks.
	if traj.DistInitial[0] > traj.DistInitial[steps] {
		t.Error("distance to initial should grow")
	}
	if traj.DistTarget[0] < traj.DistTarget[steps] {
		t.Error("distance to target should shrink")
	}
	if traj.NetDrift() <= 0 {
		t.Errorf("NetDrift = %v, want positive", traj.NetDrift())
	}
	// Moving away from both anchors, faster from the initial one (the
	// quick-scale Fig. 6 end points), is not progress toward the target.
	away := Trajectory{
		Iterations:  []int{0, 100},
		DistInitial: []float64{0.3620, 0.5271},
		DistTarget:  []float64{1.2983, 1.3171},
	}
	if got, want := away.NetDrift(), away.DistTarget[0]-away.DistTarget[1]; got != want || got >= 0 {
		t.Errorf("NetDrift moving away from the target = %v, want %v", got, want)
	}
	first := traj.TopWord[0]
	last := traj.TopWord[steps]
	if first == last {
		t.Errorf("top word never flipped: %q → %q", first, last)
	}
	if !strings.Contains(first, "sneak") {
		t.Errorf("start word %q does not resemble sneaky", first)
	}
	if !strings.Contains(last, "firearm") {
		t.Errorf("end word %q does not resemble firearm", last)
	}
}

func TestNetDriftDegenerate(t *testing.T) {
	var tr Trajectory
	if tr.NetDrift() != 0 {
		t.Error("empty trajectory drift must be 0")
	}
}

func TestNearestDimValidation(t *testing.T) {
	space := testSpace(t)
	r := New(space)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong dim")
		}
	}()
	r.Nearest(tensor.New(space.Dim()+1), 1, Euclidean)
}

func TestNearestKClamp(t *testing.T) {
	space := testSpace(t)
	r := New(space)
	emb := space.TextEncode("gun")
	all := r.Nearest(emb, 1<<30, Euclidean)
	if len(all) != space.Tokenizer().VocabSize() {
		t.Errorf("clamped k = %d, want vocab size %d", len(all), space.Tokenizer().VocabSize())
	}
}
