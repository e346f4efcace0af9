package baseline

import (
	"math/rand"
	"testing"

	"edgekg/internal/bpe"
	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/decision"
	"edgekg/internal/embed"
	"edgekg/internal/flops"
	"edgekg/internal/gnn"
	"edgekg/internal/kggen"
	"edgekg/internal/oracle"
	"edgekg/internal/temporal"
)

func testUpdater(t *testing.T) (*CloudUpdater, *dataset.Generator) {
	t.Helper()
	ont := concept.Builtin()
	tok := bpe.Train(ont.Concepts(), 600)
	space, err := embed.NewSpace(tok, ont.Concepts(), embed.Config{Dim: 16, PixDim: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataset.DefaultConfig()
	dcfg.FramesPerVideo = 16
	gen, err := dataset.NewGenerator(space, ont, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	llm := oracle.NewSim(ont, rand.New(rand.NewSource(7)), oracle.Config{EdgeProb: 0.9})
	train := core.DefaultTrainConfig()
	train.Steps = 80
	cfg := Config{
		Gen: kggen.Options{Depth: 2, InitialFanout: 4, Fanout: 3, MaxCorrectionIters: 3, Tokenize: tok.Encode},
		Detector: core.Config{
			GNN:        gnn.Config{Width: 8},
			Temporal:   temporal.Config{InnerDim: 16, Heads: 2, Window: 4},
			NumClasses: 2,
			Loss:       decision.DefaultLossConfig(),
		},
		Train:          train,
		TrainNormal:    3,
		TrainAnomalous: 3,
		Batch:          6,
		Cloud:          flops.PaperCloudConstants(),
	}
	return NewCloudUpdater(space, llm, gen, cfg), gen
}

func TestBuildForProducesWorkingDetector(t *testing.T) {
	u, gen := testUpdater(t)
	rng := rand.New(rand.NewSource(8))
	det, err := u.BuildFor(rng, "Robbery")
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt detector must discriminate the mission anomaly.
	vids := gen.TaskVideos(rng, concept.Robbery, 3, 3)
	frames, labels := dataset.FlattenEval(vids)
	auc, err := core.EvalAUC(det, frames, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.7 {
		t.Errorf("rebuilt detector AUC %v too low", auc)
	}
	// Deploy happened: weights frozen.
	for _, p := range det.Params() {
		if p.V.RequiresGrad() {
			t.Fatalf("rebuilt detector not deployed: %s trainable", p.Name)
		}
	}
	if u.Updates() != 1 {
		t.Errorf("updates = %d", u.Updates())
	}
}

func TestBuildForUnknownMission(t *testing.T) {
	u, _ := testUpdater(t)
	if _, err := u.BuildFor(rand.New(rand.NewSource(9)), "NotAClass"); err == nil {
		t.Error("unknown mission accepted")
	}
}

func TestCostsScaleWithUpdates(t *testing.T) {
	u, _ := testUpdater(t)
	rng := rand.New(rand.NewSource(10))
	for _, mission := range []string{"Stealing", "Robbery", "Stealing"} {
		if _, err := u.BuildFor(rng, mission); err != nil {
			t.Fatal(err)
		}
	}
	c := u.Costs()
	if c.Updates != 3 {
		t.Errorf("updates = %d", c.Updates)
	}
	if c.TotalFLOPs != 3e15 {
		t.Errorf("FLOPs = %v", c.TotalFLOPs)
	}
	if c.TotalMinutes != 3 {
		t.Errorf("minutes = %v", c.TotalMinutes)
	}
	if c.BandwidthGB != 1.5 {
		t.Errorf("bandwidth = %v", c.BandwidthGB)
	}
	// Peak memory does not accumulate.
	if c.GPTMemoryGB != 200 || c.KGMemoryGB != 0.5 {
		t.Errorf("memory rows wrong: %+v", c)
	}
}
