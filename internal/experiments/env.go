// Package experiments reproduces the paper's evaluation section: the
// anomaly-trend-shift adaptation curves of Fig. 5 (weak and strong
// shifts), the interpretable-retrieval trajectory of Fig. 6, and the
// edge-vs-cloud cost comparison of Table I. All three run the same
// protocol through Deploy — train on a mission, deploy, stream a trend
// shift — and read the run at each adaptation tick. Each experiment has a
// Run function returning a structured result and a Render function
// producing the text artifact; cmd/benchall and the root bench suite drive
// them.
package experiments

import (
	"fmt"
	"math/rand"

	"edgekg/internal/bpe"
	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/decision"
	"edgekg/internal/embed"
	"edgekg/internal/gnn"
	"edgekg/internal/kg"
	"edgekg/internal/kggen"
	"edgekg/internal/oracle"
	"edgekg/internal/serve"
	"edgekg/internal/temporal"
)

// Scale sizes an experiment run. Quick targets seconds per experiment for
// tests and CI; Full is the paper-shaped configuration (README "Quick
// start": benchall -scale full).
type Scale struct {
	// Joint space.
	Dim, PixDim int
	// Dataset.
	FramesPerVideo            int
	EvalNormals, EvalAnomlous int
	// KG generation.
	KGDepth, InitialFanout, Fanout int
	// Model.
	GNNWidth, TemporalInner, TemporalHeads, Window int
	// Training.
	TrainSteps, TrainBatch      int
	TrainNormals, TrainAnomlous int
	// Deployment stream: frames per continuous-learning segment and the
	// adaptation cadence.
	SegmentFrames, AdaptEvery int
	MonitorN, MonitorLag      int
	// Adaptation.
	Adapt core.AdaptConfig
	Seed  int64
}

// QuickScale runs each experiment in a few seconds.
func QuickScale() Scale {
	a := core.DefaultAdaptConfig()
	a.Patience = 4
	return Scale{
		Dim: 16, PixDim: 32,
		FramesPerVideo: 24, EvalNormals: 4, EvalAnomlous: 4,
		KGDepth: 2, InitialFanout: 5, Fanout: 4,
		GNNWidth: 8, TemporalInner: 16, TemporalHeads: 2, Window: 4,
		TrainSteps: 300, TrainBatch: 8,
		TrainNormals: 4, TrainAnomlous: 4,
		SegmentFrames: 256, AdaptEvery: 32,
		MonitorN: 32, MonitorLag: 16,
		Adapt: a,
		Seed:  42,
	}
}

// FullScale is the configuration benchall -scale full runs (README "Quick
// start"): paper-shaped model sizes (GNN width 8, temporal inner 128 with
// 8 heads, window 8) over a larger synthetic corpus.
func FullScale() Scale {
	s := QuickScale()
	s.Dim, s.PixDim = 32, 96
	s.FramesPerVideo = 48
	s.EvalNormals, s.EvalAnomlous = 10, 10
	s.KGDepth, s.InitialFanout, s.Fanout = 3, 6, 5
	s.TemporalInner, s.TemporalHeads, s.Window = 128, 8, 8
	s.TrainSteps, s.TrainBatch = 800, 16
	s.TrainNormals, s.TrainAnomlous = 8, 8
	s.SegmentFrames, s.AdaptEvery = 512, 64
	s.MonitorN, s.MonitorLag = 64, 32
	return s
}

// Env bundles the substrate every experiment shares: the ontology, the
// tokenizer, the joint space, the dataset generator and the simulated LLM.
type Env struct {
	Scale Scale
	Ont   *concept.Ontology
	Tok   *bpe.Tokenizer
	Space *embed.Space
	Gen   *dataset.Generator
}

// NewEnv constructs the shared substrate for a scale.
func NewEnv(s Scale) (*Env, error) {
	ont := concept.Builtin()
	tok := bpe.Train(ont.Concepts(), 800)
	space, err := embed.NewSpace(tok, ont.Concepts(), embed.Config{Dim: s.Dim, PixDim: s.PixDim, Seed: s.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: space: %w", err)
	}
	dcfg := dataset.DefaultConfig()
	dcfg.FramesPerVideo = s.FramesPerVideo
	gen, err := dataset.NewGenerator(space, ont, dcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generator: %w", err)
	}
	return &Env{Scale: s, Ont: ont, Tok: tok, Space: space, Gen: gen}, nil
}

// StreamConfig returns the deployment settings at this scale — the
// monitor window and lag, adapter settings and adaptation cadence over
// serve.DefaultStreamConfig — for a bare single-camera serve.Stream:
// synchronous adaptation (lag 0), no score history. adaptive=false is the
// static-KG arm. Callers override only what differs.
func (e *Env) StreamConfig(adaptive bool) serve.StreamConfig {
	cfg := serve.DefaultStreamConfig()
	cfg.MonitorN = e.Scale.MonitorN
	cfg.MonitorLag = e.Scale.MonitorLag
	cfg.Adapt = e.Scale.Adapt
	cfg.AdaptEveryFrames = e.Scale.AdaptEvery
	if !adaptive {
		cfg.AdaptEveryFrames = 0
	}
	cfg.AdaptLagFrames = 0
	return cfg
}

// NewLLM returns a fresh deterministic simulated LLM seeded from the
// environment seed plus salt.
func (e *Env) NewLLM(salt int64) oracle.LLM {
	return oracle.NewSim(e.Ont, rand.New(rand.NewSource(e.Scale.Seed^salt)), oracle.Config{EdgeProb: 0.9})
}

// GenOptions returns the KG generation options at this scale.
func (e *Env) GenOptions() kggen.Options {
	return kggen.Options{
		Depth:              e.Scale.KGDepth,
		InitialFanout:      e.Scale.InitialFanout,
		Fanout:             e.Scale.Fanout,
		MaxCorrectionIters: 4,
		Tokenize:           e.Tok.Encode,
	}
}

// DetectorConfig returns the model configuration at this scale (binary
// decision head: normal vs. target anomaly, the Fig. 5 protocol).
func (e *Env) DetectorConfig() core.Config {
	return core.Config{
		GNN: gnn.Config{Width: e.Scale.GNNWidth},
		Temporal: temporal.Config{
			InnerDim: e.Scale.TemporalInner,
			Heads:    e.Scale.TemporalHeads,
			Window:   e.Scale.Window,
		},
		NumClasses:       2,
		Loss:             decision.DefaultLossConfig(),
		ScoreTemperature: 4,
	}
}

// TrainConfig returns the training regime at this scale.
func (e *Env) TrainConfig() core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Steps = e.Scale.TrainSteps
	return cfg
}

// BuildTrainedDetector generates the mission KG, assembles a detector and
// trains it on synthesised task data — the full Fig. 2(A)+(B) pipeline.
// Identical seeds produce bitwise-identical detectors, which is how the
// adaptive and static arms of Fig. 5 start from the same model.
func (e *Env) BuildTrainedDetector(mission concept.Class, seed int64) (*core.Detector, *kg.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	llm := e.NewLLM(seed)
	g, _, err := kggen.Generate(llm, mission.String(), e.GenOptions(), rng)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: KG generation: %w", err)
	}
	det, err := core.NewDetector(rng, e.Space, []*kg.Graph{g}, e.DetectorConfig())
	if err != nil {
		return nil, nil, err
	}
	vids := e.Gen.TaskVideos(rng, mission, e.Scale.TrainNormals, e.Scale.TrainAnomlous)
	src, err := dataset.NewClipSource(vids, det.Window(), e.Scale.TrainBatch)
	if err != nil {
		return nil, nil, err
	}
	src = src.WithLabelMap(dataset.BinaryLabelMap)
	trainer := core.NewTrainer(det, e.TrainConfig())
	trainer.Train(rng, src, nil)
	return det, g, nil
}

// EvalAUC measures test AUC for one anomaly class on freshly synthesised
// test videos, seeded deterministically so every adaptation step is scored
// against the same test set.
func (e *Env) EvalAUC(det *core.Detector, cls concept.Class, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	vids := e.Gen.TaskVideos(rng, cls, e.Scale.EvalNormals, e.Scale.EvalAnomlous)
	frames, labels := dataset.FlattenEval(vids)
	return core.EvalAUC(det, frames, labels)
}
