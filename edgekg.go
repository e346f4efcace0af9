// Package edgekg is the public API of the continuous GNN-based anomaly
// detection system of Yun et al., "Continuous GNN-based Anomaly Detection
// on Edge using Efficient Adaptive Knowledge Graph Learning" (DATE 2025).
//
// The package assembles the full pipeline of the paper's Fig. 2 behind a
// small surface: generate a mission-specific knowledge graph from the
// (simulated) LLM, train the lightweight hierarchical-GNN detector
// (System), deploy it frozen to one or more simulated edge cameras
// (System.Serve, a StreamServer), and let continuous KG adaptive learning
// keep each camera aligned with shifting anomaly trends — no cloud
// involved. Interpretable KG retrieval decodes what a camera's adapted
// graph has learned back into vocabulary words.
//
// All heavy machinery lives in internal packages; this facade exposes
// plain-Go types (float64 slices, strings, small structs) so downstream
// users never need the internal APIs. See examples/ for runnable
// walk-throughs and README.md ("Layout") for the architecture map.
package edgekg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/experiments"
	"edgekg/internal/kg"
	"edgekg/internal/netserve"
	"edgekg/internal/retrieval"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// Options configures a System. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Seed drives every stochastic component; equal seeds give bitwise
	// identical systems.
	Seed int64
	// Scale selects the preset sizing: "quick" (seconds-scale, tests and
	// demos) or "full" (paper-shaped model sizes; README "Quick start"
	// regenerates the figures and tables at either).
	Scale string
	// TrainSteps overrides the preset's training length when > 0.
	TrainSteps int
	// AdaptEveryFrames overrides the adaptation cadence when > 0.
	AdaptEveryFrames int
}

// DefaultOptions returns a quick-scale configuration.
func DefaultOptions() Options {
	return Options{Seed: 42, Scale: "quick"}
}

// System is the trained side of the pipeline: joint embedding space,
// mission KG and detector. It never adapts; Serve deploys it frozen, and
// each served camera adapts a copy-on-write clone of its own.
type System struct {
	env  *experiments.Env
	det  *core.Detector
	retr *retrieval.Retriever
	rng  *rand.Rand
}

// NewSystem builds the substrate (ontology, tokenizer, joint space,
// dataset generator) for the given options.
func NewSystem(opts Options) (*System, error) {
	var scale experiments.Scale
	switch opts.Scale {
	case "", "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		return nil, fmt.Errorf("edgekg: unknown scale %q (want quick or full)", opts.Scale)
	}
	if opts.Seed != 0 {
		scale.Seed = opts.Seed
	}
	if opts.TrainSteps > 0 {
		scale.TrainSteps = opts.TrainSteps
	}
	if opts.AdaptEveryFrames > 0 {
		scale.AdaptEvery = opts.AdaptEveryFrames
	}
	env, err := experiments.NewEnv(scale)
	if err != nil {
		return nil, err
	}
	return &System{
		env:  env,
		retr: retrieval.New(env.Space),
		rng:  rand.New(rand.NewSource(scale.Seed)),
	}, nil
}

// Missions returns the supported mission (anomaly class) names.
func Missions() []string {
	classes := concept.AnomalyClasses()
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = c.String()
	}
	return out
}

// Train generates the mission-specific KG and trains the detector on
// synthetic task data (Fig. 2 A+B). It must be called before Serve.
func (s *System) Train(mission string) error {
	cls, ok := concept.ClassByName(mission)
	if !ok || cls == concept.Normal {
		return fmt.Errorf("edgekg: unknown mission %q (see Missions())", mission)
	}
	det, _, err := s.env.BuildTrainedDetector(cls, s.env.Scale.Seed+1)
	if err != nil {
		return err
	}
	s.det = det
	return nil
}

// FrameSize returns the expected raw frame-feature length.
func (s *System) FrameSize() int { return s.env.Space.PixDim() }

// SynthesizeFrame generates one raw frame of the given class ("Normal" or
// any mission name) — the stand-in for a camera capture.
func (s *System) SynthesizeFrame(class string) ([]float64, error) {
	cls, ok := concept.ClassByName(class)
	if !ok {
		return nil, fmt.Errorf("edgekg: unknown class %q", class)
	}
	pix := s.env.Gen.Frame(s.rng, cls)
	out := make([]float64, pix.Size())
	copy(out, pix.Data())
	return out, nil
}

// FrameResult reports one processed frame.
type FrameResult struct {
	// Score is the anomaly probability pA ∈ [0,1].
	Score float64
	// Adapted is true when this frame's arrival triggered an adaptation
	// round that selected pseudo-anomalies.
	Adapted bool
	// PrunedNodes and CreatedNodes count structural KG changes this round.
	PrunedNodes, CreatedNodes int
}

func frameResult(res serve.Result) FrameResult {
	return FrameResult{
		Score:        res.Score,
		Adapted:      res.Adapt.Triggered,
		PrunedNodes:  len(res.Adapt.Pruned),
		CreatedNodes: len(res.Adapt.Created),
	}
}

// TestAUC evaluates the trained detector against freshly synthesised test
// videos of the given anomaly class (plus normals), returning frame-level
// ROC-AUC — the paper's metric. StreamServer.TestAUC evaluates a camera's
// adapted copy.
func (s *System) TestAUC(class string) (float64, error) {
	if s.det == nil {
		return 0, fmt.Errorf("edgekg: Train first")
	}
	cls, ok := concept.ClassByName(class)
	if !ok || cls == concept.Normal {
		return 0, fmt.Errorf("edgekg: unknown anomaly class %q", class)
	}
	return s.env.EvalAUC(s.det, cls, s.env.Scale.Seed+999)
}

// KGStats summarises the trained knowledge graph. Per-camera structural
// changes are counted in DeploymentStats.
type KGStats struct {
	Mission       string
	Depth         int
	Nodes, Edges  int
	NodesPerLevel []int
}

// KG returns the trained graph's statistics.
func (s *System) KG() (KGStats, error) {
	if s.det == nil {
		return KGStats{}, fmt.Errorf("edgekg: Train first")
	}
	st := s.det.GNN(0).Graph().ComputeStats()
	return KGStats{
		Mission:       st.Mission,
		Depth:         st.Depth,
		Nodes:         st.Nodes,
		Edges:         st.Edges,
		NodesPerLevel: st.NodesPerLevel,
	}, nil
}

// KGDOT renders the trained KG in Graphviz dot format.
func (s *System) KGDOT() (string, error) {
	if s.det == nil {
		return "", fmt.Errorf("edgekg: Train first")
	}
	return s.det.GNN(0).Graph().DOT(), nil
}

// NodeInterpretation is one reasoning node decoded through Interpretable
// KG Retrieval.
type NodeInterpretation struct {
	NodeID  int
	Level   int
	Concept string
	// Decoded is the current top-1 retrieval of the node's learned token
	// embeddings — equal to Concept before adaptation, drifting after.
	Decoded string
	// Created marks nodes inserted by the adaptation loop.
	Created bool
}

// DeploymentStats summarises one served camera so far.
type DeploymentStats struct {
	Frames          int
	AdaptRounds     int
	TriggeredRounds int
	PrunedNodes     int
	CreatedNodes    int
	ScoringFLOPs    int64
	AdaptFLOPs      int64
	EnergyPerAdaptJ float64
	// ResidentBytes is the memory charged to this deployment (zero while
	// a stream's state is spilled); Evictions counts the stream's spill
	// round-trips under a memory budget.
	ResidentBytes int64
	Evictions     int
	// LastErr is the stream's most recent retained error (a failed
	// background eviction or rehydration has no per-frame result to
	// surface on, so it lands here); empty when everything succeeded.
	LastErr string
}

func deploymentStats(st serve.Stats) DeploymentStats {
	return DeploymentStats{
		Frames:          st.Frames,
		AdaptRounds:     st.AdaptRounds,
		TriggeredRounds: st.TriggeredRounds,
		PrunedNodes:     st.PrunedNodes,
		CreatedNodes:    st.CreatedNodes,
		ScoringFLOPs:    st.ScoringOps,
		AdaptFLOPs:      st.AdaptOps,
		EnergyPerAdaptJ: st.EnergyPerAdaptJ,
		ResidentBytes:   st.ResidentBytes,
		Evictions:       st.Evictions,
		LastErr:         st.LastErr,
	}
}

// ServeOptions configures a multi-camera serving deployment.
type ServeOptions struct {
	// Streams is the camera count (≥1).
	Streams int
	// Adaptive enables continuous KG adaptation per stream; each stream
	// adapts its own KG copy while the trained backbone stays frozen and
	// shared.
	Adaptive bool
	// AdaptEveryFrames overrides the per-stream adaptation cadence
	// when > 0.
	AdaptEveryFrames int
	// AdaptLagFrames is how many frames a stream keeps scoring on its
	// previous KG while an adaptation round runs in the background
	// (snapshot/swap). 0 runs rounds synchronously at the trigger frame.
	AdaptLagFrames int
	// ScoreHistory keeps each stream's most recent scores for dashboards.
	ScoreHistory int
	// MemBudgetBytes caps the process's charged per-stream resident
	// bytes: past the budget, idle streams are spilled to SpillDir and
	// rehydrated bit-exactly on their next frame. 0 disables the budget.
	MemBudgetBytes int64
	// SpillDir is where evicted streams checkpoint their state (required
	// with MemBudgetBytes > 0).
	SpillDir string
	// Precision selects each stream's scoring width: "" or "auto" defers
	// to EDGEKG_PRECISION (default f64, bit-exact), "f64" forces the
	// double-precision path, "f32" runs the scoring engine at float32
	// and stores the monitor's retained frames at float32 (roughly half
	// the per-stream resident bytes).
	Precision string
}

// StreamServer is a running deployment of one or more cameras: one
// process, one shared frozen backbone, one adaptation context per camera
// (a single camera is a 1-stream server). Drive each stream from its own
// goroutine with ProcessFrame; Close when done.
type StreamServer struct {
	sys *System
	srv *serve.Server
}

// Serve deploys the trained detector to opts.Streams cameras (Fig. 2C).
// The system's detector becomes the shared frozen backbone: each stream
// adapts a copy-on-write clone of it, so the System itself never changes
// and any number of servers may be built from it, one after another.
func (s *System) Serve(opts ServeOptions) (*StreamServer, error) {
	if s.det == nil {
		return nil, fmt.Errorf("edgekg: Train before serving")
	}
	if opts.Streams < 1 {
		return nil, fmt.Errorf("edgekg: stream count %d must be ≥1", opts.Streams)
	}
	cfg := serve.Config{Stream: s.env.StreamConfig(opts.Adaptive)}
	if opts.Adaptive && opts.AdaptEveryFrames > 0 {
		cfg.Stream.AdaptEveryFrames = opts.AdaptEveryFrames
	}
	cfg.Stream.AdaptLagFrames = opts.AdaptLagFrames
	cfg.Stream.ScoreHistory = opts.ScoreHistory
	prec, err := core.ParsePrecision(opts.Precision)
	if err != nil {
		return nil, fmt.Errorf("edgekg: %w", err)
	}
	cfg.Stream.Precision = prec
	cfg.BaseSeed = s.env.Scale.Seed + 100
	cfg.MemBudgetBytes = opts.MemBudgetBytes
	cfg.SpillDir = opts.SpillDir
	srv, err := serve.NewServer(s.det, opts.Streams, cfg)
	if err != nil {
		return nil, err
	}
	return &StreamServer{sys: s, srv: srv}, nil
}

// NumStreams returns the camera count.
func (ss *StreamServer) NumStreams() int { return ss.srv.NumStreams() }

// ProcessFrame scores one raw frame on the given stream, blocking until
// the result is available. Each stream must be driven by one goroutine
// (its camera); different streams are scored concurrently, and a stream's
// adaptation rounds overlap its scoring per the configured lag.
func (ss *StreamServer) ProcessFrame(stream int, frame []float64) (FrameResult, error) {
	if len(frame) != ss.sys.FrameSize() {
		return FrameResult{}, fmt.Errorf("edgekg: frame length %d, want %d", len(frame), ss.sys.FrameSize())
	}
	res, err := ss.srv.Process(stream, tensor.FromSlice(append([]float64(nil), frame...), len(frame)))
	if err != nil {
		return FrameResult{}, err
	}
	// A non-nil res.Err reports an adaptation round's failure — the frame's
	// score is still valid and returned alongside it (the frame was scored
	// and entered the monitor; do not resubmit it) — or a refused frame
	// (serve.ErrBadFrame: it scored non-finite and the stream ignored it).
	return frameResult(res), res.Err
}

// Stats returns one stream's deployment statistics. Safe to call from any
// goroutine; on a live stream it synchronises with the stream's loop.
func (ss *StreamServer) Stats(stream int) (DeploymentStats, error) {
	st, err := ss.srv.StreamStats(stream)
	if err != nil {
		return DeploymentStats{}, err
	}
	return deploymentStats(st), nil
}

// MemStats reports the serving process's charged resident bytes and the
// configured budget (0 when unbudgeted).
func (ss *StreamServer) MemStats() (resident, budget int64) {
	l := ss.srv.MemLedger()
	return l.Total(), l.Budget()
}

// RecentScores returns a copy of the stream's retained score history
// (requires ServeOptions.ScoreHistory > 0).
func (ss *StreamServer) RecentScores(stream int) ([]float64, error) {
	return serve.Call(context.Background(), ss.srv, stream, func(st *serve.Stream) ([]float64, error) {
		st.Sync()
		return st.Scores(), nil
	})
}

// TestAUC evaluates one stream's adapted detector against freshly
// synthesised test videos of the given class, returning frame-level
// ROC-AUC. The evaluation runs on the stream's loop (its scoring pauses;
// other streams are unaffected).
func (ss *StreamServer) TestAUC(stream int, class string) (float64, error) {
	cls, ok := concept.ClassByName(class)
	if !ok || cls == concept.Normal {
		return 0, fmt.Errorf("edgekg: unknown anomaly class %q", class)
	}
	return onDetector(ss, stream, func(det *core.Detector) (float64, error) {
		return ss.sys.env.EvalAUC(det, cls, ss.sys.env.Scale.Seed+999)
	})
}

// InterpretKG decodes every reasoning node of one stream's adapted KG —
// its learned token embeddings — back to vocabulary words (Sec. III-E).
// Like TestAUC it runs on the stream's loop.
func (ss *StreamServer) InterpretKG(stream int) ([]NodeInterpretation, error) {
	return onDetector(ss, stream, func(det *core.Detector) ([]NodeInterpretation, error) {
		m := det.GNN(0)
		var out []NodeInterpretation
		for _, n := range m.Graph().Nodes() {
			if n.Kind != kg.Reasoning {
				continue
			}
			out = append(out, NodeInterpretation{
				NodeID:  int(n.ID),
				Level:   n.Level,
				Concept: n.Concept,
				Decoded: ss.sys.retr.NodePhrase(m.Tokens().Bank(n.ID).Data, retrieval.Euclidean),
				Created: n.Created,
			})
		}
		return out, nil
	})
}

// onDetector runs fn on the stream's loop over its adapted detector, with
// any in-flight adaptation round joined first.
func onDetector[T any](ss *StreamServer, stream int, fn func(*core.Detector) (T, error)) (T, error) {
	return serve.Call(context.Background(), ss.srv, stream, func(st *serve.Stream) (T, error) {
		st.Sync()
		if det := st.Detector(); det != nil {
			return fn(det)
		}
		var zero T
		return zero, fmt.Errorf("edgekg: stream %d holds no detector (released, or rehydration failed: %v)", stream, st.Err())
	})
}

// SaveCheckpoint persists every stream's complete adaptation state to a
// file (atomic temp-then-rename write). Safe on a live server: each
// stream is captured between frames on its own processing loop, and an
// in-flight background adaptation round keeps its frame-deterministic
// swap schedule through the round trip.
func (ss *StreamServer) SaveCheckpoint(path string) error {
	cp, err := ss.srv.Checkpoint(context.Background())
	if err != nil {
		return err
	}
	return snapshot.Save(path, cp)
}

// LoadCheckpoint restores a checkpoint taken by SaveCheckpoint into this
// server and returns each stream's restored frame count — the index the
// camera should continue feeding from. The server must have been built by
// the same System configuration (same training seed and ServeOptions) —
// the backbone is rebuilt deterministically from the seed; only the
// per-stream adaptation deltas are restored. Restore before submitting
// frames.
//
// Use the returned counts rather than probing Stats: a checkpoint can
// carry an adaptation round that was in flight at snapshot time, and a
// Stats barrier would join it early — moving its swap off the recorded
// frame and perturbing the resumed trajectory. The returned counts come
// from the checkpoint itself and leave the swap schedule untouched.
func (ss *StreamServer) LoadCheckpoint(path string) ([]int, error) {
	cp, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	if err := ss.srv.Restore(cp); err != nil {
		return nil, err
	}
	frames := make([]int, len(cp.Streams))
	for i := range cp.Streams {
		frames[i] = cp.Streams[i].Frames
	}
	return frames, nil
}

// CloseStream ends one stream's input; its loop drains and its final
// statistics remain readable.
func (ss *StreamServer) CloseStream(stream int) { ss.srv.CloseStream(stream) }

// Close shuts the server down: all streams closed and drained. Stats,
// RecentScores and TestAUC remain usable afterwards (they run inline on
// the drained streams); ProcessFrame does not.
func (ss *StreamServer) Close() { ss.srv.Shutdown() }

// NetServeOptions configures the networked serving tier in front of a
// StreamServer (see internal/netserve for the API surface). Observer
// endpoints (stats, scores, export) wait at most 10 s for a busy stream's
// loop before answering 503.
type NetServeOptions struct {
	// MaxPending bounds the frame submits queued per stream slot, the one
	// being scored included; beyond it the worker sheds with HTTP 429.
	// Defaults to 8.
	MaxPending int
	// CheckpointPath, when set, is where POST /v1/checkpoint writes the
	// full-deployment checkpoint.
	CheckpointPath string
	// Ready, when set, receives the bound listen address (useful with
	// ":0") just before the server starts accepting.
	Ready func(addr string)
}

// ErrKilled reports that a worker's serving loop ended because a client
// POSTed /v1/die: an abrupt stop — in-flight connections severed, no
// drain — simulating a crash for failover tests and drills. The process
// state is intact; the caller still owns Close.
var ErrKilled = errors.New("edgekg: worker killed by request (abrupt stop, no drain)")

// NetListen exposes the deployment's HTTP serving API on addr: frame
// submit, per-stream stats and scores, memory report, checkpoint and
// evict triggers, and single-stream state export/restore — the unit of
// checkpoint-based migration between worker processes. It blocks until a
// client POSTs /v1/shutdown (in-flight requests finish), then returns;
// a POST /v1/die instead stops abruptly and returns ErrKilled. The
// caller still owns Close. The deployment stays drivable locally
// through ProcessFrame for slots the network side does not use, but one
// slot must have a single driver — network or local, not both.
func (ss *StreamServer) NetListen(addr string, opts NetServeOptions) error {
	h, err := netserve.NewHandler(ss.srv, netserve.Options{
		FrameSize:      ss.sys.FrameSize(),
		MaxPending:     opts.MaxPending,
		CheckpointPath: opts.CheckpointPath,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("edgekg: listen %s: %w", addr, err)
	}
	if opts.Ready != nil {
		opts.Ready(ln.Addr().String())
	}
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-h.ShutdownRequested():
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-errc // always http.ErrServerClosed after Shutdown/Close
		return nil
	case <-h.KillRequested():
		hs.Close() // sever in-flight connections: a crash, not a drain
		<-errc
		return ErrKilled
	case err := <-errc:
		return fmt.Errorf("edgekg: serving %s: %w", addr, err)
	}
}

// StreamClass returns frames drawn from the dataset stream abstraction —
// convenience for demos needing a labelled mixed stream.
type StreamClass struct {
	Frame     []float64
	Anomalous bool
	Class     string
}

// NextStreamFrames synthesises n frames mixing Normal background with the
// given anomaly class at the given rate, drawing from the System's master
// RNG (successive calls continue the stream).
func (s *System) NextStreamFrames(class string, n int, anomalyRate float64) ([]StreamClass, error) {
	return s.nextStreamFrames(class, n, anomalyRate, s.rng)
}

// NextStreamFramesSeeded is NextStreamFrames with a dedicated seed instead
// of the master RNG: the result is a pure function of (class, n, rate,
// seed), and a longer schedule from the same seed extends a shorter one
// frame-for-frame. Warm restarts rely on this — a resumed process can
// re-synthesise a camera's schedule to a larger frame target and the
// prefix still matches what the checkpointed run served.
func (s *System) NextStreamFramesSeeded(class string, n int, anomalyRate float64, seed int64) ([]StreamClass, error) {
	return s.nextStreamFrames(class, n, anomalyRate, rand.New(rand.NewSource(seed)))
}

// CameraSchedules synthesises the frame schedules of n cameras, frames
// long each: camera i's trend starts at initial and shifts to shifted at
// frame driftAt + i·stagger (capped at frames), each segment drawn from
// its own seed (seed+1000+i before the shift, seed+2000+i after) — so a
// longer frames target extends a shorter one frame-for-frame. cmd/serve's
// self-driving mode and cmd/loadgen both call it, so a networked run
// scores the frames a self-driving one does.
func (s *System) CameraSchedules(n, frames int, initial, shifted string, anomalyRate float64, driftAt, stagger int, seed int64) ([][][]float64, error) {
	if n < 0 || frames < 0 {
		return nil, fmt.Errorf("edgekg: %d cameras of %d frames: counts must be ≥0", n, frames)
	}
	schedules := make([][][]float64, n)
	for i := range schedules {
		shift := min(driftAt+i*stagger, frames)
		pre, err := s.NextStreamFramesSeeded(initial, shift, anomalyRate, seed+1000+int64(i))
		if err != nil {
			return nil, err
		}
		post, err := s.NextStreamFramesSeeded(shifted, frames-shift, anomalyRate, seed+2000+int64(i))
		if err != nil {
			return nil, err
		}
		schedules[i] = make([][]float64, 0, frames)
		for _, f := range append(pre, post...) {
			schedules[i] = append(schedules[i], f.Frame)
		}
	}
	return schedules, nil
}

func (s *System) nextStreamFrames(class string, n int, anomalyRate float64, rng *rand.Rand) ([]StreamClass, error) {
	if n < 0 {
		return nil, fmt.Errorf("edgekg: frame count %d must be ≥0", n)
	}
	cls, ok := concept.ClassByName(class)
	if !ok {
		return nil, fmt.Errorf("edgekg: unknown class %q", class)
	}
	sched := dataset.Schedule{Phases: []dataset.Phase{{Class: cls, Steps: n}}}
	stream, err := dataset.NewStream(s.env.Gen, sched, anomalyRate, rng)
	if err != nil {
		return nil, err
	}
	out := make([]StreamClass, n)
	for i := range out {
		pix, anom, c := stream.Next()
		frame := make([]float64, pix.Size())
		copy(frame, pix.Data())
		out[i] = StreamClass{Frame: frame, Anomalous: anom, Class: c.String()}
	}
	return out, nil
}
