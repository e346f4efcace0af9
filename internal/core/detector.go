// Package core assembles the paper's system and implements its primary
// contribution. Detector is the MissionGNN-style pipeline of Fig. 2(B):
// frozen joint embedding → per-KG hierarchical GNN → transformer temporal
// model → linear+softmax decision head. Monitor tracks the deployed
// anomaly-score distribution and selects the top-K recent scores as
// pseudo-anomalies with K = |Δm|·N (Sec. III-D). Adapter performs the
// continuous KG adaptive learning loop of Fig. 4: token-embedding-only
// updates, per-node L2 convergence tracking, and node pruning + creation
// on divergence.
package core

import (
	"fmt"
	"math/rand"

	"edgekg/internal/autograd"
	"edgekg/internal/decision"
	"edgekg/internal/embed"
	"edgekg/internal/gnn"
	"edgekg/internal/kg"
	"edgekg/internal/nn"
	"edgekg/internal/parallel"
	"edgekg/internal/temporal"
	"edgekg/internal/tensor"
)

// Config assembles a Detector.
type Config struct {
	// GNN configures every per-KG hierarchical GNN.
	GNN gnn.Config
	// Temporal configures the short-term temporal model; InputDim is
	// overwritten with the concatenated reasoning width.
	Temporal temporal.Config
	// NumClasses is n+1 (normal + anomaly types) for the decision head.
	NumClasses int
	// Loss carries the λ_spa / λ_smt weights.
	Loss decision.LossConfig
	// ScoreTemperature calibrates the frozen head at deployment: scores
	// use softmax(logits/T). Training drives logits far apart, so raw
	// float64 softmax saturates to exactly 0/1 — monotone (AUC is
	// unaffected) but fatal for the monitor, whose top-K selection and
	// Δm detection need graded scores. 0 means 1 (no scaling).
	ScoreTemperature float64
	// Precision selects the scoring width: the zero value (Auto) defers
	// to EDGEKG_PRECISION and defaults to the bit-exact float64 path.
	Precision Precision
}

// Detector is the assembled anomaly detection model.
type Detector struct {
	space *embed.Space
	gnns  []*gnn.Model
	temp  *temporal.Model
	head  *decision.Head
	cfg   Config
}

// NewDetector builds a detector reasoning over the given mission KGs.
func NewDetector(rng *rand.Rand, space *embed.Space, graphs []*kg.Graph, cfg Config) (*Detector, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("core: detector needs at least one mission KG")
	}
	d := &Detector{space: space, cfg: cfg}
	reasonDim := 0
	for _, g := range graphs {
		m, err := gnn.NewModel(rng, g, space, cfg.GNN)
		if err != nil {
			return nil, fmt.Errorf("core: GNN for %q: %w", g.Mission, err)
		}
		d.gnns = append(d.gnns, m)
		reasonDim += m.Width()
	}
	tcfg := cfg.Temporal
	tcfg.InputDim = reasonDim
	tm, err := temporal.New(rng, tcfg)
	if err != nil {
		return nil, fmt.Errorf("core: temporal model: %w", err)
	}
	d.temp = tm
	head, err := decision.NewHead(rng, reasonDim, cfg.NumClasses)
	if err != nil {
		return nil, fmt.Errorf("core: decision head: %w", err)
	}
	d.head = head
	return d, nil
}

// CloneShared returns a detector that deep-copies every per-KG mutable
// piece of state — each mission graph's structure and token bank — while
// sharing the frozen backbone: the joint embedding space, the GNN
// dense/BatchNorm layers, the temporal model and the decision head. The
// clone scores bit-identically to the receiver, and its token banks and
// graphs can be adapted (including node pruning/creation) without
// touching the receiver or sibling clones.
//
// The shared backbone must remain frozen and in inference mode while any
// clone is live: training the receiver (or a clone) would mutate layer
// weights, BatchNorm statistics and mode flags every clone reads. The
// serving runtime deploys the backbone first and then takes one clone per
// stream, which is exactly that contract.
//
// Serving clones with CloneCOW; CloneShared remains as the deep-copy
// oracle the copy-on-write equivalence tests compare against.
func (d *Detector) CloneShared() (*Detector, error) {
	c := &Detector{space: d.space, temp: d.temp, head: d.head, cfg: d.cfg}
	c.gnns = make([]*gnn.Model, len(d.gnns))
	for i, m := range d.gnns {
		cm, err := m.CloneShared()
		if err != nil {
			// Release the half-built clone: models built so far are
			// discarded wholesale (deep clones hold no marks on their
			// source), never returned partially wired.
			c.gnns = nil
			return nil, fmt.Errorf("core: clone GNN %d: %w", i, err)
		}
		c.gnns[i] = cm
	}
	return c, nil
}

// CloneCOW is CloneShared with lazy copy-on-write semantics: the clone
// aliases every mission graph's storage and token-bank tensors until they
// are actually mutated (see gnn.Model.CloneCOW), so an unadapted clone
// costs O(nodes) wrappers instead of a full deep copy — the enabler for
// hundreds of streams per process. Scoring through the clone is
// bit-identical to CloneShared, under the same frozen-backbone contract.
//
// A mid-loop failure releases the partially-built clone: shared marks the
// earlier per-GNN clones placed on the receiver are rolled back, so the
// receiver neither leaks half-clones nor pays spurious COW faults later.
func (d *Detector) CloneCOW() (*Detector, error) {
	c := &Detector{space: d.space, temp: d.temp, head: d.head, cfg: d.cfg}
	c.gnns = make([]*gnn.Model, len(d.gnns))
	for i, m := range d.gnns {
		cm, err := m.CloneCOW()
		if err != nil {
			for j := 0; j < i; j++ {
				c.gnns[j].DiscardClone()
			}
			c.gnns = nil
			return nil, fmt.Errorf("core: clone GNN %d: %w", i, err)
		}
		c.gnns[i] = cm
	}
	return c, nil
}

// DiscardClone rolls back the COW marks this clone placed on its source —
// call it on an unused CloneCOW result that will never be served (e.g. a
// server constructor failing after cloning some streams), so the source
// does not keep paying copy-on-write faults for a dead alias. No-op on
// deep (CloneShared) clones.
func (d *Detector) DiscardClone() {
	for _, m := range d.gnns {
		m.DiscardClone()
	}
}

// DetectorMem is the detector's per-stream resident-bytes breakdown:
// privately owned graph/bank state versus state COW-shared with the
// backbone or sibling clones (not charged to the stream).
type DetectorMem struct {
	BankOwned, BankShared   int64
	GraphOwned, GraphShared int64
}

// Owned returns the bytes privately owned by this detector clone.
func (dm DetectorMem) Owned() int64 { return dm.BankOwned + dm.GraphOwned }

// Mem aggregates the per-GNN memory footprint for the serving ledger.
func (d *Detector) Mem() DetectorMem {
	var dm DetectorMem
	for _, m := range d.gnns {
		mm := m.Mem()
		dm.BankOwned += mm.BankOwned
		dm.BankShared += mm.BankShared
		dm.GraphOwned += mm.GraphOwned
		dm.GraphShared += mm.GraphShared
	}
	return dm
}

// Space returns the frozen joint embedding model.
func (d *Detector) Space() *embed.Space { return d.space }

// Graphs returns the mission KGs in model order.
func (d *Detector) Graphs() []*kg.Graph {
	out := make([]*kg.Graph, len(d.gnns))
	for i, m := range d.gnns {
		out[i] = m.Graph()
	}
	return out
}

// GNN returns the i-th per-KG model.
func (d *Detector) GNN(i int) *gnn.Model { return d.gnns[i] }

// NumGNNs returns the mission-KG count.
func (d *Detector) NumGNNs() int { return len(d.gnns) }

// Temporal returns the short-term temporal model.
func (d *Detector) Temporal() *temporal.Model { return d.temp }

// Head returns the decision head.
func (d *Detector) Head() *decision.Head { return d.head }

// ReasoningDim returns D = Σ_i D_{d+2} — the concatenated multi-KG
// reasoning embedding width.
func (d *Detector) ReasoningDim() int {
	dim := 0
	for _, m := range d.gnns {
		dim += m.Width()
	}
	return dim
}

// Window returns the temporal window length T.
func (d *Detector) Window() int { return d.temp.Window() }

// EmbedFrames encodes raw pixel frames (rows) and reasons over every KG,
// returning the concatenated per-frame reasoning embeddings f_t
// (rows × ReasoningDim). Gradients flow into the token banks (and GNN
// weights when unfrozen).
//
// The per-mission GNN forwards run concurrently on the shared worker pool
// (one task per KG): the models share only the read-only semantic input,
// each builds its own slice of the computation graph, and the deferred
// Backward remains single-threaded, so the result — values and gradients —
// is identical to the sequential loop.
func (d *Detector) EmbedFrames(pix *tensor.Tensor) *autograd.Value {
	sem := autograd.Constant(d.space.EncodeImageBatch(pix))
	if len(d.gnns) == 1 {
		return d.gnns[0].Forward(sem)
	}
	outs := make([]*autograd.Value, len(d.gnns))
	parallel.For(len(d.gnns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			outs[i] = d.gnns[i].Forward(sem)
		}
	})
	return autograd.ConcatCols(outs...)
}

// ForwardClip runs the full pipeline over a contiguous clip of
// window+batch−1 frames, producing logits for the batch overlapping
// windows. Frame embeddings are computed once and shared across windows,
// which is both faster and exactly what a streaming deployment sees.
func (d *Detector) ForwardClip(clip *tensor.Tensor, batch int) *autograd.Value {
	t := d.temp.Window()
	if clip.Rows() != t+batch-1 {
		panic(fmt.Sprintf("core: clip has %d rows, want window+batch-1 = %d", clip.Rows(), t+batch-1))
	}
	emb := d.EmbedFrames(clip) // (t+batch-1 × D)
	// One Gather stacks every overlapping window row-wise; its scatter-add
	// backward accumulates each frame's gradient over all windows it
	// appears in, exactly as the per-window SliceRows graph did. The
	// stacked matrix then makes a single batched temporal pass.
	rows := make([]int, batch*t)
	for k := 0; k < batch; k++ {
		for i := 0; i < t; i++ {
			rows[k*t+i] = k + i
		}
	}
	wins := autograd.GatherRows(emb, rows)
	return d.head.Logits(d.temp.ForwardBatch(wins, batch))
}

// ScoreVideo scores every frame of a video in inference mode, returning
// per-frame anomaly scores pA. The first window−1 frames are scored with
// a left-padded window (first frame repeated), matching a causal stream
// warm-up.
//
// Scoring runs the eval engine — one tape-free forward per stage (image
// encode → per-KG GNN → temporal in-projection and block → decision head
// → calibrated softmax), written once over the element width — at the
// width the configured Precision resolves to. Every stage shares its
// forward arithmetic with the autograd op that trains it, so at float64
// the scores are exactly what the tape composition (ForwardClip and
// friends) would produce. The engine computes only the rows a frame
// reaches on the way to its score: in each KG's GNN the rows its sensor
// row has reached by each layer (the rest are the GNN's eval memo, built
// once per token-bank state by Deploy and the adapter), one in-projection
// per frame rather than one per window row, and the temporal stage's
// final block past its K/V for the last position of each window only.
// Those ops are row-wise, so a frame costs the tape's count less the rows
// it does not run, at either width.
//
// Frame windows are scored in batched temporal passes: the window matrix
// of projected rows is assembled concurrently on the shared worker pool
// (each task fills disjoint rows), and the batched attention/matmul
// kernels fan out over the same pool inside each temporal pass. Long
// videos are processed in fixed-size window chunks, each in-projecting
// its frames and up to T−1 predecessors, so the temporal stage's
// projected rows, stacked windows, attention weights and activations stay
// bounded by the chunk size (the per-frame embedding matrix remains
// O(video length) — the GNN stage runs over the whole video first). Each window's block is computed exactly as
// in the sequential per-window loop — and identically at any chunking —
// so the output is deterministic at any worker count.
//
// ScoreVideo is safe for concurrent callers over one frozen, deployed
// detector: the forward path is read-only (the per-model bank and layout
// caches are mutex-guarded, the per-width weight snapshots are built once
// under benign CAS races), and the SetTraining re-assertion below stays
// a pure read when the model is already in inference mode. The contract
// is that nobody concurrently trains the model or toggles it back to
// training mode — which Deploy establishes and the serving runtime
// preserves.
func (d *Detector) ScoreVideo(frames *tensor.Tensor) []float64 {
	if d.cfg.Precision.Resolve() == PrecisionF32 {
		return scoreVideo[float32](d, frames)
	}
	return scoreVideo[float64](d, frames)
}

func scoreVideo[T tensor.Float](d *Detector, frames *tensor.Tensor) []float64 {
	d.SetTraining(false)
	n := frames.Rows()
	if n == 0 {
		return nil
	}
	t := d.temp.Window()
	ws := tensor.NewWorkspace()
	defer ws.Release()
	emb := embedFramesEval[T](ws, d, frames)
	// 256 windows ≈ a few MB of stacked activations at the paper's model
	// shape — large enough to amortise the batched pass, small enough for
	// edge memory budgets.
	const chunk = 256
	scores := make([]float64, n)
	for base := 0; base < n; base += chunk {
		b := n - base
		if b > chunk {
			b = chunk
		}
		cws := tensor.NewWorkspace()
		// The chunk's windows read its own frames and up to T−1
		// predecessors; each of those is in-projected once.
		first := max(base-(t-1), 0)
		frames := emb
		if first > 0 || base+b < n {
			c := emb.Cols()
			frames = tensor.FromSlice(emb.Data()[first*c:(base+b)*c], base+b-first, c)
		}
		proj := temporal.ProjectEval(cws, d.temp, frames)
		wins := tensor.Alloc[T](cws, b*t, proj.Cols())
		// A served frame is b = 1: fill it inline rather than pay a heap
		// closure for a parallel.For that would run inline anyway.
		const grain = 8
		if parallel.Inline(b, grain) {
			fillWindows(wins, proj, base, first, t, 0, b)
		} else {
			parallel.For(b, grain, func(lo, hi int) { fillWindows(wins, proj, base, first, t, lo, hi) })
		}
		scoreWindows(cws, d, wins, scores[base:base+b])
		cws.Release()
	}
	return scores
}

// scoreFrames scores each row of batch as its own one-frame video over the
// static window Adapter.forwardFrames builds (the frame's projected row
// repeated T times). It runs the engine's stages at float64 whatever
// Precision resolves to, because adaptation is float64, and takes the
// batch in one unchunked pass, like the tape. Every stage shares its
// arithmetic with the tape, so score i is exactly 1 − p0 of row i of
// SoftmaxRows(Scale(forwardFrames(batch), 1/T)), and the pass bills the
// tape's count less the rows the engine skips. The detector must be in
// inference mode.
func scoreFrames(d *Detector, batch *tensor.Tensor) []float64 {
	ws := tensor.NewWorkspace()
	defer ws.Release()
	scores := make([]float64, batch.Rows())
	scoreFramesIn(ws, d, batch, scores)
	return scores
}

// scoreFramesIn is scoreFrames lending its activations from ws; it writes
// row i's score into scores[i].
func scoreFramesIn(ws *tensor.Workspace, d *Detector, batch *tensor.Tensor, scores []float64) {
	b, t := batch.Rows(), d.temp.Window()
	proj := temporal.ProjectEval(ws, d.temp, embedFramesEval[float64](ws, d, batch))
	wins := tensor.Alloc[float64](ws, b*t, proj.Cols())
	for i := 0; i < b; i++ {
		for k := 0; k < t; k++ {
			copy(wins.Row(i*t+k), proj.Row(i))
		}
	}
	scoreWindows(ws, d, wins, scores)
}

// ScoreFrames scores each row of batch as its own one-frame video over a
// static window, at float64 whatever Precision resolves to: the scores the
// adapter's loss gate reads (Sample.GateScore). At float64 a one-frame
// ScoreVideo of row i returns exactly score i.
func (d *Detector) ScoreFrames(batch *tensor.Tensor) []float64 {
	d.SetTraining(false)
	return scoreFrames(d, batch)
}

// scoreWindows is the engine's tail over len(scores) stacked windows of
// projected rows: the temporal block, the decision head and the calibrated
// softmax. It writes each window's anomaly score pA = 1 − p0 into scores.
func scoreWindows[T tensor.Float](ws *tensor.Workspace, d *Detector, wins *tensor.Dense[T], scores []float64) {
	logits := decision.LogitsEval(ws, d.head, temporal.WindowsEval(ws, d.temp, wins, len(scores)))
	probs := tensor.SoftmaxRowsIn(ws, tensor.ScaleInPlace(logits, T(1/d.ScoreTemperature())))
	for i := range scores {
		scores[i] = 1 - float64(probs.At2(i, 0))
	}
}

// fillWindows writes windows [lo, hi) of the chunk starting at frame base
// into wins: window i's T rows are the projected rows of frames
// base+i−T+1 … base+i, left-padded with frame 0. proj's row 0 is frame
// first.
func fillWindows[T tensor.Float](wins, proj *tensor.Dense[T], base, first, t, lo, hi int) {
	for i := lo; i < hi; i++ {
		for k := 0; k < t; k++ {
			copy(wins.Row(i*t+k), proj.Row(max(base+i-(t-1)+k, 0)-first))
		}
	}
}

// embedFramesEval is EmbedFrames without the tape, at width T. The
// per-mission forwards fan out on the shared worker pool exactly like
// the tape path.
func embedFramesEval[T tensor.Float](ws *tensor.Workspace, d *Detector, pix *tensor.Tensor) *tensor.Dense[T] {
	sem := embed.EncodeImageBatchEval[T](ws, d.space, pix)
	if len(d.gnns) == 1 {
		return gnn.ForwardEval(ws, d.gnns[0], sem)
	}
	// A Workspace is not safe for concurrent use: each KG's task lends from
	// its own, released once ConcatCols has copied the outputs out.
	outs := make([]*tensor.Dense[T], len(d.gnns))
	wss := make([]*tensor.Workspace, len(d.gnns))
	parallel.For(len(d.gnns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			wss[i] = tensor.NewWorkspace()
			outs[i] = gnn.ForwardEval(wss[i], d.gnns[i], sem)
		}
	})
	emb := tensor.ConcatCols(outs...)
	for _, w := range wss {
		w.Release()
	}
	return emb
}

// ScoreTemperature returns the deployment calibration temperature (≥1 in
// practice; 1 when unset).
func (d *Detector) ScoreTemperature() float64 {
	if d.cfg.ScoreTemperature > 0 {
		return d.cfg.ScoreTemperature
	}
	return 1
}

// SetTraining toggles BatchNorm mode across the pipeline.
// Entering training mode also drops the decision head's eval snapshots
// (the GNN and temporal models drop their own); the re-assert of
// inference mode stays a pure read for concurrent scorers.
func (d *Detector) SetTraining(t bool) {
	if t {
		d.head.DropEval()
	}
	for _, m := range d.gnns {
		m.SetTraining(t)
	}
	d.temp.SetTraining(t)
}

// Params returns every weight of the trainable models (GNN dense/BN,
// temporal, head) excluding the token banks.
func (d *Detector) Params() []nn.Param {
	var ps []nn.Param
	for i, m := range d.gnns {
		ps = append(ps, nn.Prefix(fmt.Sprintf("gnn%d", i), m.Params())...)
	}
	ps = append(ps, nn.Prefix("temporal", d.temp.Params())...)
	ps = append(ps, nn.Prefix("head", d.head.Params())...)
	return ps
}

// TokenParams returns the KG token-bank parameters across all graphs —
// the only weights deployment-time adaptation updates.
func (d *Detector) TokenParams() []nn.Param {
	var ps []nn.Param
	for i, m := range d.gnns {
		ps = append(ps, nn.Prefix(fmt.Sprintf("gnn%d", i), m.TokenParams())...)
	}
	return ps
}

// Deploy freezes the entire model — weights and token banks — and
// switches to inference mode: the state of Fig. 2(C) "Froze Model" before
// adaptation begins. It also builds every KG's eval memo at the serving
// width (gnn.WarmEval), billed to the caller, so no served frame pays for
// it: the frames a deployment, a restore or a rehydration serves next cost
// what an uninterrupted stream's do.
func (d *Detector) Deploy() {
	nn.Freeze(d.Params())
	nn.Freeze(d.TokenParams())
	d.SetTraining(false)
	d.warmEval(d.cfg.Precision.Resolve())
}

// warmEval builds every KG's eval memo at width p unless it still matches.
// The detector must be in inference mode.
func (d *Detector) warmEval(p Precision) {
	for _, m := range d.gnns {
		if p == PrecisionF32 {
			gnn.WarmEval[float32](m)
		} else {
			gnn.WarmEval[float64](m)
		}
	}
}

// EnableAdaptation unfreezes only the token banks ("Unfroze Model" in
// Fig. 2(C) applies solely to the KG token embeddings).
func (d *Detector) EnableAdaptation() {
	nn.Freeze(d.Params())
	nn.Unfreeze(d.TokenParams())
	d.SetTraining(false)
}

// UnfreezeAll restores full trainability (pre-deployment training mode).
func (d *Detector) UnfreezeAll() {
	nn.Unfreeze(d.Params())
	nn.Unfreeze(d.TokenParams())
	d.SetTraining(true)
}
