package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"edgekg/internal/autograd"
	"edgekg/internal/kg"
	"edgekg/internal/nn"
	"edgekg/internal/optim"
	"edgekg/internal/tensor"
)

// AdaptConfig controls the continuous KG adaptive learning loop.
type AdaptConfig struct {
	// LR is the token-embedding learning rate.
	LR float64
	// Epochs is how many gradient steps each adaptation round applies to
	// the selected samples.
	Epochs int
	// NormalAnchors is how many low-score window samples are pulled
	// toward score 0 alongside the top-K pulled toward 1; it regularises
	// token updates against degenerate "everything is anomalous"
	// solutions.
	NormalAnchors int
	// Patience is the number of consecutive increases of a node's update
	// distance before it is declared diverging and pruned. Patience 1 is
	// the paper's literal rule; the default of 3 tolerates single noisy
	// steps.
	Patience int
	// EdgeProb is the probability of each feasible random edge when a
	// replacement node is created (Fig. 4C).
	EdgeProb float64
	// CreatedTokens is the number of random token embeddings a created
	// node receives.
	CreatedTokens int
	// SemanticPull couples each token row's task-gradient magnitude to a
	// rotation toward the mean pseudo-anomaly embedding. The paper's
	// 1024-dimensional joint space lets input-space alignment emerge from
	// task gradients alone; this repository's miniature space loses that
	// rank through the frozen dense layers, and the pull restores the
	// "tokens drift toward the new anomaly's concepts" behaviour that
	// Fig. 6 visualises. 0 disables it.
	SemanticPull float64
	// MinDrop gates adaptation: a round only engages when the windowed
	// mean has dropped by more than this amount (Δm < −MinDrop). It
	// suppresses pseudo-label churn in steady state, where score noise
	// would otherwise trigger spurious token updates.
	MinDrop float64
	// MaxKFrac caps the pseudo-anomalies consumed per round at this
	// fraction of the monitor window. K = |Δm|·N can overshoot the true
	// anomaly count after a large mean drop; labelling normal frames as
	// anomalies inverts scores, which inflates |Δm| further — a runaway.
	// The cap keeps selection precision-first. 0 disables the cap.
	MaxKFrac float64
	// SkipLossBelow abandons a round whose selection loss is already
	// below this value: the pseudo-labels are satisfied and further
	// updates would only inject label noise into a recovered model.
	// 0 disables the gate. The probe reads each selected sample's gate
	// score (Sample.GateScore) and scores only the samples without one, on
	// the float64 eval engine with no tape; either way its loss matches
	// the tape loss the epochs train on to the bit. A selection whose
	// every sample has a gate score is probed without scoring anything.
	SkipLossBelow float64
}

// DefaultAdaptConfig returns the adaptation settings used by the
// experiment suite.
func DefaultAdaptConfig() AdaptConfig {
	return AdaptConfig{
		LR:            0.02,
		Epochs:        2,
		NormalAnchors: 8,
		Patience:      3,
		EdgeProb:      0.5,
		CreatedTokens: 2,
		SemanticPull:  0.2,
		MinDrop:       0.02,
		MaxKFrac:      0.25,
		SkipLossBelow: 0.08,
	}
}

// AdaptReport records what one adaptation round did; it is immutable once
// Step returned it. It is also the report section of a checkpointed pending
// round, hence the bit-pattern floats: a diverged round can carry a NaN
// loss or node distance, and a checkpoint save must survive that.
type AdaptReport struct {
	// Triggered is false when the monitor saw no mean drop (K = 0) and
	// nothing was updated.
	Triggered bool `json:"triggered"`
	// K is the pseudo-anomaly count selected by the monitor.
	K int `json:"k"`
	// DeltaM is the mean shift that triggered selection.
	DeltaM tensor.F64Bits `json:"delta_m"`
	// Loss is the final adaptation loss over the selected samples.
	Loss tensor.F64Bits `json:"loss"`
	// NodeDistances maps graph index → node → L2 update distance.
	NodeDistances []map[kg.NodeID]tensor.F64Bits `json:"node_distances,omitempty"`
	// Pruned and Created list structural changes per graph.
	Pruned  []kg.NodeID `json:"pruned,omitempty"`
	Created []kg.NodeID `json:"created,omitempty"`
	// Gate names where Step stopped. It is not part of a checkpoint: a
	// report read back from one has the zero value, GateUnrecorded.
	Gate Gate `json:"-"`
	// Positives and Anchors are the Seqs of the frames a triggered round
	// selected: the pseudo-anomalies left after the MaxKFrac cap, and the
	// normal anchors. They are set also when SkipLossBelow stops the
	// round and, like Gate, are not part of a checkpoint.
	Positives []int `json:"-"`
	Anchors   []int `json:"-"`
}

// Gate is where Adapter.Step stopped, in the order it tests.
type Gate uint8

const (
	// GateUnrecorded: the report did not come from Step (a checkpointed
	// pending round's report comes back without its gate).
	GateUnrecorded Gate = iota
	// GateNotReady: the monitor's window was not full yet.
	GateNotReady
	// GateNoDrop: the monitor selected no pseudo-anomalies (K = 0).
	GateNoDrop
	// GateMinDrop: the mean dropped by no more than MinDrop.
	GateMinDrop
	// GateSkipLoss: the selection loss was already below SkipLossBelow.
	GateSkipLoss
	// GateTrained: the round ran its epochs and the convergence test.
	GateTrained
)

// Adapter performs continuous KG adaptive learning on a deployed
// detector. Construct it after Detector.EnableAdaptation; it owns the
// token-embedding optimiser and the per-node convergence trackers.
//
// After every optimiser step each token row is rescaled to its original
// norm: the joint space is directional (word vectors are unit), so
// adaptation should rotate embeddings toward new concepts rather than
// inflate them — unconstrained ascent grows magnitudes, which distorts
// both the Euclidean convergence test and interpretable retrieval.
type Adapter struct {
	det *Detector
	cfg AdaptConfig
	rng *rand.Rand

	opt *optim.AdamW
	// params caches the token-bank parameters the optimiser manages, in
	// its order, under their Detector.TokenParams names (the keys of the
	// moments in AdapterState); it is rebuilt alongside the optimiser
	// whenever the KG structure changes.
	params   []nn.Param
	trackers []map[kg.NodeID]*TrackerState
	rowNorms []map[kg.NodeID]tensor.Floats
	created  int
}

// NewAdapter prepares the detector for adaptation (freezing everything
// but token banks) and returns the adapter.
func NewAdapter(det *Detector, cfg AdaptConfig, rng *rand.Rand) (*Adapter, error) {
	if cfg.LR <= 0 || cfg.Epochs < 1 {
		return nil, fmt.Errorf("core: adapt config lr %v epochs %d invalid", cfg.LR, cfg.Epochs)
	}
	if cfg.Patience < 1 {
		return nil, fmt.Errorf("core: patience %d must be ≥1", cfg.Patience)
	}
	det.EnableAdaptation()
	a := &Adapter{det: det, cfg: cfg, rng: rng}
	a.warm()
	a.rebuildOptimizer()
	a.trackers = make([]map[kg.NodeID]*TrackerState, det.NumGNNs())
	a.rowNorms = make([]map[kg.NodeID]tensor.Floats, det.NumGNNs())
	for i := range a.trackers {
		a.trackers[i] = make(map[kg.NodeID]*TrackerState)
		a.rowNorms[i] = make(map[kg.NodeID]tensor.Floats)
	}
	for gi, m := range det.gnns {
		for _, id := range m.Tokens().NodeIDs() {
			a.rowNorms[gi][id] = bankRowNorms(m.Tokens().Bank(id).Data)
		}
	}
	return a, nil
}

// bankRowNorms records each row's Euclidean norm.
func bankRowNorms(bank *tensor.Tensor) []float64 {
	out := make([]float64, bank.Rows())
	for i := range out {
		s := 0.0
		for _, v := range bank.Row(i) {
			s += v * v
		}
		out[i] = math.Sqrt(s)
	}
	return out
}

// renormalize rescales every token row back to its recorded norm. Rows
// already at their target norm are skipped outright: the skip is bit-exact
// (cur is computed by the same code that recorded the norm, so an
// untouched row reproduces it to the last bit and scale is exactly 1) and
// it keeps renormalization write-free on banks the optimizer left alone —
// which is what preserves their copy-on-write sharing across rounds.
func (a *Adapter) renormalize() {
	for gi, m := range a.det.gnns {
		for _, id := range m.Tokens().NodeIDs() {
			norms, ok := a.rowNorms[gi][id]
			if !ok {
				continue
			}
			bv := m.Tokens().Bank(id)
			bank := bv.Data
			for r := 0; r < bank.Rows() && r < len(norms); r++ {
				row := bank.Row(r)
				s := 0.0
				for _, v := range row {
					s += v * v
				}
				cur := math.Sqrt(s)
				if cur < 1e-12 || norms[r] == 0 {
					continue
				}
				scale := norms[r] / cur
				if scale == 1 {
					continue
				}
				// First real write to a COW-shared page: take a private
				// copy and re-fetch the row from the new tensor.
				if bv.EnsurePrivate() {
					bank = bv.Data
					row = bank.Row(r)
				}
				for j := range row {
					row[j] *= scale
				}
			}
		}
	}
}

func (a *Adapter) rebuildOptimizer() {
	cfg := optim.AdamWConfig{LR: a.cfg.LR, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0}
	a.params = a.det.TokenParams()
	a.opt = optim.NewAdamW(nn.Values(a.params), cfg)
}

// Step runs one adaptation round against the monitor's current window:
// select top-K as pseudo-anomalies (plus NormalAnchors low-score frames
// as normals), update token embeddings only, test every node's update
// distance for divergence, and prune + re-create diverging nodes.
func (a *Adapter) Step(mon *Monitor) (AdaptReport, error) {
	// Adaptation operates on the frozen, inference-mode pipeline
	// (EnableAdaptation sets this up): only token embeddings may move, and a
	// training-mode forward would also move the BatchNorm running
	// statistics. Re-assert the mode in case a caller toggled training since
	// construction.
	a.det.SetTraining(false)
	dm := mon.DeltaM()
	rep := AdaptReport{DeltaM: tensor.F64Bits(dm), K: mon.K()}
	rep.NodeDistances = make([]map[kg.NodeID]tensor.F64Bits, a.det.NumGNNs())
	for i := range rep.NodeDistances {
		rep.NodeDistances[i] = make(map[kg.NodeID]tensor.F64Bits)
	}
	switch {
	case !mon.Ready():
		rep.Gate = GateNotReady
	case rep.K == 0:
		rep.Gate = GateNoDrop
	case dm >= -a.cfg.MinDrop:
		rep.Gate = GateMinDrop
	default:
		rep.Gate, rep.Triggered = GateTrained, true
	}
	if !rep.Triggered {
		return rep, nil
	}

	positives := mon.TopK()
	if a.cfg.MaxKFrac > 0 {
		if maxK := int(a.cfg.MaxKFrac * float64(mon.N())); maxK >= 1 && len(positives) > maxK {
			positives = positives[:maxK]
		}
	}
	negatives := mon.BottomK(a.cfg.NormalAnchors)
	// TopK's slice is fresh and window-sized, so the anchors usually fit
	// behind the positives without an allocation.
	sel := append(positives, negatives...)
	targets := make([]float64, len(sel))
	seqs := make([]int, len(sel))
	for i, s := range sel {
		if i < len(positives) {
			targets[i] = 1
		}
		seqs[i] = s.Seq
	}
	rep.Positives, rep.Anchors = seqs[:len(positives):len(positives)], seqs[len(positives):]

	// Loss gate: if the selected pseudo-labels are already satisfied, the
	// model has recovered for this regime — adapting further would only
	// fit selection noise.
	if a.cfg.SkipLossBelow > 0 {
		if a.probeLoss(sel, targets) < a.cfg.SkipLossBelow {
			rep.Triggered, rep.Gate = false, GateSkipLoss
			return rep, nil
		}
	}
	frames := make([]*tensor.Tensor, len(sel))
	for i, s := range sel {
		frames[i] = s.Pix()
	}
	batch := stackFrames(frames)

	// Snapshot token banks before the update ("old token embeddings"). The
	// copy is read-only, so it is also epoch 0's "before".
	before := a.banks(true)

	// The semantic pull anchors on the *contrast* between pseudo-anomalies
	// and normal anchors: the shared scene background cancels, leaving the
	// direction of the new anomaly's distinguishing concepts.
	var pullDir *tensor.Tensor
	if a.cfg.SemanticPull > 0 && len(positives) > 0 {
		meanOf := func(samples []Sample) *tensor.Tensor {
			acc := tensor.New(a.det.space.Dim())
			for _, s := range samples {
				pix := s.Pix()
				sem := a.det.space.EncodeImage(pix.Reshape(pix.Size()))
				tensor.AddInPlace(acc, sem)
			}
			return tensor.ScaleInPlace(acc, 1/float64(len(samples)))
		}
		dir := meanOf(positives)
		if len(negatives) > 0 {
			dir = tensor.Sub(dir, meanOf(negatives))
		}
		pullDir = tensor.Normalize(dir)
	}

	invT := 1 / a.det.ScoreTemperature()
	for e := 0; e < a.cfg.Epochs; e++ {
		epochBefore := before
		if e > 0 {
			epochBefore = a.banks(true)
		}
		rep.Loss = tensor.F64Bits(a.epochStep(batch, targets, invT))
		if pullDir != nil {
			a.applySemanticPull(epochBefore, pullDir)
		}
		a.renormalize()
	}

	// Convergence test per node (Fig. 4): L2 distance between the old and
	// updated token embeddings; an increasing sequence marks divergence.
	for gi, m := range a.det.gnns {
		bank := m.Tokens()
		for _, id := range bank.NodeIDs() {
			old, ok := before[gi][id]
			if !ok {
				continue
			}
			dist := tensor.L2Distance(old, bank.Bank(id).Data)
			rep.NodeDistances[gi][id] = tensor.F64Bits(dist)
			tr := a.trackers[gi][id]
			if tr == nil {
				tr = &TrackerState{}
				a.trackers[gi][id] = tr
			}
			if tr.HasLast && dist > float64(tr.LastDist) {
				tr.IncStreak++
			} else {
				tr.IncStreak = 0
			}
			tr.LastDist = tensor.F64Bits(dist)
			tr.HasLast = true

			if tr.IncStreak >= a.cfg.Patience {
				pruned, createdID, err := a.replaceNode(gi, id)
				if err != nil {
					return rep, err
				}
				rep.Pruned = append(rep.Pruned, pruned)
				rep.Created = append(rep.Created, createdID)
			}
		}
	}
	return rep, nil
}

// epochStep applies one token-embedding gradient step over the selected
// samples — zero the gradients, forward the batch through the frozen
// pipeline, temperature-scaled pseudo-label loss, backward, one AdamW
// update — and returns the batch's mean loss.
func (a *Adapter) epochStep(batch *tensor.Tensor, targets []float64, invT float64) float64 {
	a.opt.ZeroGrad()
	loss := autograd.BinaryScoreLoss(autograd.Scale(a.forwardFrames(batch), invT), targets)
	loss.Backward()
	a.opt.Step()
	return loss.Scalar()
}

// probeLoss is the loss gate's selection loss, Σ(pA_i − target_i)²/r in
// target order over the selection's static-window scores. A sample's score
// is its gate score when it has one; the samples without one are scored in
// one batch on the eval engine, so no tape is built for a round the gate
// may stop. Either way the loss has the bits of BinaryScoreLoss over the
// tape's temperature-scaled logits, the loss epochStep trains on.
func (a *Adapter) probeLoss(sel []Sample, targets []float64) float64 {
	var scored []float64
	ungated := 0
	for _, s := range sel {
		if _, ok := s.GateScore(); !ok {
			ungated++
		}
	}
	if ungated > 0 {
		ws := tensor.NewWorkspace()
		defer ws.Release()
		batch := tensor.Alloc[float64](ws, ungated, a.det.space.PixDim())
		r := 0
		for i, s := range sel {
			if _, ok := s.GateScore(); !ok {
				copyFrame(batch.Row(r), s, i)
				r++
			}
		}
		scored = tensor.Scratch[float64](ws, ungated)
		scoreFramesIn(ws, a.det, batch, scored)
	}
	loss := 0.0
	for i, s := range sel {
		score, ok := s.GateScore()
		if !ok {
			score, scored = scored[0], scored[1:]
		}
		d := score - targets[i]
		loss += d * d
	}
	return loss / float64(len(targets))
}

// Rescore brings what the detector derives from its token banks up to the
// current ones. It rebuilds the eval memos (see warm), and gives every
// sample in mon's window its gate score (Sample.GateScore), scoring the
// window in one batch on the eval engine; a monitor that does not track
// gate scores gets none. Call it whenever the banks change: after a round
// that trained, and after the banks were restored.
func (a *Adapter) Rescore(mon *Monitor) {
	a.det.SetTraining(false)
	a.warm()
	n := mon.buf.n
	if !mon.gates || n == 0 {
		return
	}
	ws := tensor.NewWorkspace()
	defer ws.Release()
	batch := tensor.Alloc[float64](ws, n, a.det.space.PixDim())
	for i := 0; i < n; i++ {
		copyFrame(batch.Row(i), *mon.buf.at(i), i)
	}
	scores := tensor.Scratch[float64](ws, n)
	scoreFramesIn(ws, a.det, batch, scores)
	for i, s := range scores {
		mon.buf.at(i).gate = s
	}
}

// warm builds the eval memos the detector reads until its banks next
// change: at the serving width for the frames, and at float64 for the
// loss gate's probe. Neither a served frame nor a round's probe then
// rebuilds one, so what they bill does not depend on whether the stream
// was restored since its banks last changed.
func (a *Adapter) warm() {
	a.det.warmEval(PrecisionF64)
	if p := a.det.cfg.Precision.Resolve(); p != PrecisionF64 {
		a.det.warmEval(p)
	}
}

// copyFrame copies sample i's frame into a batch row.
func copyFrame(row []float64, s Sample, i int) {
	f := s.Pix()
	if f.Size() != len(row) {
		panic(fmt.Sprintf("core: frame %d has %d values, the batch takes %d", i, f.Size(), len(row)))
	}
	copy(row, f.Data())
}

// replaceNode prunes a diverging node and creates a random replacement at
// the same level (Fig. 4B→4C), resynchronising model structures.
func (a *Adapter) replaceNode(gi int, id kg.NodeID) (kg.NodeID, kg.NodeID, error) {
	m := a.det.gnns[gi]
	g := m.Graph()
	a.created++
	name := fmt.Sprintf("created-%d", a.created)
	fresh, err := g.ReplaceNode(a.rng, id, name, nil, a.cfg.EdgeProb)
	if err != nil {
		return 0, 0, fmt.Errorf("core: replacing node %d in graph %d: %w", id, gi, err)
	}
	if err := m.Rebind(); err != nil {
		return 0, 0, fmt.Errorf("core: rebind after replace: %w", err)
	}
	// Random token embedding for the created node (Fig. 4C), overriding
	// the text-derived default SyncWith installed.
	rows := make([]*tensor.Tensor, a.cfg.CreatedTokens)
	for i := range rows {
		rows[i] = tensor.RandUnitVector(a.rng, m.Tokens().Dim()).Reshape(1, m.Tokens().Dim())
	}
	m.Tokens().Install(fresh.ID, tensor.ConcatRows(rows...))
	delete(a.trackers[gi], id)
	delete(a.rowNorms[gi], id)
	a.trackers[gi][fresh.ID] = &TrackerState{}
	a.rowNorms[gi][fresh.ID] = bankRowNorms(m.Tokens().Bank(fresh.ID).Data)
	// Structure changed: the optimiser's moment buffers no longer line up.
	a.rebuildOptimizer()
	a.det.EnableAdaptation()
	return id, fresh.ID, nil
}

// applySemanticPull rotates every token row toward the pseudo-anomaly
// direction proportionally to how far the task gradient just moved it:
// rows the optimiser left alone stay put, rows that responded drift
// toward the concepts present in the selected frames.
func (a *Adapter) applySemanticPull(before []map[kg.NodeID]*tensor.Tensor, dir *tensor.Tensor) {
	for gi, m := range a.det.gnns {
		for _, id := range m.Tokens().NodeIDs() {
			old, ok := before[gi][id]
			if !ok {
				continue
			}
			bv := m.Tokens().Bank(id)
			bank := bv.Data
			rows := bank.Rows()
			if old.Rows() != rows {
				continue
			}
			for r := 0; r < rows; r++ {
				row := bank.Row(r)
				orow := old.Row(r)
				delta := 0.0
				for j := range row {
					d := row[j] - orow[j]
					delta += d * d
				}
				delta = math.Sqrt(delta)
				if delta == 0 {
					// Untouched row: no write, so a COW-shared page (one
					// the optimizer never updated) stays shared.
					continue
				}
				if bv.EnsurePrivate() {
					bank = bv.Data
					row = bank.Row(r)
				}
				step := a.cfg.SemanticPull * delta
				for j := range row {
					row[j] += step * dir.Data()[j]
				}
			}
		}
	}
}

// banks returns every node's token matrix, per graph: the live tensors, or
// deep copies of them (the "old token embeddings" a round compares against).
func (a *Adapter) banks(copies bool) []map[kg.NodeID]*tensor.Tensor {
	out := make([]map[kg.NodeID]*tensor.Tensor, len(a.det.gnns))
	for gi, m := range a.det.gnns {
		out[gi] = make(map[kg.NodeID]*tensor.Tensor)
		for _, id := range m.Tokens().NodeIDs() {
			out[gi][id] = m.Tokens().Bank(id).Data
			if copies {
				out[gi][id] = out[gi][id].Clone()
			}
		}
	}
	return out
}

// forwardFrames scores individual frames through the frozen pipeline with
// a static temporal window (each frame repeated T times). Adaptation
// operates on the monitor's individual data points; the static window is
// the steady-state limit of a stream showing that frame.
func (a *Adapter) forwardFrames(batch *tensor.Tensor) *autograd.Value {
	emb := a.det.EmbedFrames(batch)
	t := a.det.Window()
	b := batch.Rows()
	// One Gather replicates each frame's embedding into a static T-row
	// window; the scatter-add backward sums each frame's gradient over its
	// T copies, exactly as the per-window SliceRows/ConcatRows graph did.
	rows := make([]int, b*t)
	for k := 0; k < b; k++ {
		for i := 0; i < t; i++ {
			rows[k*t+i] = k
		}
	}
	wins := autograd.GatherRows(emb, rows)
	return a.det.Head().Logits(a.det.Temporal().ForwardBatch(wins, b))
}

// stackFrames stacks the selected frames into a batch, one frame a row.
func stackFrames(frames []*tensor.Tensor) *tensor.Tensor {
	out := tensor.New(len(frames), frames[0].Size())
	for i, f := range frames {
		if f.Size() != out.Cols() {
			panic(fmt.Sprintf("core: frame %d has %d values, frame 0 has %d", i, f.Size(), out.Cols()))
		}
		copy(out.Row(i), f.Data())
	}
	return out
}

// TrackerState follows one node's update-distance sequence (Fig. 4A→4B
// decision): a node whose distance grows IncStreak ≥ Patience times in a
// row is diverging. The adapter's live tracker and its checkpoint form.
type TrackerState struct {
	LastDist  tensor.F64Bits `json:"last_dist"`
	HasLast   bool           `json:"has_last"`
	IncStreak int            `json:"inc_streak"`
}

// AdapterState is the adapter's complete mutable state and its section of
// the checkpoint: convergence trackers, token-row norm targets, the
// created-node counter, and the AdamW moment buffers keyed by
// token-parameter name. Together with the detector's restored token banks
// and the adapter's RNG state it resumes the learning loop bit-exactly.
type AdapterState struct {
	Created  int                           `json:"created"`
	Trackers []map[kg.NodeID]TrackerState  `json:"trackers"`
	RowNorms []map[kg.NodeID]tensor.Floats `json:"row_norms"`
	OptStep  int                           `json:"opt_step"`
	OptM     map[string]*tensor.Tensor     `json:"opt_m"`
	OptV     map[string]*tensor.Tensor     `json:"opt_v"`
}

// tokenParamName is the name Detector.TokenParams gives graph gi's bank of
// node id — the key of its moments in AdapterState.
func tokenParamName(gi int, id kg.NodeID) string {
	return fmt.Sprintf("gnn%d.tokens.node%d", gi, id)
}

// ExportState describes the adapter's full state without copying it: the
// row norms and the optimiser's moment buffers are the live ones (a moment
// the optimiser has not allocated yet reads as a shared zero tensor, so the
// checkpoint format is unchanged and the export materializes no per-stream
// buffers), and only the trackers are read out, by value. The result is
// valid until the adapter is next written (its next Step or ImportState);
// encode it first, and never write through it.
func (a *Adapter) ExportState() AdapterState {
	st := AdapterState{
		Created:  a.created,
		RowNorms: a.rowNorms,
		OptStep:  a.opt.StepCount(),
		OptM:     make(map[string]*tensor.Tensor, len(a.params)),
		OptV:     make(map[string]*tensor.Tensor, len(a.params)),
	}
	for _, trs := range a.trackers {
		out := make(map[kg.NodeID]TrackerState, len(trs))
		for id, tr := range trs {
			out[id] = *tr
		}
		st.Trackers = append(st.Trackers, out)
	}
	m, v := a.opt.Moments()
	for i, p := range a.params {
		if m[i] == nil {
			z := zeroMoment(p.V.Data)
			st.OptM[p.Name], st.OptV[p.Name] = z, z
			continue
		}
		st.OptM[p.Name], st.OptV[p.Name] = m[i], v[i]
	}
	return st
}

// zeroMoments holds one zero tensor per shape, shared by every adapter's
// exports and never written: what ExportState reports for a moment the
// optimiser has not allocated. Token banks come in a handful of shapes
// (tokens per node × the embedding width), so the table stays small.
var (
	zeroMu      sync.Mutex
	zeroMoments = map[[2]int]*tensor.Tensor{}
)

// zeroMoment returns the shared zero tensor of p's (2-D) shape.
func zeroMoment(p *tensor.Tensor) *tensor.Tensor {
	key := [2]int{p.Rows(), p.Cols()}
	zeroMu.Lock()
	defer zeroMu.Unlock()
	if zeroMoments[key] == nil {
		zeroMoments[key] = tensor.New(key[0], key[1])
	}
	return zeroMoments[key]
}

func allZero(t *tensor.Tensor) bool {
	for _, v := range t.Data() {
		if v != 0 {
			return false
		}
	}
	return true
}

// Validate reports whether the state fits a detector whose token banks are
// banks (graph index → node → token matrix, the live detector's or a
// checkpoint's): trackers and row norms per graph, and exactly one pair of
// moment buffers, of the bank's size, per bank. The state may come from
// outside the process; nothing is touched.
func (st *AdapterState) Validate(banks []map[kg.NodeID]*tensor.Tensor) error {
	if len(st.Trackers) != len(banks) || len(st.RowNorms) != len(banks) {
		return fmt.Errorf("core: adapter state covers %d/%d graphs, detector has %d",
			len(st.Trackers), len(st.RowNorms), len(banks))
	}
	params := 0
	for gi, nodes := range banks {
		params += len(nodes)
		for id, bank := range nodes {
			name := tokenParamName(gi, id)
			sm, sv := st.OptM[name], st.OptV[name]
			if sm == nil || sv == nil {
				return fmt.Errorf("core: adapter state missing moments for token param %q", name)
			}
			if sm.Size() != bank.Size() || sv.Size() != bank.Size() {
				return fmt.Errorf("core: adapter state moment shape mismatch for %q: %v/%v vs %v",
					name, sm.Shape(), sv.Shape(), bank.Shape())
			}
		}
	}
	if len(st.OptM) != params || len(st.OptV) != params {
		return fmt.Errorf("core: adapter state has %d/%d moment buffers, detector has %d token params",
			len(st.OptM), len(st.OptV), params)
	}
	return nil
}

// ImportState replaces the adapter's state with a copy of a previously
// exported one. The detector's graphs and token banks must already hold
// their restored state: the saved moments are validated against them (a
// mismatch leaves the adapter untouched) and matched by parameter name to
// an optimizer rebuilt over the current token parameters.
func (a *Adapter) ImportState(st AdapterState) error {
	if err := st.Validate(a.banks(false)); err != nil {
		return err
	}
	a.det.EnableAdaptation()
	a.rebuildOptimizer()
	for i, p := range a.params {
		sm, sv := st.OptM[p.Name], st.OptV[p.Name]
		// All-zero saved moments restore to the lazily-absent state —
		// numerically identical, and a rehydrated unadapted stream keeps
		// its copy-on-write footprint instead of materializing buffers.
		if allZero(sm) && allZero(sv) {
			continue
		}
		m, v := a.opt.EnsureMoment(i)
		copy(m.Data(), sm.Data())
		copy(v.Data(), sv.Data())
	}
	a.opt.SetStepCount(st.OptStep)
	a.created = st.Created
	a.trackers = make([]map[kg.NodeID]*TrackerState, len(st.Trackers))
	a.rowNorms = make([]map[kg.NodeID]tensor.Floats, len(st.RowNorms))
	for gi, trs := range st.Trackers {
		a.trackers[gi] = make(map[kg.NodeID]*TrackerState, len(trs))
		for id, tr := range trs {
			a.trackers[gi][id] = &tr
		}
	}
	for gi, norms := range st.RowNorms {
		a.rowNorms[gi] = make(map[kg.NodeID]tensor.Floats, len(norms))
		for id, ns := range norms {
			a.rowNorms[gi][id] = append(tensor.Floats(nil), ns...)
		}
	}
	return nil
}

// MemBytes estimates the adapter's resident bytes for the memory ledger:
// allocated optimizer moment buffers (lazy — zero until a round actually
// updates a parameter) plus row-norm targets and convergence trackers.
func (a *Adapter) MemBytes() int64 {
	b := a.opt.MomentBytes()
	const trackerOverhead = 64 // TrackerState + map entry
	for gi := range a.rowNorms {
		for _, ns := range a.rowNorms[gi] {
			b += int64(len(ns)) * 8
		}
		b += int64(len(a.trackers[gi])) * trackerOverhead
	}
	return b
}
