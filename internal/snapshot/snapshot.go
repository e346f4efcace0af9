// Package snapshot is the warm-restart checkpoint subsystem: a versioned,
// deterministic serialization of everything a serving stream needs to
// resume bit-exactly after a process restart — the adapted per-stream
// knowledge graphs and token banks, the score monitor's window and
// statistics, the adapter's convergence trackers and AdamW moments, the
// RNG state, frame counters, retained score history, the FLOPs ledger
// totals, and any in-flight asynchronous adaptation round (completed
// before snapshot but not yet swapped in, so the swap still lands at its
// configured frame).
//
// The frozen backbone is deliberately NOT serialized: it is a pure
// function of the training seed (the trainer is pinned
// bit-reproducible), so a restarting process rebuilds it and a checkpoint
// stays the size of the adaptation delta — exactly the paper's split
// between the static deployed model and the continuously adapted KG
// state.
//
// Wire format: one JSON document (encoding/json emits struct fields in
// declaration order and sorts map keys, so serialization is
// deterministic) with every float64 buffer encoded as base64 IEEE-754
// bit patterns for bit-exact round-trips. Files are written
// temp-then-rename so a crash mid-write never corrupts the previous good
// checkpoint, and a format/version header fails loudly on mismatch.
package snapshot

import (
	"encoding/json"
	"fmt"

	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/kg"
	"edgekg/internal/tensor"
)

// Format identifies checkpoint files; Version is the wire format version.
// Load rejects anything that does not match exactly — a warm restart must
// never silently reinterpret foreign or stale bytes as adaptation state.
const (
	Format  = "edgekg-checkpoint"
	Version = 1
)

// Checkpoint is one serialized deployment: every stream's complete
// adaptation state.
type Checkpoint struct {
	Format  string        `json:"format"`
	Version int           `json:"version"`
	Streams []StreamState `json:"streams"`
}

// New returns an empty checkpoint with the current format header and n
// stream slots.
func New(n int) *Checkpoint {
	return &Checkpoint{Format: Format, Version: Version, Streams: make([]StreamState, n)}
}

// Validate checks the format header. It is called by Load and by the
// restore entry points, so a checkpoint assembled by hand is checked too.
func (cp *Checkpoint) Validate() error {
	if cp.Format != Format {
		return fmt.Errorf("snapshot: not an %s file (format %q)", Format, cp.Format)
	}
	if cp.Version != Version {
		return fmt.Errorf("snapshot: checkpoint format version %d, this build reads version %d", cp.Version, Version)
	}
	return nil
}

// ConfigPin records the stream configuration a checkpoint was taken under.
// Restore validates it against the target stream's configuration: resuming
// under a different monitor window or adaptation cadence would silently
// change the trajectory, so it fails loudly instead.
type ConfigPin struct {
	MonitorN          int  `json:"monitor_n"`
	MonitorLag        int  `json:"monitor_lag"`
	AnchoredReference bool `json:"anchored_reference"`
	AdaptEveryFrames  int  `json:"adapt_every_frames"`
	AdaptLagFrames    int  `json:"adapt_lag_frames"`
	ScoreHistory      int  `json:"score_history"`
}

// StreamState is one stream's complete serialized adaptation state.
type StreamState struct {
	ID     int       `json:"id"`
	Config ConfigPin `json:"config"`

	// Released marks a tombstone: the slot's stream was migrated or failed
	// over to another worker and its state permanently dropped here. A
	// tombstone carries only the counters (for post-hoc stats); restoring
	// one releases the target slot instead of installing state.
	Released bool `json:"released,omitempty"`

	Frames          int    `json:"frames"`
	AdaptRounds     int    `json:"adapt_rounds"`
	TriggeredRounds int    `json:"triggered_rounds"`
	PrunedNodes     int    `json:"pruned_nodes"`
	CreatedNodes    int    `json:"created_nodes"`
	LastErr         string `json:"last_err,omitempty"`

	// RNG is the stream's SplitMix64 adapter-RNG state.
	RNG uint64 `json:"rng"`
	// Scores is the raw retained score buffer, including the
	// grow-then-compact slack — the compaction schedule depends on the
	// buffer length, so the exact buffer must round-trip for the resumed
	// retention behaviour to match the uninterrupted run.
	Scores Floats `json:"scores"`

	Detector DetectorState                `json:"detector"`
	Monitor  MonitorState                 `json:"monitor"`
	Adapter  *AdapterState                `json:"adapter,omitempty"`
	Pending  *PendingState                `json:"pending,omitempty"`
	Ledger   map[string]flops.PhaseTotals `json:"ledger"`
}

// DetectorState is the per-stream mutable detector state: one graph +
// token bank per mission KG. The shared frozen backbone is not serialized.
type DetectorState struct {
	Graphs []GraphState `json:"graphs"`
}

// GraphState is one mission KG's structure and token bank.
type GraphState struct {
	// Graph is the kg.Graph JSON (the deterministic round-trip of
	// internal/kg/serialize.go).
	Graph json.RawMessage `json:"graph"`
	// Banks holds each reasoning node's token matrix, sorted by node id.
	Banks []BankState `json:"banks"`
}

// BankState is one node's token embedding matrix.
type BankState struct {
	Node   int    `json:"node"`
	Tokens Tensor `json:"tokens"`
}

// MonitorState is the wire form of core.MonitorState.
type MonitorState struct {
	N         int      `json:"n"`
	RefLag    int      `json:"ref_lag"`
	Anchored  bool     `json:"anchored"`
	Reference F64      `json:"reference"`
	HasRef    bool     `json:"has_ref"`
	Seq       int      `json:"seq"`
	Frames    []Tensor `json:"frames"`
	Scores    Floats   `json:"scores"`
	Seqs      []int    `json:"seqs"`
	Means     Floats   `json:"means"`
}

// AdapterState is the wire form of core.AdapterState.
type AdapterState struct {
	Created  int                     `json:"created"`
	Trackers []map[kg.NodeID]Tracker `json:"trackers"`
	RowNorms []map[kg.NodeID]Floats  `json:"row_norms"`
	OptStep  int                     `json:"opt_step"`
	OptM     map[string]Tensor       `json:"opt_m"`
	OptV     map[string]Tensor       `json:"opt_v"`
}

// Tracker is one node's convergence-tracker state.
type Tracker struct {
	LastDist  F64  `json:"last_dist"`
	HasLast   bool `json:"has_last"`
	IncStreak int  `json:"inc_streak"`
}

// Report is the wire form of core.AdaptReport. Its floats are bit-pattern
// encoded like every other float in the format: a diverged round can
// legitimately carry NaN loss or node distances, and a checkpoint save
// must survive that rather than abort on json.Marshal.
type Report struct {
	Triggered     bool                `json:"triggered"`
	K             int                 `json:"k"`
	DeltaM        F64                 `json:"delta_m"`
	Loss          F64                 `json:"loss"`
	NodeDistances []map[kg.NodeID]F64 `json:"node_distances,omitempty"`
	Pruned        []kg.NodeID         `json:"pruned,omitempty"`
	Created       []kg.NodeID         `json:"created,omitempty"`
}

// EncodeReport converts an adaptation report to wire form.
func EncodeReport(r core.AdaptReport) Report {
	w := Report{
		Triggered: r.Triggered,
		K:         r.K,
		DeltaM:    F64(r.DeltaM),
		Loss:      F64(r.Loss),
		Pruned:    append([]kg.NodeID(nil), r.Pruned...),
		Created:   append([]kg.NodeID(nil), r.Created...),
	}
	for _, dists := range r.NodeDistances {
		m := make(map[kg.NodeID]F64, len(dists))
		for id, d := range dists {
			m[id] = F64(d)
		}
		w.NodeDistances = append(w.NodeDistances, m)
	}
	return w
}

// DecodeReport converts a wire report back.
func DecodeReport(w Report) core.AdaptReport {
	r := core.AdaptReport{
		Triggered: w.Triggered,
		K:         w.K,
		DeltaM:    float64(w.DeltaM),
		Loss:      float64(w.Loss),
		Pruned:    append([]kg.NodeID(nil), w.Pruned...),
		Created:   append([]kg.NodeID(nil), w.Created...),
	}
	for _, dists := range w.NodeDistances {
		m := make(map[kg.NodeID]float64, len(dists))
		for id, d := range dists {
			m[id] = float64(d)
		}
		r.NodeDistances = append(r.NodeDistances, m)
	}
	return r
}

// PendingState is an in-flight asynchronous adaptation round at snapshot
// time. The round's computation is completed before the snapshot is taken
// (its effect is already in the live detector state), but its result has
// not been swapped into the scoring path yet: ScoreDet is the pre-round
// state frames are still scored on, and SwapFrame is the processed-frame
// count at which the swap — and the round's report — becomes visible,
// exactly as in the uninterrupted run.
type PendingState struct {
	SwapFrame int           `json:"swap_frame"`
	Report    Report        `json:"report"`
	Err       string        `json:"err,omitempty"`
	ScoreDet  DetectorState `json:"score_det"`
}

// EncodeMonitor converts a monitor's exported state to wire form.
func EncodeMonitor(s core.MonitorState) MonitorState {
	w := MonitorState{
		N:         s.N,
		RefLag:    s.RefLag,
		Anchored:  s.Anchored,
		Reference: F64(s.Reference),
		HasRef:    s.HasRef,
		Seq:       s.Seq,
		Means:     append(Floats(nil), s.Means...),
	}
	for _, smp := range s.Samples {
		w.Frames = append(w.Frames, EncodeTensor(smp.Pix()))
		w.Scores = append(w.Scores, smp.Score)
		w.Seqs = append(w.Seqs, smp.Seq)
	}
	return w
}

// DecodeMonitor converts a wire monitor state back.
func DecodeMonitor(w MonitorState) (core.MonitorState, error) {
	if len(w.Frames) != len(w.Scores) || len(w.Frames) != len(w.Seqs) {
		return core.MonitorState{}, fmt.Errorf("snapshot: monitor sample columns disagree: %d frames, %d scores, %d seqs",
			len(w.Frames), len(w.Scores), len(w.Seqs))
	}
	s := core.MonitorState{
		N:         w.N,
		RefLag:    w.RefLag,
		Anchored:  w.Anchored,
		Reference: float64(w.Reference),
		HasRef:    w.HasRef,
		Seq:       w.Seq,
		Means:     append([]float64(nil), w.Means...),
	}
	for i := range w.Frames {
		frame, err := DecodeTensor(w.Frames[i])
		if err != nil {
			return core.MonitorState{}, fmt.Errorf("snapshot: monitor sample %d: %w", i, err)
		}
		s.Samples = append(s.Samples, core.Sample{Frame: frame, Score: w.Scores[i], Seq: w.Seqs[i]})
	}
	return s, nil
}

// EncodeAdapter converts an adapter's exported state to wire form.
func EncodeAdapter(s core.AdapterState) *AdapterState {
	w := &AdapterState{
		Created: s.Created,
		OptStep: s.OptStep,
		OptM:    make(map[string]Tensor, len(s.OptM)),
		OptV:    make(map[string]Tensor, len(s.OptV)),
	}
	for gi := range s.Trackers {
		trs := make(map[kg.NodeID]Tracker, len(s.Trackers[gi]))
		for id, tr := range s.Trackers[gi] {
			trs[id] = Tracker{LastDist: F64(tr.LastDist), HasLast: tr.HasLast, IncStreak: tr.IncStreak}
		}
		w.Trackers = append(w.Trackers, trs)
	}
	for gi := range s.RowNorms {
		norms := make(map[kg.NodeID]Floats, len(s.RowNorms[gi]))
		for id, ns := range s.RowNorms[gi] {
			norms[id] = append(Floats(nil), ns...)
		}
		w.RowNorms = append(w.RowNorms, norms)
	}
	for name, t := range s.OptM {
		w.OptM[name] = EncodeTensor(t)
	}
	for name, t := range s.OptV {
		w.OptV[name] = EncodeTensor(t)
	}
	return w
}

// DecodeAdapter converts a wire adapter state back.
func DecodeAdapter(w *AdapterState) (core.AdapterState, error) {
	s := core.AdapterState{
		Created: w.Created,
		OptStep: w.OptStep,
	}
	for gi := range w.Trackers {
		trs := make(map[kg.NodeID]core.TrackerState, len(w.Trackers[gi]))
		for id, tr := range w.Trackers[gi] {
			trs[id] = core.TrackerState{LastDist: float64(tr.LastDist), HasLast: tr.HasLast, IncStreak: tr.IncStreak}
		}
		s.Trackers = append(s.Trackers, trs)
	}
	for gi := range w.RowNorms {
		norms := make(map[kg.NodeID][]float64, len(w.RowNorms[gi]))
		for id, ns := range w.RowNorms[gi] {
			norms[id] = append([]float64(nil), ns...)
		}
		s.RowNorms = append(s.RowNorms, norms)
	}
	var err error
	if s.OptM, err = decodeTensorMap(w.OptM, "first moment"); err != nil {
		return core.AdapterState{}, err
	}
	if s.OptV, err = decodeTensorMap(w.OptV, "second moment"); err != nil {
		return core.AdapterState{}, err
	}
	return s, nil
}

// CaptureDetector serializes a detector's per-stream mutable state: every
// mission graph plus its token bank. The shared backbone is untouched.
func CaptureDetector(det *core.Detector) (DetectorState, error) {
	var ds DetectorState
	for gi := 0; gi < det.NumGNNs(); gi++ {
		m := det.GNN(gi)
		raw, err := json.Marshal(m.Graph())
		if err != nil {
			return DetectorState{}, fmt.Errorf("snapshot: graph %d: %w", gi, err)
		}
		gs := GraphState{Graph: raw}
		for _, id := range m.Tokens().NodeIDs() {
			gs.Banks = append(gs.Banks, BankState{
				Node:   int(id),
				Tokens: EncodeTensor(m.Tokens().Bank(id).Data),
			})
		}
		ds.Graphs = append(ds.Graphs, gs)
	}
	return ds, nil
}

// RestoreDetector replaces a detector's per-stream mutable state with the
// serialized one: each graph is rebuilt in place, the model re-indexed
// (Rebind), and every node's token matrix installed. The detector should
// be a fresh clone of the same backbone the checkpoint was taken over.
func RestoreDetector(det *core.Detector, ds DetectorState) error {
	if len(ds.Graphs) != det.NumGNNs() {
		return fmt.Errorf("snapshot: checkpoint has %d graphs, detector has %d", len(ds.Graphs), det.NumGNNs())
	}
	for gi, gs := range ds.Graphs {
		m := det.GNN(gi)
		if err := json.Unmarshal(gs.Graph, m.Graph()); err != nil {
			return fmt.Errorf("snapshot: graph %d: %w", gi, err)
		}
		if err := m.Rebind(); err != nil {
			return fmt.Errorf("snapshot: rebind graph %d: %w", gi, err)
		}
		// Rebind's SyncWith established a bank per reasoning node; the
		// serialized banks must cover exactly that set.
		live := m.Tokens().NodeIDs()
		if len(gs.Banks) != len(live) {
			return fmt.Errorf("snapshot: graph %d has %d token banks, graph wants %d", gi, len(gs.Banks), len(live))
		}
		for _, bs := range gs.Banks {
			id := kg.NodeID(bs.Node)
			if !m.Tokens().Has(id) {
				return fmt.Errorf("snapshot: graph %d token bank for node %d not in restored graph", gi, bs.Node)
			}
			t, err := DecodeTensor(bs.Tokens)
			if err != nil {
				return fmt.Errorf("snapshot: graph %d node %d tokens: %w", gi, bs.Node, err)
			}
			if t.Dims() != 2 || t.Cols() != m.Tokens().Dim() {
				return fmt.Errorf("snapshot: graph %d node %d token shape %v, want (k × %d)",
					gi, bs.Node, t.Shape(), m.Tokens().Dim())
			}
			m.Tokens().Install(id, t)
		}
	}
	return nil
}

func decodeTensorMap(in map[string]Tensor, what string) (map[string]*tensor.Tensor, error) {
	out := make(map[string]*tensor.Tensor, len(in))
	for name, w := range in {
		t, err := DecodeTensor(w)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %s %q: %w", what, name, err)
		}
		out[name] = t
	}
	return out, nil
}
