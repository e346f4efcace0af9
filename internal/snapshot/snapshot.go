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
// Wire format: version 2 is binary (codec.go): a magic and version
// header, then every stream's fields in declaration order, floats as their
// IEEE-754 bit patterns and map entries in key order, so serialization is
// deterministic and bit-exact. The one writer serves checkpoint files,
// spill files and the state netserve exports and restores; Load still
// reads the version 1 JSON document, told apart by its first byte. Each
// part of the state is declared once, by its owner: this package owns the
// format/version envelope, the per-stream record and the detector section;
// the monitor, adapter and round-report sections are the state structs
// core exports, graphs are kg.Graph's own JSON, ledger totals are
// flops.PhaseTotals, and every float is encoded by internal/tensor's one
// float64 codec (AppendFloats; in the JSON form Floats, F64Bits and
// Tensor). Files are written temp-then-rename so a crash mid-write never
// corrupts the previous good checkpoint, and a format/version header fails
// loudly on mismatch.
package snapshot

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/kg"
	"edgekg/internal/tensor"
)

// Format identifies checkpoint files; Version is the wire format version
// Save writes. Load reads it and version 1 JSON, and rejects anything else
// — a warm restart must never silently reinterpret foreign or stale bytes
// as adaptation state. A loaded checkpoint carries Version whatever its
// file's version was.
const (
	Format  = "edgekg-checkpoint"
	Version = 2
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

// Validate checks the format header. It is called by Encode (so by Save)
// and by the restore entry points, so a checkpoint assembled by hand is
// checked too; Load checks the header a file carries.
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
	Scores tensor.Floats `json:"scores"`

	Detector DetectorState                `json:"detector"`
	Monitor  core.MonitorState            `json:"monitor"`
	Adapter  *core.AdapterState           `json:"adapter,omitempty"`
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
	Node   int            `json:"node"`
	Tokens *tensor.Tensor `json:"tokens"`
}

// PendingState is an in-flight asynchronous adaptation round at snapshot
// time. The round's computation is completed before the snapshot is taken
// (its effect is already in the live detector state), but its result has
// not been swapped into the scoring path yet: ScoreDet is the pre-round
// state frames are still scored on, and SwapFrame is the processed-frame
// count at which the swap — and the round's report — becomes visible,
// exactly as in the uninterrupted run.
type PendingState struct {
	SwapFrame int              `json:"swap_frame"`
	Report    core.AdaptReport `json:"report"`
	Err       string           `json:"err,omitempty"`
	ScoreDet  DetectorState    `json:"score_det"`
}

// CaptureDetector describes a detector's per-stream mutable state: every
// mission graph's kg JSON and its token bank. Nothing is copied: the graph
// JSON is the bytes the model marshalled at its last bind, and each bank's
// tensor is the live one. The result is valid until the detector is next
// written (a frame scored through it does not write it; an adaptation round
// does); encode it first. The shared backbone is untouched.
func CaptureDetector(det *core.Detector) (DetectorState, error) {
	ds := DetectorState{Graphs: make([]GraphState, det.NumGNNs())}
	for gi := range ds.Graphs {
		m := det.GNN(gi)
		raw, err := m.GraphJSON()
		if err != nil {
			return DetectorState{}, fmt.Errorf("snapshot: graph %d: %w", gi, err)
		}
		// A bound graph is strictly valid, so it has reasoning nodes: Banks
		// is never empty, which the wire would tell apart from nil.
		ids := m.Tokens().NodeIDs()
		gs := GraphState{Graph: raw, Banks: make([]BankState, len(ids))}
		for i, id := range ids {
			gs.Banks[i] = BankState{Node: int(id), Tokens: m.Tokens().Bank(id).Data}
		}
		ds.Graphs[gi] = gs
	}
	return ds, nil
}

// DetectorRestore is a DetectorState that CheckDetector found restorable:
// its decoded graphs, and its token matrices by graph index and node (what
// the same checkpoint's adapter section is validated against).
type DetectorRestore struct {
	graphs []*kg.Graph
	Banks  []map[kg.NodeID]*tensor.Tensor
}

// CheckDetector validates ds (which may come from outside the process)
// against the detector it is to be restored into, touching nothing: one
// graph per mission KG, each decodable and acceptable to its model, and
// exactly one (k ≥ 1 × dim) token matrix per reasoning node.
func CheckDetector(det *core.Detector, ds DetectorState) (*DetectorRestore, error) {
	if len(ds.Graphs) != det.NumGNNs() {
		return nil, fmt.Errorf("snapshot: checkpoint has %d graphs, detector has %d", len(ds.Graphs), det.NumGNNs())
	}
	r := &DetectorRestore{
		graphs: make([]*kg.Graph, len(ds.Graphs)),
		Banks:  make([]map[kg.NodeID]*tensor.Tensor, len(ds.Graphs)),
	}
	for gi, gs := range ds.Graphs {
		m := det.GNN(gi)
		g := new(kg.Graph)
		if err := json.Unmarshal(gs.Graph, g); err != nil {
			return nil, fmt.Errorf("snapshot: graph %d: %w", gi, err)
		}
		if err := m.CheckGraph(g); err != nil {
			return nil, fmt.Errorf("snapshot: graph %d: %w", gi, err)
		}
		// The banks must cover exactly the graph's reasoning nodes.
		reasoning := 0
		for _, n := range g.Nodes() {
			if n.Kind == kg.Reasoning {
				reasoning++
			}
		}
		if len(gs.Banks) != reasoning {
			return nil, fmt.Errorf("snapshot: graph %d has %d token banks, graph wants %d", gi, len(gs.Banks), reasoning)
		}
		banks := make(map[kg.NodeID]*tensor.Tensor, reasoning)
		for _, bs := range gs.Banks {
			id := kg.NodeID(bs.Node)
			if n := g.Node(id); n == nil || n.Kind != kg.Reasoning || banks[id] != nil {
				return nil, fmt.Errorf("snapshot: graph %d token bank for node %d has no reasoning node or is given twice", gi, bs.Node)
			}
			t := bs.Tokens
			if t == nil {
				return nil, fmt.Errorf("snapshot: graph %d node %d has no token matrix", gi, bs.Node)
			}
			if t.Dims() != 2 || t.Rows() < 1 || t.Cols() != m.Tokens().Dim() {
				return nil, fmt.Errorf("snapshot: graph %d node %d token shape %v, want (k ≥ 1 × %d)", gi, bs.Node, t.Shape(), m.Tokens().Dim())
			}
			banks[id] = t
		}
		r.graphs[gi], r.Banks[gi] = g, banks
	}
	return r, nil
}

// Install replaces the per-stream mutable state of det — the detector r
// was checked against, or a clone of it — with the checked one and
// re-indexes the model. A graph or token matrix det already holds bit for
// bit stays in place, so a copy-on-write clone keeps aliasing the pages
// its checkpoint never diverged from and is charged what its uninterrupted
// twin is; any other is replaced by a copy (one state restores any number
// of streams).
func (r *DetectorRestore) Install(det *core.Detector) error {
	for gi, g := range r.graphs {
		m := det.GNN(gi)
		if !m.Graph().Equal(g) {
			*m.Graph() = *g
		}
		// Banks first: Rebind then finds one for every reasoning node, keeps
		// exactly those, and never derives a default from the graph's text.
		for id, t := range r.Banks[gi] {
			if !m.Tokens().Has(id) || !sameBits(m.Tokens().Bank(id).Data, t) {
				m.Tokens().Install(id, t.Clone())
			}
		}
		if err := m.Rebind(); err != nil {
			return fmt.Errorf("snapshot: rebind graph %d: %w", gi, err)
		}
	}
	return nil
}

// sameBits reports whether a and b are the same matrix bit for bit.
func sameBits(a, b *tensor.Tensor) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Rows() == b.Rows() && a.Cols() == b.Cols() && slices.EqualFunc(a.Data(), b.Data(), bits)
}
