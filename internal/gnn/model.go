package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"edgekg/internal/autograd"
	"edgekg/internal/embed"
	"edgekg/internal/kg"
	"edgekg/internal/nn"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// Model is the hierarchical GNN over one mission-specific KG. For a KG of
// depth d it applies d+2 layers (Sec. III-C): one per edge group
// (sensor→L1, L1→L2, …, Ld→embedding) plus a final dense refinement layer
// with no message passing, matching the paper's layer count.
type Model struct {
	graph  *kg.Graph
	space  *embed.Space
	tokens *TokenBank
	layers []*layer
	lo     *layout
	width  int

	// bankMu guards bankCache/bankGen: concurrent scoring callers run
	// forwards over one model, and the lazy rebuild would otherwise race. The token bank set never changes while forwards are
	// in flight, so contention is a cheap uncontended lock per forward.
	bankMu sync.Mutex
	// bankCache holds the token banks in m.lo.reasonIDs order, rebuilt
	// whenever the token bank set (bankGen) or the layout changes. The
	// cached slice is shared with live computation graphs and never
	// mutated in place.
	bankCache []*autograd.Value
	bankGen   uint64

	// memo64 and memo32 hold ForwardEval's evalMemo at each width. Each
	// is replaced, never mutated, and clones start from their source's.
	memo64 atomic.Pointer[evalMemo[float64]]
	memo32 atomic.Pointer[evalMemo[float32]]

	// cowUndo, set only on clones produced by CloneCOW, rolls back the
	// shared marks that clone placed on its source (DiscardClone).
	cowUndo func()
}

// layer is one hierarchical GNN layer: φ_l (dense), M_l/A_l (messages and
// aggregation over its edge group), BatchNorm, ELU. group == -1 marks the
// final refinement layer, which skips message passing.
type layer struct {
	dense *nn.Linear
	bn    *nn.BatchNorm1d
	group int

	// eval caches the layer's eval form per width (dense weights plus
	// folded BatchNorm running statistics). The layers slice is shared
	// across every clone of a model, so one snapshot per width serves all
	// streams; both are dropped whenever the layer returns to training
	// mode.
	eval tensor.WidthCache
}

// evalLayer is one layer's eval form at width T: the dense weights plus
// the normalisation constants (running mean and 1/√(var+ε)).
type evalLayer[T tensor.Float] struct {
	dense        nn.LinearEval[T]
	gamma, beta  []T
	rmean, invSd []T
}

// evalOf returns the layer's cached eval form at width T, building it on
// first use. The layer must be in inference mode: batch statistics have
// no frozen form.
func evalOf[T tensor.Float](ly *layer) *evalLayer[T] {
	if s := tensor.Cached[T, evalLayer[T]](&ly.eval); s != nil {
		return s
	}
	if ly.bn.Training() {
		panic("gnn: eval forward requires inference mode")
	}
	return tensor.Publish[T](&ly.eval, &evalLayer[T]{
		dense: nn.EvalLinear[T](ly.dense),
		gamma: tensor.Narrow[T](ly.bn.Gamma.Data).Data(),
		beta:  tensor.Narrow[T](ly.bn.Beta.Data).Data(),
		rmean: tensor.Narrow[T](ly.bn.RunningMean).Data(),
		invSd: autograd.InvStd(make([]T, ly.bn.RunningVar.Size()), ly.bn.RunningVar, ly.bn.Eps),
	})
}

// Config sizes a Model.
type Config struct {
	// Width is the embedding dimensionality D_l of every GNN layer — the
	// paper uses 8 across all layers (Sec. IV-A).
	Width int
}

// NewModel builds a hierarchical GNN for g with a fresh token bank
// initialised from space.
func NewModel(rng *rand.Rand, g *kg.Graph, space *embed.Space, cfg Config) (*Model, error) {
	if cfg.Width < 1 {
		return nil, fmt.Errorf("gnn: width %d must be ≥1", cfg.Width)
	}
	lo, err := buildLayout(g)
	if err != nil {
		return nil, err
	}
	m := &Model{
		graph:  g,
		space:  space,
		tokens: NewTokenBank(g, space),
		lo:     lo,
		width:  cfg.Width,
	}
	inDim := space.Dim()
	numGroups := g.Depth() + 1
	for l := 0; l < numGroups; l++ {
		m.layers = append(m.layers, &layer{
			dense: nn.NewLinear(rng, inDim, cfg.Width),
			bn:    nn.NewBatchNorm1d(cfg.Width),
			group: l,
		})
		inDim = cfg.Width
	}
	// Final refinement layer (brings the count to d+2).
	m.layers = append(m.layers, &layer{
		dense: nn.NewLinear(rng, inDim, cfg.Width),
		bn:    nn.NewBatchNorm1d(cfg.Width),
		group: -1,
	})
	return m, nil
}

// Graph returns the KG the model reasons over.
func (m *Model) Graph() *kg.Graph { return m.graph }

// GraphJSON returns the bound graph's kg JSON: json.Marshal(m.Graph()) as
// of the last bind (NewModel, a clone, Rebind), marshalled once per bind
// rather than per call. The bytes are shared — with every later call and
// with copy-on-write clones that hold the same layout — and must not be
// written. Every graph mutation must be followed by Rebind, as the layers
// already require; a graph changed since its bind may read stale here.
func (m *Model) GraphJSON() ([]byte, error) { return m.lo.marshalGraph(m.graph) }

// Tokens returns the trainable token bank.
func (m *Model) Tokens() *TokenBank { return m.tokens }

// Width returns the output embedding dimensionality.
func (m *Model) Width() int { return m.width }

// NumLayers returns the layer count (depth + 2).
func (m *Model) NumLayers() int { return len(m.layers) }

// CloneShared returns a model over a deep copy of the per-KG mutable
// state — the graph structure and the token bank — while sharing the
// frozen compute backbone: the dense/BatchNorm layers, the embedding
// space and the width. The clone's graph and bank can be mutated (token
// updates, node pruning/creation, Rebind) without affecting the receiver
// or any sibling clone; the shared layers must stay frozen and in
// inference mode for as long as clones are in use, which is exactly the
// deployed-detector contract. This is what gives every serving stream its
// own adaptation state over one resident backbone. The immutable layout
// and the eval memos are shared: the copied graph has the same content.
func (m *Model) CloneShared() (*Model, error) {
	if err := m.verifyClonable(); err != nil {
		return nil, err
	}
	c := &Model{
		graph:  m.graph.Clone(),
		space:  m.space,
		tokens: m.tokens.Clone(),
		layers: m.layers,
		lo:     m.lo,
		width:  m.width,
	}
	c.inheritMemos(m)
	return c, nil
}

// CloneCOW is CloneShared with lazy copy-on-write semantics: the clone
// aliases the receiver's graph storage and token-bank tensors by reference
// and materializes private copies only of what actually mutates — a graph
// faults wholesale on its first structural change, a token page on its
// first in-place write. The layout is shared too: it is immutable, and
// Rebind replaces rather than mutates it, so concurrent streams can share one.
// So are the eval memos. An unadapted clone therefore holds only O(nodes)
// wrapper state.
//
// Scoring through the clone is bit-identical to a CloneShared deep copy
// (the tensors are the same bits), and the same frozen-backbone contract
// applies. On failure the receiver is left exactly as before the call.
func (m *Model) CloneCOW() (*Model, error) {
	if err := m.verifyClonable(); err != nil {
		return nil, err
	}
	graphWasShared := m.graph.Shared()
	g := m.graph.CloneCOW()
	tokens, undoBanks := m.tokens.CloneCOW()
	c := &Model{
		graph:  g,
		space:  m.space,
		tokens: tokens,
		layers: m.layers,
		lo:     m.lo,
		width:  m.width,
	}
	c.inheritMemos(m)
	src := m
	c.cowUndo = func() {
		undoBanks()
		if !graphWasShared {
			src.graph.UnmarkShared()
		}
	}
	return c, nil
}

// inheritMemos starts c from src's eval memos. A memo is immutable and
// carries its key, so a clone that adapts replaces its own pointer and
// leaves src's memo, and src's scores, as they were.
func (c *Model) inheritMemos(src *Model) {
	c.memo64.Store(src.memo64.Load())
	c.memo32.Store(src.memo32.Load())
}

// DiscardClone rolls back the COW marks a CloneCOW call placed on its
// source. Only valid on a clone that was never used (nothing scored or
// adapted through it), and it releases only marks that clone itself
// introduced — state already shared with older siblings stays shared.
// Multi-GNN clone failure paths use it so an aborted partial clone does
// not leave the source faulting (copying) on every future write. No-op on
// deep (CloneShared) clones and on sources.
func (m *Model) DiscardClone() {
	if m.cowUndo != nil {
		m.cowUndo()
		m.cowUndo = nil
	}
}

// verifyClonable checks the clone invariant that every reasoning node in
// the layout has a token bank. A model whose bank set drifted out of sync
// with its graph would otherwise hand out clones that fail much later,
// inside their first forward; failing at clone time lets the caller
// release the partial clone instead of leaking it.
func (m *Model) verifyClonable() error {
	for _, id := range m.lo.reasonIDs {
		if !m.tokens.Has(id) {
			return fmt.Errorf("gnn: clone: reasoning node %d has no token bank", id)
		}
	}
	return nil
}

// Mem reports the model's per-stream resident bytes, split into privately
// owned state and state COW-shared with the backbone or siblings.
type Mem struct {
	BankOwned, BankShared   int64
	GraphOwned, GraphShared int64
}

// Mem returns the model's memory footprint for the serving ledger. Shared
// columns count aliased bytes a stream is not charged for.
func (m *Model) Mem() Mem {
	var mm Mem
	mm.BankOwned, mm.BankShared = m.tokens.PageBytes()
	gb := m.graph.ApproxMemBytes()
	if m.graph.Shared() {
		mm.GraphShared = gb
	} else {
		mm.GraphOwned = gb
	}
	return mm
}

// CheckGraph reports whether g's content could replace the model's graph
// (checkpoint restore assigns it over *Graph() and calls Rebind): the layer
// stack was built for one depth, and the graph must be strictly valid, as
// Rebind requires.
func (m *Model) CheckGraph(g *kg.Graph) error {
	if g.Depth() != m.graph.Depth() {
		return fmt.Errorf("gnn: graph depth %d, model was built for depth %d", g.Depth(), m.graph.Depth())
	}
	_, err := buildLayout(g)
	return err
}

// Rebind re-indexes the model after the KG's structure changed (node
// pruning/creation), synchronising the token bank with the surviving
// node set.
func (m *Model) Rebind() error {
	lo, err := buildLayout(m.graph)
	if err != nil {
		return err
	}
	m.lo = lo
	m.tokens.SyncWith(m.graph, m.space)
	m.bankMu.Lock()
	m.bankCache = nil
	m.bankMu.Unlock()
	return nil
}

// orderedBanks returns the token banks in layout order, cached across
// forwards until the bank set or layout changes. It is safe to call from
// concurrent forwards.
func (m *Model) orderedBanks() []*autograd.Value {
	m.bankMu.Lock()
	defer m.bankMu.Unlock()
	if m.bankCache == nil || m.bankGen != m.tokens.Gen() {
		banks := make([]*autograd.Value, len(m.lo.reasonIDs))
		for i, id := range m.lo.reasonIDs {
			banks[i] = m.tokens.Bank(id)
		}
		m.bankCache = banks
		m.bankGen = m.tokens.Gen()
	}
	return m.bankCache
}

// Forward reasons over a batch of already-image-encoded frames
// (batch × space.Dim()) and returns the embedding-node outputs
// (batch × Width) — the per-KG reasoning embedding r_T of Sec. III-C.
func (m *Model) Forward(frames *autograd.Value) *autograd.Value {
	b := frames.Data.Rows()
	if frames.Data.Cols() != m.space.Dim() {
		panic(fmt.Sprintf("gnn: frame dim %d != semantic dim %d", frames.Data.Cols(), m.space.Dim()))
	}

	// Assemble the batched node-feature matrix (b*v × dim) in two ops:
	// one batched mean over every reasoning node's token bank, one
	// scatter stamping each graph copy with its sensor row (that sample's
	// frame embedding) and the shared reasoning-node features. The
	// embedding terminal starts at the multiplicative identity: with
	// product messages (eq. 2) a zero row would absorb every incoming
	// message, so ones let the final aggregation carry the upstream
	// reasoning embeddings through unchanged.
	var feats *autograd.Value
	if len(m.lo.reasonIDs) > 0 {
		feats = autograd.MeanRowsBatch(m.orderedBanks())
	}
	x := autograd.AssembleBatch(frames, feats, m.lo.featRow, 0, 1)

	for _, ly := range m.layers {
		x = ly.dense.Forward(x)
		if ly.group >= 0 {
			// Message passing, BatchNorm and ELU run as one fused tape
			// node over the layer's edge group, applied to each of the b
			// stacked graph copies.
			grp := m.lo.groups[ly.group]
			if ly.bn.Training() {
				out, mean, variance := autograd.EdgeAggNormActTrain(x, ly.bn.Gamma, ly.bn.Beta, grp.src, grp.dst, b, ly.bn.Eps)
				ly.bn.UpdateRunning(mean, variance)
				x = out
			} else {
				x = autograd.EdgeAggNormActEval(x, ly.bn.Gamma, ly.bn.Beta, grp.src, grp.dst, b, ly.bn.RunningMean, ly.bn.RunningVar, ly.bn.Eps)
			}
		} else {
			x = autograd.ELU(ly.bn.Forward(x))
		}
	}

	// Extract the embedding-terminal row (each copy's last) of every sample.
	v := len(m.lo.featRow)
	embRows := make([]int, b)
	for k := range embRows {
		embRows[k] = k*v + v - 1
	}
	return autograd.GatherRows(x, embRows)
}

// ForwardEval is Forward's inference path without the tape, at width T —
// the per-KG reasoning stage of Detector.ScoreVideo. It computes only the
// rows a frame reaches on the way to the embedding terminal. A frame
// enters as each graph copy's sensor row; until layer l aggregates into
// level l+1 every row above level l is a function of the token banks and
// the frozen weights alone, and the model's evalMemo holds those rows'
// dense outputs. So layer l runs its dense on each copy's level-l rows,
// aggregates them into level l+1 against the memo's level-(l+1) rows, and
// writes BatchNorm and ELU for level l+1 alone; the final refinement layer
// runs on the terminal's row. Dense, BatchNorm eval and ELU are row-wise
// and aggregation sums in edge order, so at float64 it returns Forward's
// bits, and it bills Forward's count less every row it does not run.
//
// The per-node token-bank means are recomputed from the float64 banks on
// every call, because deployment-time adaptation mutates bank pages in
// place without bumping the structural generation counter; they key the
// memo, which is rebuilt (and billed to this call) when they, the layout
// or an edge layer's eval snapshot moved. WarmEval builds it ahead.
func ForwardEval[T tensor.Float](ws *tensor.Workspace, m *Model, frames *tensor.Dense[T]) *tensor.Dense[T] {
	if frames.Cols() != m.space.Dim() {
		panic(fmt.Sprintf("gnn: frame dim %d != semantic dim %d", frames.Cols(), m.space.Dim()))
	}
	memo := memoFor[T](ws, m)
	lo, w := memo.lo, m.width
	x := frames
	for _, ly := range m.layers {
		s := evalOf[T](ly)
		x = s.dense.Forward(ws, x)
		if l := ly.group; l >= 0 {
			lg, at := lo.levels[l], lo.start[l+1]
			to := memo.rows[(at-1)*w : (lo.start[l+2]-1)*w]
			x = autograd.EdgeAggNormActEvalLevel(ws, x, at-lo.start[l], to, s.gamma, s.beta, s.rmean, s.invSd, lg.src, lg.dst)
		} else {
			autograd.BatchNormEvalInPlace(x, s.gamma, s.beta, s.rmean, s.invSd)
			tensor.ELUInPlace(x)
		}
	}
	return x
}

// evalMemo is what ForwardEval reads but no frame reaches, at width T:
// rows holds, for every node above the sensor in node order, its dense
// output at the layer whose edge group aggregates into its level (layer
// l's at level l+1, the terminal's at the last edge layer), (nodes−1) ×
// width. Those rows are a function of the key alone — the exact bits of
// the per-node token-bank means, the layout and the edge layers' eval
// snapshots at T — so a memo is immutable: a model whose key moved builds
// a fresh one and replaces its pointer, and nothing is ever invalidated.
// Optimizer steps, renormalisation and the semantic pull move the means;
// Rebind and a restore replace the layout; training drops the snapshots.
//
// It is derived state, like the eval snapshots and the graph JSON, and is
// not charged to a stream's resident bytes: one float64 memo is 8 bytes
// per token-bank mean value plus 8·(nodes−1)·width for the rows: 1,152 +
// 640 bytes on the quick KG (levels 1/5/4/1, semantic dim 16, width 8),
// 4,096 + 1,088 at full scale (1/6/5/5/1, dim 32), one copy shared by
// every clone that has not adapted.
type evalMemo[T tensor.Float] struct {
	lo    *layout
	evals []*evalLayer[T] // the edge layers', in layer order
	key   []float64
	rows  []T
}

// memoSlot returns m's memo pointer at width T.
func memoSlot[T tensor.Float](m *Model) *atomic.Pointer[evalMemo[T]] {
	if p, ok := any(&m.memo64).(*atomic.Pointer[evalMemo[T]]); ok {
		return p
	}
	return any(&m.memo32).(*atomic.Pointer[evalMemo[T]])
}

// WarmEval builds m's eval memo at width T unless the one it holds still
// matches its token banks, layout and weights, so that the next
// ForwardEval pays no rebuild. It bills the rebuild to the caller's
// meter. m must be in inference mode.
func WarmEval[T tensor.Float](m *Model) {
	ws := tensor.NewWorkspace()
	memoFor[T](ws, m)
	ws.Release()
}

// memoFor returns m's eval memo at width T, rebuilding and publishing it
// when its key no longer matches. Concurrent callers may each rebuild; the
// memos they publish are equal, so whichever is kept is correct.
func memoFor[T tensor.Float](ws *tensor.Workspace, m *Model) *evalMemo[T] {
	lo := m.lo
	var means []float64
	if len(lo.reasonIDs) > 0 {
		means = autograd.MeanRowsBatchFwd(ws, m.orderedBanks()).Data()
	}
	slot := memoSlot[T](m)
	if c := slot.Load(); c != nil && c.matches(m, lo, means) {
		return c
	}
	c := buildMemo[T](ws, m, lo, means)
	slot.Store(c)
	return c
}

// matches reports whether c was built from lo, m's current edge-layer
// snapshots and means, compared bit for bit so a NaN matches itself.
func (c *evalMemo[T]) matches(m *Model, lo *layout, means []float64) bool {
	if c.lo != lo || len(c.key) != len(means) {
		return false
	}
	for l, s := range c.evals {
		if evalOf[T](m.layers[l]) != s {
			return false
		}
	}
	for i, v := range means {
		if math.Float64bits(v) != math.Float64bits(c.key[i]) {
			return false
		}
	}
	return true
}

// buildMemo runs the edge layers over one graph copy's rows above the
// sensor: layer l's dense over the rows at levels ≥ l+1 gives the memo
// its level-(l+1) rows, and the rows above pass through BatchNorm and ELU
// (no edge of group l reaches them) into layer l+1. Every row is computed
// as in the tape's forward, so it holds the tape's bits. Intermediates
// are lent from ws; the memo itself is four allocations: the value, its
// snapshot list, key and rows.
func buildMemo[T tensor.Float](ws *tensor.Workspace, m *Model, lo *layout, means []float64) *evalMemo[T] {
	v, w := len(lo.featRow), m.width
	c := &evalMemo[T]{
		lo:    lo,
		evals: make([]*evalLayer[T], len(lo.levels)),
		key:   append([]float64(nil), means...),
		rows:  make([]T, (v-1)*w),
	}
	dim := m.space.Dim()
	x := tensor.Alloc[T](ws, v-1, dim)
	for i := 1; i < v; i++ {
		row := x.Row(i - 1)
		fr := lo.featRow[i]
		if fr < 0 {
			// The embedding terminal starts at the multiplicative identity
			// (see Forward).
			for j := range row {
				row[j] = 1
			}
			continue
		}
		for j, f := range means[fr*dim : (fr+1)*dim] {
			row[j] = T(f)
		}
	}
	for l := range lo.levels {
		s := evalOf[T](m.layers[l])
		c.evals[l] = s
		y := s.dense.Forward(ws, x)
		at, next := lo.start[l+1], lo.start[l+2]
		copy(c.rows[(at-1)*w:(next-1)*w], y.Data())
		if next == v {
			break
		}
		x = tensor.Alloc[T](ws, v-next, w)
		copy(x.Data(), y.Data()[(next-at)*w:])
		autograd.BatchNormEvalInPlace(x, s.gamma, s.beta, s.rmean, s.invSd)
		kernels.ActiveOf[T]().ELU(x.Data(), x.Data())
	}
	return c
}

// SetTraining switches the BatchNorm layers between batch and running
// statistics. Entering training mode drops each layer's eval snapshots —
// weights and running statistics are about to change.
func (m *Model) SetTraining(t bool) {
	for _, ly := range m.layers {
		if t {
			ly.eval.Drop()
		}
		ly.bn.SetTraining(t)
	}
}

// Params returns the GNN weights (dense + BatchNorm), excluding the token
// bank — these are what training updates and deployment freezes.
func (m *Model) Params() []nn.Param {
	var ps []nn.Param
	for i, ly := range m.layers {
		prefix := fmt.Sprintf("layer%d", i)
		ps = append(ps, nn.Prefix(prefix+".dense", ly.dense.Params())...)
		ps = append(ps, nn.Prefix(prefix+".bn", ly.bn.Params())...)
	}
	return ps
}

// RunningStats returns every layer's BatchNorm running mean and variance,
// in layer order — the trained state Params does not reach.
func (m *Model) RunningStats() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, ly := range m.layers {
		out = append(out, ly.bn.RunningMean, ly.bn.RunningVar)
	}
	return out
}

// TokenParams returns the token-bank parameters — what adaptation updates.
func (m *Model) TokenParams() []nn.Param {
	return nn.Prefix("tokens", m.tokens.Params())
}
