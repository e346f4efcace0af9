package core

import (
	"fmt"
	"math"
	"sort"

	"edgekg/internal/tensor"
)

// Sample is one monitored data point: a frame, its anomaly score and its
// arrival sequence number, and — in a monitor that tracks them — its gate
// score.
type Sample struct {
	// Frame holds the raw (1 × pixDim) pixel features at the canonical
	// float64 width. It is nil when the owning monitor stores frames at
	// float32 — read frames through Pix, which handles both layouts.
	Frame *tensor.Tensor
	Score float64
	Seq   int

	// gate is the sample's gate score (see GateScore), NaN when it has
	// none. It is derived state: rebuilt from the frame and the live token
	// banks, never exported, and — like Score and Seq — a per-sample scalar
	// that Monitor.MemBytes does not charge.
	gate float64

	// frame32 is the reduced-width frame storage (see Monitor.SetFrameWidth):
	// the retained window frames dominate per-stream resident memory, so a
	// float32 ring halves the bill for streams on the reduced-precision path.
	frame32 []float32
}

// Pix returns the sample's pixel frame at float64, materializing it from
// the narrowed storage when the monitor holds frames at float32. Float32
// values are exactly representable at float64, so a checkpoint written
// from narrowed samples restores them bit-exactly.
func (s Sample) Pix() *tensor.Tensor {
	if s.Frame != nil {
		return s.Frame
	}
	if s.frame32 == nil {
		return nil
	}
	data := make([]float64, len(s.frame32))
	for i, v := range s.frame32 {
		data[i] = float64(v)
	}
	return tensor.FromSlice(data, 1, len(data))
}

// GateScore returns the sample's gate score and whether it has one. The
// gate score is the float64 static-window score of the frame under the
// token banks the adapter will next step on — exactly what the loss gate's
// probe would compute for it — so Adapter.Step reads it instead of
// re-scoring the frame. Only a monitor that tracks gate scores
// (Monitor.TrackGateScores) gives its samples one; a NaN score reads as
// none, and re-scoring the frame reproduces it.
func (s Sample) GateScore() (float64, bool) { return s.gate, !math.IsNaN(s.gate) }

// memBytes returns the sample's resident frame bytes.
func (s Sample) memBytes() int64 {
	if s.Frame != nil {
		return int64(s.Frame.Size()) * 8
	}
	return int64(len(s.frame32)) * 4
}

// Monitor tracks the anomaly-score distribution over the most recent N
// data points and implements the pseudo-label selection rule of
// Sec. III-D: when the windowed mean has dropped relative to the mean at
// reference time t′ (Δm = m_t − m_t′ < 0), the top K = |Δm|·N recent
// scores are treated as anomalies.
//
// Two interpretations of t′ are supported. Sliding mode compares against
// the windowed mean refLag pushes ago and fires only during the
// transition itself. Anchored mode fixes t′ at the first full window
// after deployment (healthy operation) so Δm stays negative — and
// adaptation keeps engaging — for as long as the model remains degraded,
// annealing naturally as recovery drives the mean back up. The sustained
// recovery curves of Fig. 5 require the anchored reading.
//
// The window and the mean history are fixed rings, allocated once: a Push
// into a full monitor overwrites the oldest entry and allocates nothing.
type Monitor struct {
	n      int
	refLag int

	anchored  bool
	reference float64
	hasRef    bool

	buf   ring[Sample]  // the last n samples
	means ring[float64] // the last refLag+1 windowed means, one per Push
	seq   int

	// gates makes Push record each pushed score as the sample's gate
	// score (TrackGateScores).
	gates bool

	// frameWidth selects the retained frames' storage width: F64 (the
	// zero value, canonical) or F32 for reduced-precision streams.
	frameWidth tensor.DType
}

// NewMonitor returns a sliding-reference monitor over windows of n
// samples comparing against the mean refLag pushes ago.
func NewMonitor(n, refLag int) (*Monitor, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: monitor window %d must be ≥2", n)
	}
	if refLag < 1 {
		return nil, fmt.Errorf("core: monitor reference lag %d must be ≥1", refLag)
	}
	return &Monitor{n: n, refLag: refLag}, nil
}

// NewAnchoredMonitor returns an anchored-reference monitor: t′ is frozen
// at the mean of the first full window (the post-deployment validation
// period the paper tunes t′ on).
func NewAnchoredMonitor(n int) (*Monitor, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: monitor window %d must be ≥2", n)
	}
	return &Monitor{n: n, refLag: 1, anchored: true}, nil
}

// Anchored reports the reference mode.
func (m *Monitor) Anchored() bool { return m.anchored }

// Reference returns the anchored reference mean (0 until established).
func (m *Monitor) Reference() float64 { return m.reference }

// SetReference overrides the anchored reference — callers can re-anchor
// after a planned mission change.
func (m *Monitor) SetReference(ref float64) {
	m.reference = ref
	m.hasRef = true
}

// N returns the window size.
func (m *Monitor) N() int { return m.n }

// SetFrameWidth selects the storage width of retained window frames: F64
// keeps pushed frames as-is; F32 narrows them on Push, halving the
// monitor's resident bytes (the dominant per-stream memory term) at the
// cost of float32 rounding on the frames adaptation later reads back —
// part of the documented reduced-precision drift. Samples already in the
// window are re-narrowed immediately. Other widths panic.
func (m *Monitor) SetFrameWidth(w tensor.DType) {
	if w != tensor.F64 && w != tensor.F32 {
		panic(fmt.Sprintf("core: monitor frame width %v unsupported (want F64 or F32)", w))
	}
	m.frameWidth = w
	if w == tensor.F32 {
		for i := 0; i < m.buf.n; i++ {
			*m.buf.at(i) = m.narrow(*m.buf.at(i))
		}
	}
}

// TrackGateScores makes every later Push record the pushed score as the
// sample's gate score (Sample.GateScore). Opt in only on a monitor that
// keeps its frames at float64, when every pushed score is the float64
// static-window score of its frame under the token banks the adapter steps
// on — a float64 one-frame ScoreVideo under those banks is — and call
// Adapter.Rescore whenever the banks change, so that every gate score stays
// the probe's score. Samples already in the window, and samples
// ImportState brings in, have none until Rescore.
func (m *Monitor) TrackGateScores() { m.gates = true }

// narrow converts a sample to float32 frame storage.
func (m *Monitor) narrow(s Sample) Sample {
	if s.Frame == nil {
		return s
	}
	f := s.Frame.Data()
	s.frame32 = make([]float32, len(f))
	for i, v := range f {
		s.frame32[i] = float32(v)
	}
	s.Frame = nil
	return s
}

// Push records a scored frame.
func (m *Monitor) Push(frame *tensor.Tensor, score float64) {
	smp := Sample{Frame: frame, Score: score, Seq: m.seq, gate: math.NaN()}
	if m.gates {
		smp.gate = score
	}
	if m.frameWidth == tensor.F32 {
		smp = m.narrow(smp)
	}
	m.buf.push(smp, m.n)
	m.seq++
	// Bound the mean history: only the last refLag+1 entries matter.
	m.means.push(m.mean(), m.refLag+1)
	if m.anchored && !m.hasRef && m.buf.n == m.n {
		m.reference = m.mean()
		m.hasRef = true
	}
}

// mean sums the window oldest first: the order is part of every Δm's bits.
func (m *Monitor) mean() float64 {
	if m.buf.n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < m.buf.n; i++ {
		s += m.buf.at(i).Score
	}
	return s / float64(m.buf.n)
}

// Mean returns the current windowed mean m_t.
func (m *Monitor) Mean() float64 { return m.mean() }

// Ready reports whether the window is full and the t′ reference exists.
func (m *Monitor) Ready() bool {
	if m.anchored {
		return m.buf.n == m.n && m.hasRef
	}
	return m.buf.n == m.n && m.means.n > m.refLag
}

// DeltaM returns Δm = m_t − m_t′. It is meaningful only when Ready.
func (m *Monitor) DeltaM() float64 {
	if !m.Ready() {
		return 0
	}
	cur := *m.means.at(m.means.n - 1)
	if m.anchored {
		return cur - m.reference
	}
	ref := *m.means.at(m.means.n - 1 - m.refLag)
	return cur - ref
}

// K returns the pseudo-anomaly count K = |Δm|·N, zero when the mean has
// not dropped (Δm ≥ 0) or the monitor is not ready, clamped to [0, N].
func (m *Monitor) K() int {
	dm := m.DeltaM()
	if !m.Ready() || dm >= 0 {
		return 0
	}
	k := int(-dm * float64(m.n))
	if k < 1 {
		k = 1 // a detected drop always yields at least one pseudo-label
	}
	if k > m.n {
		k = m.n
	}
	return k
}

// TopK returns the K highest-scoring samples in the window, ordered by
// descending score (ties by recency). The returned slice is fresh.
func (m *Monitor) TopK() []Sample {
	k := m.K()
	if k == 0 {
		return nil
	}
	sorted := m.Window()
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		return sorted[i].Seq > sorted[j].Seq
	})
	return sorted[:k]
}

// BottomK returns the k lowest-scoring samples (most confidently normal),
// used as the non-anomalous anchors of the adaptation loss.
func (m *Monitor) BottomK(k int) []Sample {
	if k <= 0 || m.buf.n == 0 {
		return nil
	}
	if k > m.buf.n {
		k = m.buf.n
	}
	sorted := m.Window()
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score < sorted[j].Score
		}
		return sorted[i].Seq > sorted[j].Seq
	})
	return sorted[:k]
}

// Window returns a fresh copy of the window's samples, oldest first.
func (m *Monitor) Window() []Sample {
	return m.buf.appendTo(make([]Sample, 0, m.buf.n))
}

// MemBytes estimates the monitor's resident bytes for the memory ledger:
// the retained window frames and the mean history. The frames dominate:
// every pushed frame is held until it leaves the ring, so a full window
// costs N × frame size regardless of how small the rest of the stream
// state is. Per-sample scalars — score, sequence number, gate score — are
// not charged.
func (m *Monitor) MemBytes() int64 {
	var b int64
	for i := 0; i < m.buf.n; i++ {
		b += m.buf.at(i).memBytes()
	}
	return b + int64(m.means.n)*8
}

// Reset clears all state including any anchored reference.
func (m *Monitor) Reset() {
	m.buf = ring[Sample]{}
	m.means = ring[float64]{}
	m.seq = 0
	m.reference = 0
	m.hasRef = false
}

// MonitorState is the monitor's complete mutable state and its section of
// the checkpoint, the sample window stored by column. Together with the
// construction parameters (window size, reference lag, mode) it determines
// every future monitor decision, so a checkpoint that round-trips it
// resumes the deployment's pseudo-label selection
// bit-exactly.
type MonitorState struct {
	N         int              `json:"n"`
	RefLag    int              `json:"ref_lag"`
	Anchored  bool             `json:"anchored"`
	Reference tensor.F64Bits   `json:"reference"`
	HasRef    bool             `json:"has_ref"`
	Seq       int              `json:"seq"`
	Frames    []*tensor.Tensor `json:"frames"`
	Scores    tensor.Floats    `json:"scores"`
	Seqs      []int            `json:"seqs"`
	Means     tensor.Floats    `json:"means"`
}

// ExportState describes the monitor's full state, oldest sample and mean
// first. Sample frames are shared when held at float64 (they are immutable
// once pushed); frames the monitor stores narrowed are materialized to
// canonical float64, so exported state is width-independent and
// checkpoints taken at f32 restore bit-exactly at either width. The sample
// columns and the mean history are read out of the rings afresh, the
// scores and means in one allocation; gate scores are derived state and
// are not exported. Never write through the result.
func (m *Monitor) ExportState() MonitorState {
	s := MonitorState{
		N:         m.n,
		RefLag:    m.refLag,
		Anchored:  m.anchored,
		Reference: tensor.F64Bits(m.reference),
		HasRef:    m.hasRef,
		Seq:       m.seq,
	}
	n := m.buf.n
	if n+m.means.n == 0 {
		return s
	}
	cols := make(tensor.Floats, n, n+m.means.n)
	if m.means.n > 0 {
		s.Means = m.means.appendTo(cols[n:])
	}
	if n > 0 {
		s.Frames = make([]*tensor.Tensor, n)
		s.Scores = cols[:n:n]
		s.Seqs = make([]int, n)
	}
	for i := 0; i < n; i++ {
		smp := m.buf.at(i)
		s.Frames[i], s.Scores[i], s.Seqs[i] = smp.Pix(), smp.Score, smp.Seq
	}
	return s
}

// Validate rejects state that could not have come from a valid monitor
// (it may come from outside the process); nothing is touched.
func (s *MonitorState) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("core: monitor state window %d must be ≥2", s.N)
	}
	if s.RefLag < 1 {
		return fmt.Errorf("core: monitor state reference lag %d must be ≥1", s.RefLag)
	}
	if len(s.Frames) != len(s.Scores) || len(s.Frames) != len(s.Seqs) {
		return fmt.Errorf("core: monitor state sample columns disagree: %d frames, %d scores, %d seqs",
			len(s.Frames), len(s.Scores), len(s.Seqs))
	}
	if len(s.Frames) > s.N {
		return fmt.Errorf("core: monitor state has %d samples for window %d", len(s.Frames), s.N)
	}
	for i, f := range s.Frames {
		if f == nil {
			return fmt.Errorf("core: monitor state sample %d has no frame", i)
		}
	}
	return nil
}

// ImportState replaces the monitor's state with a previously exported one,
// including the construction parameters; invalid state leaves the monitor
// untouched. Frames are shared with s, as a pushed frame is with its caller.
// The imported samples have no gate scores (see TrackGateScores), and only
// the last RefLag+1 means are kept, the only ones a decision reads.
func (m *Monitor) ImportState(s MonitorState) error {
	if err := s.Validate(); err != nil {
		return err
	}
	m.n = s.N
	m.refLag = s.RefLag
	m.anchored = s.Anchored
	m.reference = float64(s.Reference)
	m.hasRef = s.HasRef
	m.seq = s.Seq
	m.buf = ring[Sample]{}
	for i, f := range s.Frames {
		smp := Sample{Frame: f, Score: s.Scores[i], Seq: s.Seqs[i], gate: math.NaN()}
		if m.frameWidth == tensor.F32 {
			smp = m.narrow(smp)
		}
		m.buf.push(smp, m.n)
	}
	m.means = ring[float64]{}
	for _, v := range s.Means {
		m.means.push(v, m.refLag+1)
	}
	return nil
}

// Clone returns an independent copy of the monitor's current state: the
// sample window with its gate scores, the bounded mean history and the
// reference. Sample frames are shared (they are immutable once pushed); both
// rings are fresh, so pushes into the original never affect the clone. The serving
// runtime snapshots the monitor this way when an adaptation round is
// dispatched asynchronously: the adapter selects pseudo-labels from the
// window as it stood at the trigger frame while scoring keeps pushing.
func (m *Monitor) Clone() *Monitor {
	c := &Monitor{
		n:          m.n,
		refLag:     m.refLag,
		anchored:   m.anchored,
		reference:  m.reference,
		hasRef:     m.hasRef,
		seq:        m.seq,
		gates:      m.gates,
		frameWidth: m.frameWidth,
		buf:        m.buf.clone(),
		means:      m.means.clone(),
	}
	return c
}

// ring is a fixed-capacity FIFO: its slots are allocated on the first
// push, and a push into a full ring overwrites the oldest element.
type ring[T any] struct {
	s    []T
	head int // slot of the oldest element
	n    int // elements held
}

// push appends v, evicting the oldest element once size are held. size
// must not change over the ring's life (a reset ring may take a new one).
func (r *ring[T]) push(v T, size int) {
	if r.s == nil {
		r.s = make([]T, size)
	}
	if r.n < len(r.s) {
		r.s[r.slot(r.n)] = v
		r.n++
		return
	}
	r.s[r.head] = v
	r.head = r.slot(1)
}

// slot maps the i-th oldest element to its slot.
func (r *ring[T]) slot(i int) int {
	if i += r.head; i >= len(r.s) {
		i -= len(r.s)
	}
	return i
}

// at returns the i-th oldest element, 0 ≤ i < n.
func (r *ring[T]) at(i int) *T { return &r.s[r.slot(i)] }

// appendTo appends the elements to dst, oldest first.
func (r *ring[T]) appendTo(dst []T) []T {
	if end := r.head + r.n; end <= len(r.s) {
		return append(dst, r.s[r.head:end]...)
	}
	dst = append(dst, r.s[r.head:]...)
	return append(dst, r.s[:r.head+r.n-len(r.s)]...)
}

// clone returns a ring with its own copy of the slots.
func (r *ring[T]) clone() ring[T] {
	return ring[T]{s: append([]T(nil), r.s...), head: r.head, n: r.n}
}
