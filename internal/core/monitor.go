package core

import (
	"fmt"
	"sort"

	"edgekg/internal/tensor"
)

// Sample is one monitored data point: a frame, its anomaly score and its
// arrival sequence number.
type Sample struct {
	// Frame holds the raw (1 × pixDim) pixel features at the canonical
	// float64 width. It is nil when the owning monitor stores frames at
	// float32 — read frames through Pix, which handles both layouts.
	Frame *tensor.Tensor
	Score float64
	Seq   int

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
type Monitor struct {
	n      int
	refLag int

	anchored  bool
	reference float64
	hasRef    bool

	buf   []Sample  // ring of the last n samples
	means []float64 // windowed mean history, one entry per Push
	seq   int

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
		for i := range m.buf {
			m.buf[i] = m.narrow(m.buf[i])
		}
	}
}

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
	smp := Sample{Frame: frame, Score: score, Seq: m.seq}
	if m.frameWidth == tensor.F32 {
		smp = m.narrow(smp)
	}
	m.buf = append(m.buf, smp)
	m.seq++
	if len(m.buf) > m.n {
		m.buf = m.buf[1:]
	}
	m.means = append(m.means, m.mean())
	// Bound the mean history: only the last refLag+1 entries matter.
	if len(m.means) > m.refLag+1 {
		m.means = m.means[len(m.means)-m.refLag-1:]
	}
	if m.anchored && !m.hasRef && len(m.buf) == m.n {
		m.reference = m.mean()
		m.hasRef = true
	}
}

func (m *Monitor) mean() float64 {
	if len(m.buf) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range m.buf {
		s += x.Score
	}
	return s / float64(len(m.buf))
}

// Mean returns the current windowed mean m_t.
func (m *Monitor) Mean() float64 { return m.mean() }

// Ready reports whether the window is full and the t′ reference exists.
func (m *Monitor) Ready() bool {
	if m.anchored {
		return len(m.buf) == m.n && m.hasRef
	}
	return len(m.buf) == m.n && len(m.means) > m.refLag
}

// DeltaM returns Δm = m_t − m_t′. It is meaningful only when Ready.
func (m *Monitor) DeltaM() float64 {
	if !m.Ready() {
		return 0
	}
	cur := m.means[len(m.means)-1]
	if m.anchored {
		return cur - m.reference
	}
	ref := m.means[len(m.means)-1-m.refLag]
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
	sorted := append([]Sample(nil), m.buf...)
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
	if k <= 0 || len(m.buf) == 0 {
		return nil
	}
	if k > len(m.buf) {
		k = len(m.buf)
	}
	sorted := append([]Sample(nil), m.buf...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score < sorted[j].Score
		}
		return sorted[i].Seq > sorted[j].Seq
	})
	return sorted[:k]
}

// MemBytes estimates the monitor's resident bytes for the memory ledger.
// The retained window frames dominate: every pushed frame is held until it
// leaves the ring, so a full window costs N × frame size regardless of how
// small the rest of the stream state is.
func (m *Monitor) MemBytes() int64 {
	var b int64
	for _, s := range m.buf {
		b += s.memBytes()
	}
	return b + int64(len(m.means))*8
}

// Reset clears all state including any anchored reference.
func (m *Monitor) Reset() {
	m.buf = nil
	m.means = nil
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

// ExportState describes the monitor's full state. The mean history is the
// live one and sample frames are shared when held at float64 (they are
// immutable once pushed); frames the monitor stores narrowed are
// materialized to canonical float64, so exported state is width-independent
// and checkpoints taken at f32 restore bit-exactly at either width. Only the
// sample columns are built afresh. The result is valid until the monitor is
// next written (its next Push or ImportState); encode it first, and never
// write through it.
func (m *Monitor) ExportState() MonitorState {
	s := MonitorState{
		N:         m.n,
		RefLag:    m.refLag,
		Anchored:  m.anchored,
		Reference: tensor.F64Bits(m.reference),
		HasRef:    m.hasRef,
		Seq:       m.seq,
		Means:     m.means,
	}
	if n := len(m.buf); n > 0 {
		s.Frames = make([]*tensor.Tensor, n)
		s.Scores = make(tensor.Floats, n)
		s.Seqs = make([]int, n)
	}
	for i, smp := range m.buf {
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
	m.buf = make([]Sample, len(s.Frames))
	for i, f := range s.Frames {
		m.buf[i] = Sample{Frame: f, Score: s.Scores[i], Seq: s.Seqs[i]}
		if m.frameWidth == tensor.F32 {
			m.buf[i] = m.narrow(m.buf[i])
		}
	}
	m.means = append([]float64(nil), s.Means...)
	return nil
}

// Clone returns an independent copy of the monitor's current state: the
// sample window, the bounded mean history and the reference. Sample frames
// are shared (they are immutable once pushed); all bookkeeping slices are
// fresh, so pushes into the original never affect the clone. The serving
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
		frameWidth: m.frameWidth,
	}
	c.buf = append([]Sample(nil), m.buf...)
	c.means = append([]float64(nil), m.means...)
	return c
}
