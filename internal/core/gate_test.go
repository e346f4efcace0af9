package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"edgekg/internal/flops"
	"edgekg/internal/tensor"
)

// TestScoreFramesMatchesOneFrameScoreVideo pins the premise of gate scores:
// a served frame's float64 score is its static-window score, so a monitor
// may keep it for the loss gate's probe. On every backend, at one worker
// and at four, for batches of 1, 5 and 300 frames over a 2-KG detector —
// deployed, after an in-place bank write and after a node is pruned and
// replaced — row i of scoreFrames (and of ScoreFrames) has exactly the bits
// of a one-frame ScoreVideo of row i.
func TestScoreFramesMatchesOneFrameScoreVideo(t *testing.T) {
	det := twoKGDetector(t)
	det.Deploy()
	det.SetPrecision(PrecisionF64) // also under an EDGEKG_PRECISION=f32 run
	rng := rand.New(rand.NewSource(101))
	sizes := []int{1, 5, 300}
	batches := map[int]*tensor.Tensor{}
	for _, n := range sizes {
		batches[n] = tensor.RandN(rng, 1, n, det.Space().PixDim())
	}
	grid := func(stage string) {
		onGrid(t, stage, func(ctx string) {
			for _, n := range sizes {
				ctx := fmt.Sprintf("%s/frames=%d", ctx, n)
				b := batches[n]
				served := make([]float64, n)
				for i := range served {
					served[i] = det.ScoreVideo(tensor.FromSlice(b.Row(i), 1, b.Cols()))[0]
				}
				requireSameBits(t, ctx, served, scoreFrames(det, b))
				requireSameBits(t, ctx+"/exported", served, det.ScoreFrames(b))
			}
		})
	}
	grid("deployed")

	before := scoreFrames(det, batches[5])
	m := det.GNN(0)
	page := m.Tokens().Bank(m.Tokens().NodeIDs()[0]).Data.Data()
	for i := range page {
		page[i] += 0.25
	}
	if slices.Equal(scoreFrames(det, batches[5]), before) {
		t.Fatal("scores unchanged after an in-place bank update — fixture is vacuous")
	}
	grid("bank-updated")

	g := det.GNN(1).Graph()
	if _, err := g.ReplaceNode(rng, det.GNN(1).Tokens().NodeIDs()[0], "created-1", nil, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := det.GNN(1).Rebind(); err != nil {
		t.Fatal(err)
	}
	grid("rebound")
}

// selectionOf rebuilds the selection Step probes on mon: the capped top-K
// pseudo-anomalies, then the normal anchors, with their targets.
func selectionOf(a *Adapter, mon *Monitor) ([]Sample, []float64) {
	positives := mon.TopK()
	if maxK := int(a.cfg.MaxKFrac * float64(mon.N())); maxK >= 1 && len(positives) > maxK {
		positives = positives[:maxK]
	}
	var targets []float64
	for range positives {
		targets = append(targets, 1)
	}
	negatives := mon.BottomK(a.cfg.NormalAnchors)
	for range negatives {
		targets = append(targets, 0)
	}
	return append(slices.Clone(positives), negatives...), targets
}

// gatedSkipLossRound is skipLossRound with the monitor tracking gate
// scores and every window sample given one under the adapter's banks.
func gatedSkipLossRound(t *testing.T, det *Detector, seed int64) (*Adapter, *Monitor) {
	t.Helper()
	a, mon, _, _ := skipLossRound(t, det, seed)
	mon.TrackGateScores()
	a.Rescore(mon)
	return a, mon
}

// TestGatedProbeMatchesScoredProbe pins the loss gate's reading of gate
// scores: over a selection whose every sample has one, whose every other
// sample has one, and which has none, probeLoss returns the same bits, and
// the fully gated probe — like a skip-loss Step over a monitor whose
// selection is gated — bills no operation.
func TestGatedProbeMatchesScoredProbe(t *testing.T) {
	det := twoKGDetector(t)
	det.Deploy()
	det.SetPrecision(PrecisionF64)
	a, mon := gatedSkipLossRound(t, det, 102)
	sel, targets := selectionOf(a, mon)
	for i, s := range sel {
		if _, ok := s.GateScore(); !ok {
			t.Fatalf("selected sample %d has no gate score after Rescore", i)
		}
	}
	strip := func(keep func(i int) bool) []Sample {
		out := slices.Clone(sel)
		for i := range out {
			if !keep(i) {
				out[i].gate = math.NaN()
			}
		}
		return out
	}
	want := a.probeLoss(strip(func(int) bool { return false }), targets)
	for name, keep := range map[string]func(int) bool{
		"gated":       func(int) bool { return true },
		"half-gated":  func(i int) bool { return i%2 == 0 },
		"first-gated": func(i int) bool { return i == 0 },
	} {
		requireSameBits(t, name, []float64{want}, []float64{a.probeLoss(strip(keep), targets)})
	}
	if ops, _ := flops.Count(func() { a.probeLoss(sel, targets) }); ops != 0 {
		t.Errorf("fully gated probe billed %d ops, want 0", ops)
	}
	stepSkips(t, a, mon)
	if ops, _ := flops.Count(func() { stepSkips(t, a, mon) }); ops != 0 {
		t.Errorf("skip-loss Step over a gated selection billed %d ops, want 0", ops)
	}
}

// TestGatedSkipLossStepAllocCeiling keeps a round the loss gate stops over
// a gated selection at the cost of the selection and the report: nothing
// is stacked or scored. Measured 12 allocs on the core rig, as many as the
// plain path since the probe's batch moved into a pooled workspace; under
// the race detector no workspace is lent, so the count is the same.
func TestGatedSkipLossStepAllocCeiling(t *testing.T) {
	r := newRig(t, "Stealing", 11)
	r.det.Deploy()
	a, mon := gatedSkipLossRound(t, r.det, 103)
	stepSkips(t, a, mon)
	got := testing.AllocsPerRun(200, func() { stepSkips(t, a, mon) })
	t.Logf("gated skip-loss Step: %.2f allocs", got)
	if ceiling := 14.0; got > ceiling {
		t.Errorf("gated skip-loss Step: %.0f allocs, ceiling %.0f", got, ceiling)
	}
}

// TestRescoreGivesGateScores pins the monitor side of gate scores: a
// tracking monitor's Push keeps the pushed score, Rescore replaces every
// window sample's with its scoreFrames score under the adapter's detector,
// Clone carries them and ImportState drops them; a monitor that does not
// track them never has one, Rescore included.
func TestRescoreGivesGateScores(t *testing.T) {
	r := newRig(t, "Stealing", 11)
	r.det.Deploy()
	r.det.SetPrecision(PrecisionF64)
	a, err := NewAdapter(r.det, DefaultAdaptConfig(), rand.New(rand.NewSource(104)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(105))
	tracked, _ := NewAnchoredMonitor(8)
	plain, _ := NewAnchoredMonitor(8)
	tracked.TrackGateScores()
	for i := 0; i < 11; i++ {
		pix := tensor.RandN(rng, 1, 1, r.space.PixDim())
		tracked.Push(pix, float64(i)/16)
		plain.Push(pix, float64(i)/16)
	}
	for _, s := range tracked.Window() {
		if g, ok := s.GateScore(); !ok || g != s.Score {
			t.Fatalf("sample %d: pushed gate score %v (%v), want its score %v", s.Seq, g, ok, s.Score)
		}
	}
	a.Rescore(tracked)
	a.Rescore(plain)
	win := tracked.Window()
	frames := make([]*tensor.Tensor, len(win))
	for i, s := range win {
		frames[i] = s.Frame
	}
	want := scoreFrames(r.det, stackFrames(frames))
	got := make([]float64, len(win))
	for i, s := range win {
		got[i], _ = s.GateScore()
	}
	requireSameBits(t, "rescored", want, got)
	for i, s := range tracked.Clone().Window() {
		if g, _ := s.GateScore(); math.Float64bits(g) != math.Float64bits(want[i]) {
			t.Fatalf("clone sample %d: gate score %v, want %v", i, g, want[i])
		}
	}
	for name, m := range map[string]*Monitor{"untracked": plain, "imported": importedCopy(t, tracked)} {
		for _, s := range m.Window() {
			if g, ok := s.GateScore(); ok {
				t.Fatalf("%s monitor: sample %d has gate score %v", name, s.Seq, g)
			}
		}
	}
}

// importedCopy is a tracking monitor that imported m's exported state.
func importedCopy(t *testing.T, m *Monitor) *Monitor {
	t.Helper()
	c, _ := NewAnchoredMonitor(2)
	c.TrackGateScores()
	if err := c.ImportState(m.ExportState()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMonitorPushAllocFree pins the ring: once a float64 monitor's window
// and mean history are full, Push allocates nothing, whether or not it
// tracks gate scores (0.529 allocs a push at N = 32 when both were
// re-grown slices). It counts every allocation of 1000 pushes, since
// testing.AllocsPerRun truncates the average and would read 0.529 as 0.
func TestMonitorPushAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pix := tensor.New(1, 4)
	for name, mk := range map[string]func() *Monitor{
		"anchored": func() *Monitor { m, _ := NewAnchoredMonitor(32); return m },
		"sliding":  func() *Monitor { m, _ := NewMonitor(32, 16); return m },
		"gated":    func() *Monitor { m, _ := NewAnchoredMonitor(32); m.TrackGateScores(); return m },
	} {
		m := mk()
		for i := 0; i < 64; i++ {
			m.Push(pix, 0.5)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			m.Push(pix, 0.25)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("1000 pushes into a full %s monitor: %d allocs, want 0", name, n)
		}
	}
}

// sliceMonitor is the monitor as it was before its window and mean
// history became rings: append, then drop from the front.
type sliceMonitor struct {
	n, refLag int
	anchored  bool
	reference float64
	hasRef    bool
	buf       []Sample
	means     []float64
	seq       int
}

func (m *sliceMonitor) push(frame *tensor.Tensor, score float64) {
	m.buf = append(m.buf, Sample{Frame: frame, Score: score, Seq: m.seq})
	m.seq++
	if len(m.buf) > m.n {
		m.buf = m.buf[1:]
	}
	m.means = append(m.means, m.mean())
	if len(m.means) > m.refLag+1 {
		m.means = m.means[len(m.means)-m.refLag-1:]
	}
	if m.anchored && !m.hasRef && len(m.buf) == m.n {
		m.reference, m.hasRef = m.mean(), true
	}
}

func (m *sliceMonitor) mean() float64 {
	s := 0.0
	for _, x := range m.buf {
		s += x.Score
	}
	return s / float64(len(m.buf))
}

// TestMonitorRingMatchesSlices pins the ring to the slices it replaced,
// bit for bit: after every push through several wraps, in both reference
// modes and with tied scores, the exported state (oldest first), Δm, K and
// the TopK/BottomK selections agree; a clone ignores later pushes into its
// source, and an imported export exports the same state again.
func TestMonitorRingMatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for _, anchored := range []bool{true, false} {
		const n, lag = 6, 3
		var m *Monitor
		if anchored {
			m, _ = NewAnchoredMonitor(n)
		} else {
			m, _ = NewMonitor(n, lag)
		}
		ref := &sliceMonitor{n: n, refLag: m.refLag, anchored: anchored}
		var clone *Monitor
		var cloneState MonitorState
		for i := 0; i < 5*n+1; i++ {
			pix := tensor.RandN(rng, 1, 1, 3)
			score := float64(rng.Intn(4)) / 4 // ties exercise the recency rule
			m.Push(pix, score)
			ref.push(pix, score)
			ctx := fmt.Sprintf("anchored=%v push %d", anchored, i)

			got := m.ExportState()
			if len(got.Frames) != len(ref.buf) {
				t.Fatalf("%s: %d samples, want %d", ctx, len(got.Frames), len(ref.buf))
			}
			for j, s := range ref.buf {
				if got.Frames[j] != s.Frame || got.Scores[j] != s.Score || got.Seqs[j] != s.Seq {
					t.Fatalf("%s: exported sample %d is (%v, %d), want (%v, %d)", ctx, j, got.Scores[j], got.Seqs[j], s.Score, s.Seq)
				}
			}
			requireSameBits(t, ctx+" means", ref.means, got.Means)
			if got.Seq != ref.seq || float64(got.Reference) != ref.reference || got.HasRef != ref.hasRef {
				t.Fatalf("%s: exported seq/reference %d/%v/%v, want %d/%v/%v", ctx, got.Seq, got.Reference, got.HasRef, ref.seq, ref.reference, ref.hasRef)
			}
			if m.Ready() {
				wantDM := ref.means[len(ref.means)-1] - ref.reference
				if !anchored {
					wantDM = ref.means[len(ref.means)-1] - ref.means[len(ref.means)-1-lag]
				}
				requireSameBits(t, ctx+" Δm", []float64{wantDM}, []float64{m.DeltaM()})
			}
			if want := sortedRef(ref.buf, false)[:min(4, len(ref.buf))]; !slices.Equal(seqsOf(m.BottomK(4)), seqsOf(want)) {
				t.Fatalf("%s: BottomK %v, want %v", ctx, seqsOf(m.BottomK(4)), seqsOf(want))
			}
			if k := m.K(); k > 0 && !slices.Equal(seqsOf(m.TopK()), seqsOf(sortedRef(ref.buf, true)[:k])) {
				t.Fatalf("%s: TopK %v, want %v", ctx, seqsOf(m.TopK()), seqsOf(sortedRef(ref.buf, true)[:k]))
			}

			c, _ := NewAnchoredMonitor(2)
			if err := c.ImportState(got); err != nil {
				t.Fatal(err)
			}
			if again := c.ExportState(); !sameMonitorState(again, got) {
				t.Fatalf("%s: imported export re-exports %+v, want %+v", ctx, again, got)
			}
			if i == 2*n+1 {
				clone, cloneState = m.Clone(), got
			}
		}
		if !sameMonitorState(clone.ExportState(), cloneState) {
			t.Fatalf("anchored=%v: a clone moved with its source's later pushes", anchored)
		}
	}
}

// sortedRef orders samples by score (descending for top, ascending
// otherwise), ties to the most recent — the selection rule.
func sortedRef(buf []Sample, top bool) []Sample {
	out := slices.Clone(buf)
	slices.SortStableFunc(out, func(a, b Sample) int {
		if a.Score != b.Score {
			if (a.Score > b.Score) == top {
				return -1
			}
			return 1
		}
		return b.Seq - a.Seq
	})
	return out
}

func sameMonitorState(a, b MonitorState) bool {
	return a.N == b.N && a.RefLag == b.RefLag && a.Anchored == b.Anchored &&
		math.Float64bits(float64(a.Reference)) == math.Float64bits(float64(b.Reference)) &&
		a.HasRef == b.HasRef && a.Seq == b.Seq && slices.Equal(a.Frames, b.Frames) &&
		slices.Equal(a.Scores, b.Scores) && slices.Equal(a.Seqs, b.Seqs) && slices.Equal(a.Means, b.Means)
}
