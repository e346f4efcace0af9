// Package serve is the multi-stream edge serving runtime: one process,
// one resident frozen detector backbone, N cameras. Each stream owns the
// full per-deployment state of Fig. 2(C) — sliding score monitor,
// mission-KG copies with their token banks, continuous adapter, score
// history and FLOPs ledger — while the heavy read-only backbone (joint
// embedding space, GNN dense/BatchNorm layers, temporal transformer,
// decision head) and the worker pool are shared across all streams.
//
// Scoring runs concurrently across streams on the shared pool. Adaptation
// rounds are dispatched asynchronously with snapshot/swap semantics: at
// the trigger frame the stream snapshots its monitor window and its
// scoring state, keeps scoring on the snapshot while the adapter updates
// the live per-stream KGs in the background, and swaps the adapted state
// in at a fixed frame offset (AdaptLagFrames). Because the swap point is
// defined in frames — not wall time — every stream's score trajectory is
// a pure function of its own input and seed: bit-identical at any worker
// count and independent of what other streams are doing, which is what
// the determinism/isolation test suite pins.
//
// A Stream is also the whole single-camera deployment of the paper: built
// bare over the caller's detector (NewStream(0, det, cfg, src, nil), lag 0,
// exclusive metering) and driven with Process, it adapts det in place —
// what the experiments run. Server is the same context multiplexed across
// many cameras; a 1-stream lag-0 Server scores bit-identically to the bare
// Stream.
package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/parallel"
	"edgekg/internal/rng"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// Ledger phase names, shared by bare streams and servers so cost-table
// code reads either ledger.
const (
	PhaseScoring    = "scoring"
	PhaseAdaptation = "adaptation"
)

// StreamConfig controls one stream's deployment behaviour.
type StreamConfig struct {
	// MonitorN is the monitor's sliding window size (the N of K=|Δm|·N).
	MonitorN int
	// MonitorLag is the t′ reference lag in pushes (sliding mode only).
	MonitorLag int
	// AnchoredReference freezes t′ at the first full window after
	// deployment (see core.NewAnchoredMonitor).
	AnchoredReference bool
	// AdaptEveryFrames is the adaptation cadence: one round per this many
	// processed frames. 0 disables adaptation — the static-KG arm.
	AdaptEveryFrames int
	// Adapt configures the adapter (ignored when adaptation is disabled).
	Adapt core.AdaptConfig
	// Device models energy/latency for the cost report.
	Device flops.DeviceProfile
	// AdaptLagFrames is how many frames the stream keeps scoring on its
	// pre-round state while an adaptation round runs in the background;
	// the round's result is swapped in before frame trigger+lag+1. 0 runs
	// rounds synchronously at the trigger frame — the paper's blocking
	// single-camera deployment. The lag should stay below AdaptEveryFrames;
	// an overdue round is force-joined when the next trigger arrives.
	AdaptLagFrames int
	// ScoreHistory keeps the most recent scores for observability
	// (Stream.Scores). 0 disables recording.
	ScoreHistory int
	// Precision selects the stream's scoring width (core.Precision): the
	// zero value defers to EDGEKG_PRECISION and defaults to the bit-exact
	// float64 path; f32 runs ScoreVideo's engine at float32 and
	// narrows the monitor's retained window frames, roughly
	// halving per-stream resident bytes. Not part of the checkpoint
	// config pin — checkpoints store canonical float64 state, so one
	// taken under either width restores under the other.
	Precision core.Precision
}

// DefaultStreamConfig returns the experiment suite's per-stream settings
// with a quarter-cadence adaptation lag.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		MonitorN:          64,
		MonitorLag:        32,
		AnchoredReference: true,
		AdaptEveryFrames:  64,
		Adapt:             core.DefaultAdaptConfig(),
		Device:            flops.JetsonClass(),
		AdaptLagFrames:    16,
	}
}

// Result reports one processed frame.
type Result struct {
	// Stream and Seq identify the frame: Seq is its 0-based index within
	// the stream.
	Stream, Seq int
	// Score is the anomaly probability pA ∈ [0,1].
	Score float64
	// Adapt is the report of the adaptation round whose effect became
	// visible at this frame: the round run synchronously at this frame
	// (AdaptLagFrames == 0), or the background round swapped in before
	// this frame was scored. Zero-valued otherwise.
	Adapt core.AdaptReport
	// AdaptApplied is true when Adapt carries a round's report.
	AdaptApplied bool
	// Err reports an adaptation failure — the frame was still scored and
	// entered the monitor — or, wrapping ErrBadFrame, a refused frame.
	Err error
}

// ErrBadFrame reports a frame whose score is not finite (features so large
// the encoder overflows, or NaN/Inf features from an in-process caller).
// The frame is refused: a NaN in the monitor window would poison every Δm
// and the selection rule's gates for a whole window.
var ErrBadFrame = errors.New("serve: frame scores non-finite")

// Stream is one camera's deployment context. It is not safe for
// concurrent use — one goroutine processes a stream's frames in arrival
// order (Server gives each stream its own loop); the concurrency a Stream
// manages internally is the overlap between its own scoring and its own
// background adaptation round.
type Stream struct {
	id      int
	det     *core.Detector // live per-stream state, owned by the adapter
	mon     *core.Monitor
	adapter *core.Adapter
	cfg     StreamConfig
	ledger  *flops.Ledger
	// src is the adapter's random source. When it is a *rng.Source the
	// stream is checkpointable (the state round-trips through Export).
	src rand.Source

	// shared selects the metering mode: nil meters phases exclusively on
	// own (exact; requires that nothing else computes concurrently,
	// i.e. a bare single-stream synchronous deployment), non-nil
	// reads deltas of the shared process-wide counter around each phase —
	// safe under concurrency, exact whenever phases do not overlap, and an
	// over-attribution (never an undercount) when they do.
	shared *flops.Counter
	// own is exclusive metering's counter, reused by every phase (nil
	// when shared is set).
	own *flops.Counter

	// scoreDet is the state frames are scored on: det itself, or a frozen
	// snapshot while a background adaptation round is in flight.
	scoreDet *core.Detector
	pending  *pendingRound

	frames      int
	adaptRounds int
	triggered   int
	pruned      int
	created     int
	scores      []float64
	lastErr     error

	// mem, when set, receives this stream's resident-bytes breakdown
	// after every state change (see Server memory budget).
	mem *flops.MemLedger
	// Spill support: an evicted stream checkpoints its heavy state to
	// spillPath under spillDir and rebuilds it lazily — bit-exactly, via
	// the warm-restart path — at the next frame. rebuild re-clones the
	// shared backbone.
	spillDir  string
	rebuild   func() (*core.Detector, error)
	evicted   bool
	spillPath string
	evictions int
	// spilledPending records that the spill file carries a completed-but-
	// unswapped adaptation round, so Sync knows an evicted stream still
	// has a round to settle (rehydrate + join) — otherwise drain-time
	// stats would miss rounds on evicted streams but not on resident ones.
	spilledPending bool
	// released marks a terminal slot: the stream moved to another worker
	// (migration or failover) and its state was dropped for good. Only the
	// counters and the cost ledger remain readable.
	released bool
}

// pendingRound is one in-flight background adaptation.
type pendingRound struct {
	g         parallel.Group
	swapFrame int // processed-frame count at which the result is due
	rep       core.AdaptReport
	err       error
}

// NewStream deploys one stream context over det. The detector is frozen
// (token banks unfrozen when adaptation is enabled) as a side effect. det
// is used directly — callers wanting per-stream isolation over a shared
// backbone pass a core.Detector.CloneCOW copy, which is what Server
// does. src seeds the adapter's randomness; pass a *rng.Source when the
// stream must be checkpointable (Export fails on other source types,
// whose state cannot be captured). shared selects the metering mode (see
// the field doc); exclusive metering is only valid with synchronous
// adaptation, because a background round's counter swap would race the
// scoring meter.
func NewStream(id int, det *core.Detector, cfg StreamConfig, src rand.Source, shared *flops.Counter) (*Stream, error) {
	if cfg.AdaptEveryFrames < 0 {
		return nil, fmt.Errorf("serve: adaptation cadence %d must be ≥0", cfg.AdaptEveryFrames)
	}
	if cfg.AdaptLagFrames < 0 {
		return nil, fmt.Errorf("serve: adaptation lag %d must be ≥0", cfg.AdaptLagFrames)
	}
	if cfg.ScoreHistory < 0 {
		return nil, fmt.Errorf("serve: score history %d must be ≥0", cfg.ScoreHistory)
	}
	if shared == nil && cfg.AdaptLagFrames > 0 {
		return nil, fmt.Errorf("serve: exclusive metering requires synchronous adaptation (AdaptLagFrames 0, got %d)", cfg.AdaptLagFrames)
	}
	mon, adapter, err := deployParts(det, cfg, src)
	if err != nil {
		return nil, err
	}
	st := &Stream{id: id, det: det, mon: mon, adapter: adapter, cfg: cfg, ledger: flops.NewLedger(), src: src, shared: shared, scoreDet: det}
	if shared == nil {
		st.own = new(flops.Counter)
	}
	return st, nil
}

// deployParts builds the per-stream containers around det — the monitor
// (anchored or sliding, frames narrowed at f32) and, for an adaptive
// stream, the adapter — and puts det into its deployed state: scoring
// width set, frozen, token banks left trainable only when adapting. Both
// construction and rehydration go through it.
func deployParts(det *core.Detector, cfg StreamConfig, src rand.Source) (*core.Monitor, *core.Adapter, error) {
	var mon *core.Monitor
	var err error
	if cfg.AnchoredReference {
		mon, err = core.NewAnchoredMonitor(cfg.MonitorN)
	} else {
		mon, err = core.NewMonitor(cfg.MonitorN, cfg.MonitorLag)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	det.SetPrecision(cfg.Precision)
	f32 := cfg.Precision.Resolve() == core.PrecisionF32
	if f32 {
		mon.SetFrameWidth(tensor.F32)
	}
	if cfg.AdaptEveryFrames <= 0 {
		det.Deploy()
		return mon, nil, nil
	}
	adapter, err := core.NewAdapter(det, cfg.Adapt, rand.New(src))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	if !f32 {
		// A float64 served score is the frame's static-window score, the one
		// the loss gate's probe computes (a served window is the frame's
		// static window), so the monitor keeps it as the sample's gate score
		// and the probe does not score the frame again. The stream rescores
		// the window whenever the live banks change: after a round that
		// trained (rescoreRound) and after a restore (restoreState).
		mon.TrackGateScores()
	}
	return mon, adapter, nil
}

// ID returns the stream's id.
func (st *Stream) ID() int { return st.id }

// Detector returns the stream's live per-stream detector state,
// rehydrating it first if the stream was evicted (nil if rehydration
// fails; the error is retained on Err). While a background round is in
// flight the adapter is mutating it; use Server.Do (or call Sync first)
// before reading token banks or graphs.
func (st *Stream) Detector() *core.Detector {
	if st.released {
		return nil
	}
	if st.EnsureResident() != nil {
		return nil
	}
	return st.det
}

// Monitor returns the stream's score monitor, rehydrating an evicted
// stream first (nil if rehydration fails; the error is retained on Err).
func (st *Stream) Monitor() *core.Monitor {
	if st.released {
		return nil
	}
	if st.EnsureResident() != nil {
		return nil
	}
	return st.mon
}

// SetMemLedger registers the process-wide memory ledger this stream
// reports its resident-bytes breakdown to after every settled state
// change. Call before the first frame.
func (st *Stream) SetMemLedger(l *flops.MemLedger) {
	st.mem = l
	st.updateMem()
}

// EnableSpill arms eviction: the stream may be asked (Evict) to
// checkpoint its heavy state into dir and release it, rebuilding
// bit-exactly at the next frame. rebuild must return a fresh per-stream
// clone of the same backbone the stream was deployed over.
func (st *Stream) EnableSpill(dir string, rebuild func() (*core.Detector, error)) {
	st.spillDir = dir
	st.rebuild = rebuild
}

// Evicted reports whether the stream's heavy state is currently spilled.
func (st *Stream) Evicted() bool { return st.evicted }

// MemBreakdown computes the stream's current resident-bytes breakdown.
// Zero while evicted. Like every Stream method it must not race the
// processing goroutine.
func (st *Stream) MemBreakdown() flops.MemBreakdown {
	var b flops.MemBreakdown
	if st.evicted || st.released {
		return b
	}
	dm := st.det.Mem()
	b.Banks, b.Graphs = dm.BankOwned, dm.GraphOwned
	b.SharedBanks, b.SharedGraphs = dm.BankShared, dm.GraphShared
	b.Monitor = st.mon.MemBytes()
	if st.adapter != nil {
		b.Adapter = st.adapter.MemBytes()
	}
	// len, not cap: append's growth schedule is an allocator detail that
	// differs between an uninterrupted run and a checkpoint-restored one,
	// and the resident figure must be resume-invariant like every other
	// stat.
	b.History = int64(len(st.scores)) * 8
	if st.pending != nil && st.scoreDet != st.det {
		// The round snapshot's privately-owned pages; pages it still
		// shares with the live detector or the backbone are uncharged.
		pm := st.scoreDet.Mem()
		b.Pending = pm.Owned()
	}
	return b
}

// updateMem reports the current breakdown to the process ledger. Only
// called from points where no background round is mutating the detector
// (before dispatch, after join, after evict or rehydrate), because the
// breakdown walks graph and bank storage.
func (st *Stream) updateMem() {
	if st.mem == nil {
		return
	}
	st.mem.Update(st.id, st.MemBreakdown())
}

// Evict checkpoints the stream's heavy state (detector, monitor, adapter,
// any pending round) to the spill directory and releases it, leaving only
// counters, the score history and the FLOPs ledger resident, so Stats and
// Scores stay cheap. The next frame — or any state accessor — rehydrates
// bit-exactly through the warm-restart path, preserving a pending round's
// swap schedule. No-op when already evicted.
func (st *Stream) Evict() error {
	if st.evicted {
		return nil
	}
	if st.released {
		return fmt.Errorf("serve: stream %d is released; nothing to evict", st.id)
	}
	if st.spillDir == "" || st.rebuild == nil {
		return fmt.Errorf("serve: stream %d has no spill directory configured", st.id)
	}
	path := filepath.Join(st.spillDir, fmt.Sprintf("stream-%d.spill.json", st.id))
	if err := st.Save(path); err != nil {
		return fmt.Errorf("serve: evict stream %d: %w", st.id, err)
	}
	st.spilledPending = st.pending != nil
	st.det, st.scoreDet, st.adapter, st.mon, st.pending = nil, nil, nil, nil, nil
	st.evicted = true
	st.spillPath = path
	st.evictions++
	st.updateMem()
	return nil
}

// EnsureResident rehydrates an evicted stream from its spill file. No-op
// when resident. On failure the stream stays evicted and retains the
// error (Err, Stats.LastErr): every later frame retries and fails loudly
// rather than scoring on blank state.
func (st *Stream) EnsureResident() error {
	if !st.evicted {
		return nil
	}
	if err := st.Load(st.spillPath); err != nil {
		st.lastErr = fmt.Errorf("serve: rehydrate stream %d: %w", st.id, err)
		return st.lastErr
	}
	return nil
}

// rehydrate rebuilds an evicted stream's containers over a fresh backbone
// clone and restores ss on top — the spill file's state, or a caller's
// checkpoint replacing it wholesale. Randomness consumed during
// construction is overwritten by the recorded RNG state, so the result is
// bit-exact. The stream turns resident only once the restore succeeded: on
// any failure the clone is discarded and the stream stays evicted with its
// spill file.
func (st *Stream) rehydrate(ss *snapshot.StreamState) error {
	det, err := st.rebuild()
	if err != nil {
		return fmt.Errorf("serve: stream %d clone: %w", st.id, err)
	}
	if st.mon, st.adapter, err = deployParts(det, st.cfg, st.src); err == nil {
		st.det, st.scoreDet = det, det
		err = st.restoreState(ss)
	}
	if err != nil {
		det.DiscardClone()
		st.det, st.scoreDet, st.adapter, st.mon, st.pending = nil, nil, nil, nil, nil
		return err
	}
	st.evicted, st.spilledPending = false, false
	st.dropSpill()
	st.updateMem()
	return nil
}

// Release permanently drops the stream's state: its contents moved to
// another worker (a migrated-away or failed-over slot) and this slot will
// never serve the key again. Unlike Evict nothing is spilled — detector,
// monitor and adapter are discarded, the COW marks the detector placed on
// the shared backbone are rolled back (so the backbone stops paying
// copy-on-write faults for a dead alias), the spill file of an evicted
// stream is deleted, and the memory ledger drops to zero. A released slot
// is terminal: frames and state accessors fail, only the counters, score
// ledger and Stats stay readable. Idempotent.
func (st *Stream) Release() error {
	if st.released {
		return nil
	}
	if st.evicted {
		st.dropSpill()
		st.evicted = false
		st.spilledPending = false
	} else {
		// Settle a background round before tearing down the state it is
		// mutating; the result is discarded, not swapped in.
		if st.pending != nil {
			st.pending.g.Wait()
			st.pending = nil
		}
		if st.scoreDet != nil && st.scoreDet != st.det {
			st.scoreDet.DiscardClone()
		}
		if st.det != nil {
			st.det.DiscardClone()
		}
	}
	st.det, st.scoreDet, st.adapter, st.mon = nil, nil, nil, nil
	st.released = true
	st.updateMem()
	return nil
}

// dropSpill deletes the stream's spill file without rehydrating, used by
// Shutdown when a rehydration attempt failed: the state is unrecoverable,
// but the disk must not keep the orphan.
func (st *Stream) dropSpill() {
	if st.spillPath != "" {
		os.Remove(st.spillPath)
		st.spillPath = ""
	}
}

// Adaptive reports whether this stream runs the adaptation loop.
func (st *Stream) Adaptive() bool { return st.adapter != nil }

// Ledger exposes the stream's phase cost ledger.
func (st *Stream) Ledger() *flops.Ledger { return st.ledger }

// Scores returns a copy of the retained score history: the most recent
// min(ScoreHistory, processed) scores (empty when retention is disabled).
func (st *Stream) Scores() []float64 {
	h := st.cfg.ScoreHistory
	// h ≤ 0 disables retention: nothing is ever recorded, and the slice
	// expression below would be out of range for negative h.
	if h <= 0 || len(st.scores) <= h {
		return append([]float64(nil), st.scores...)
	}
	return append([]float64(nil), st.scores[len(st.scores)-h:]...)
}

// meter runs fn and records its cost under phase as one event, in the
// stream's metering mode.
func (st *Stream) meter(phase string, fn func()) {
	ops, bytes := st.measure(fn)
	st.ledger.Record(phase, ops, bytes)
}

// measure runs fn and returns its cost in the stream's metering mode.
func (st *Stream) measure(fn func()) (ops, bytes int64) {
	if st.shared == nil {
		return st.own.Measure(fn)
	}
	ops0, bytes0 := st.shared.Ops(), st.shared.Bytes()
	fn()
	return st.shared.Ops() - ops0, st.shared.Bytes() - bytes0
}

// rescoreRound brings the window's gate scores up to the banks a round
// rewrote — one that trained, or failed partway — and bills the rescore to
// that round's adaptation event. Rounds the gates stopped left the banks
// alone and cost nothing here.
func (st *Stream) rescoreRound(rep core.AdaptReport, err error) {
	if !rep.Triggered && err == nil {
		return
	}
	ops, bytes := st.measure(func() { st.adapter.Rescore(st.mon) })
	st.ledger.Add(PhaseAdaptation, ops, bytes)
}

// Process scores one incoming frame, updates the monitor, and advances
// the adaptation machinery: swapping in a due background round before
// scoring, and on the cadence either running a round synchronously
// (AdaptLagFrames == 0, the blocking single-camera behaviour) or
// dispatching it asynchronously against a monitor + scoring-state
// snapshot.
func (st *Stream) Process(pix *tensor.Tensor) Result {
	res := Result{Stream: st.id, Seq: st.frames}

	if st.released {
		res.Err = fmt.Errorf("serve: stream %d was released (its state moved to another worker)", st.id)
		return res
	}
	if res.Err = st.EnsureResident(); res.Err != nil {
		return res
	}

	// A finished-or-due round becomes visible before this frame is scored:
	// the swap point is frame-count-defined, so the trajectory does not
	// depend on how fast the background round actually ran.
	if st.pending != nil && st.frames >= st.pending.swapFrame {
		rep, err := st.join()
		res.Adapt, res.AdaptApplied = rep, true
		res.Err = err
	}

	frame := pix.Reshape(1, pix.Size())
	st.meter(PhaseScoring, func() {
		res.Score = st.scoreDet.ScoreVideo(frame)[0]
	})
	if math.IsNaN(res.Score) || math.IsInf(res.Score, 0) {
		// Refused before it touches the monitor, the history or the frame
		// counter: the next frame scores as if this one never arrived.
		res.Err = fmt.Errorf("%w: stream %d frame %d scores %v", ErrBadFrame, st.id, st.frames, res.Score)
		return res
	}
	st.mon.Push(frame, res.Score)
	st.frames++
	if h := st.cfg.ScoreHistory; h > 0 {
		// Amortised O(1) retention: grow to 2h, then compact the newest
		// h−1 entries to the front — the per-frame copy a strict ring
		// would save is not worth the windowed-read complexity here.
		if len(st.scores) >= 2*h {
			n := copy(st.scores, st.scores[len(st.scores)-h+1:])
			st.scores = st.scores[:n]
		}
		st.scores = append(st.scores, res.Score)
	}

	if st.adapter != nil && st.cfg.AdaptEveryFrames > 0 && st.frames%st.cfg.AdaptEveryFrames == 0 {
		if st.cfg.AdaptLagFrames <= 0 {
			var rep core.AdaptReport
			var err error
			st.meter(PhaseAdaptation, func() {
				rep, err = st.adapter.Step(st.mon)
			})
			st.rescoreRound(rep, err)
			res.Adapt, res.AdaptApplied = rep, true
			if err != nil {
				st.lastErr = fmt.Errorf("serve: adaptation round: %w", err)
				res.Err = st.lastErr
				st.updateMem()
				return res
			}
			st.account(rep)
			st.updateMem()
			return res
		}
		// An overdue round (lag ≥ cadence, or a slow consumer) joins
		// before the next one starts; rounds never overlap per stream.
		if st.pending != nil {
			rep, err := st.join()
			res.Adapt, res.AdaptApplied = rep, true
			if res.Err == nil {
				res.Err = err
			}
		}
		st.begin()
	}
	if st.pending == nil && st.mem != nil && st.mem.Budget() > 0 {
		// The eviction policy needs fresh totals after every frame, but
		// the breakdown walks graph and bank storage — unbudgeted servers
		// refresh only at the rarer settled points (attach, round
		// dispatch/join, evict, rehydrate) and Stats computes on demand.
		// While a round is in flight the ledger keeps the pre-round
		// figures — the adapter is mutating the detector concurrently.
		st.updateMem()
	}
	return res
}

// begin snapshots the monitor window and the scoring state and dispatches
// one adaptation round on the worker pool. Scoring continues on the
// snapshot until join. The round is recorded as pending even if the
// snapshot fails (the error surfaces at the swap frame), so every round
// flows through the same join path.
func (st *Stream) begin() {
	p := &pendingRound{swapFrame: st.frames + st.cfg.AdaptLagFrames}
	st.pending = p
	snap, err := st.det.CloneCOW()
	if err != nil {
		p.err = fmt.Errorf("snapshot: %w", err)
		return
	}
	monSnap := st.mon.Clone()
	st.scoreDet = snap
	// Account before dispatch: once the round is running the adapter owns
	// the detector and the breakdown cannot be read safely.
	st.updateMem()
	p.g.Go(func() {
		st.meter(PhaseAdaptation, func() {
			p.rep, p.err = st.adapter.Step(monSnap)
		})
	})
}

// join waits for the in-flight round, swaps the adapted state back into
// the scoring path and accounts the round.
func (st *Stream) join() (core.AdaptReport, error) {
	p := st.pending
	st.pending = nil
	p.g.Wait()
	st.scoreDet = st.det
	st.rescoreRound(p.rep, p.err)
	if p.err != nil {
		st.lastErr = fmt.Errorf("serve: adaptation round: %w", p.err)
		return p.rep, st.lastErr
	}
	st.account(p.rep)
	return p.rep, nil
}

// Err returns the most recent adaptation-round error (nil when every
// round succeeded). Errors also surface on the Result of the frame that
// joined the failing round, when there was one.
func (st *Stream) Err() error { return st.lastErr }

// account folds one completed round into the stream statistics.
func (st *Stream) account(rep core.AdaptReport) {
	st.adaptRounds++
	if rep.Triggered {
		st.triggered++
	}
	st.pruned += len(rep.Pruned)
	st.created += len(rep.Created)
}

// Sync joins any in-flight adaptation round regardless of its swap frame,
// so the stream's detector state is settled. An evicted stream whose
// spill file carries a completed-but-unswapped round rehydrates first —
// settling must account that round exactly as it would on a resident
// stream. It returns the joined round's error, if any.
func (st *Stream) Sync() error {
	if st.released {
		return nil
	}
	if st.evicted {
		if !st.spilledPending {
			return nil
		}
		if err := st.EnsureResident(); err != nil {
			return err
		}
	}
	if st.pending == nil {
		return nil
	}
	_, err := st.join()
	return err
}

// Stats summarises the stream for cost tables and dashboards; its JSON form
// is the body of the worker API's GET /v1/streams/{id}/stats.
type Stats struct {
	Stream           int   `json:"stream"`
	Frames           int   `json:"frames"`
	AdaptRounds      int   `json:"adapt_rounds"`
	TriggeredRounds  int   `json:"triggered_rounds"`
	PrunedNodes      int   `json:"pruned_nodes"`
	CreatedNodes     int   `json:"created_nodes"`
	ScoringOps       int64 `json:"scoring_ops"`
	AdaptOps         int64 `json:"adapt_ops"`
	AdaptOpsPerRound int64 `json:"adapt_ops_per_round"`
	// EnergyPerAdaptJ and AdaptLatencyS follow from the device profile.
	EnergyPerAdaptJ float64 `json:"energy_per_adapt_j"`
	AdaptLatencyS   float64 `json:"adapt_latency_s"`
	// ResidentBytes is the memory charged to the stream (zero while its
	// state is spilled); Evictions counts spill round-trips.
	ResidentBytes int64 `json:"resident_bytes"`
	Evictions     int   `json:"evictions"`
	// LastErr is the text of the stream's most recent retained error —
	// a failed adaptation round, background eviction or rehydration —
	// empty when everything succeeded. Background eviction failures have
	// no Result to surface on, so this field is where they become loud.
	LastErr string `json:"last_err,omitempty"`
}

// configPin summarises the stream's configuration for checkpoint
// validation.
func (st *Stream) configPin() snapshot.ConfigPin {
	return snapshot.ConfigPin{
		MonitorN:          st.cfg.MonitorN,
		MonitorLag:        st.cfg.MonitorLag,
		AnchoredReference: st.cfg.AnchoredReference,
		AdaptEveryFrames:  st.cfg.AdaptEveryFrames,
		AdaptLagFrames:    st.cfg.AdaptLagFrames,
		ScoreHistory:      st.cfg.ScoreHistory,
	}
}

// AppendState appends the stream's complete adaptation state to dst in the
// binary checkpoint form (snapshot.AppendStream: the body of an export
// reply, and the bytes of a 1-stream checkpoint file). Like every Stream
// method it must not race the processing goroutine — call it through
// Server.Call (whose barrier does not join a pending round early) or after
// the stream has drained. It copies nothing before it encodes: the state it
// describes aliases the live token banks, moments, row norms, mean and
// score histories, which nothing writes while it runs on the loop.
//
// An in-flight background adaptation round is handled by completing its
// computation (waiting on the worker-pool task) while preserving its swap
// schedule: the live detector already carries the round's effect, the
// state additionally records the pre-round scoring state and the frame at
// which the swap becomes visible, so the restored stream replays the exact
// trajectory of an uninterrupted run — the round still lands at its
// configured AdaptLagFrames offset.
func (st *Stream) AppendState(dst []byte) ([]byte, error) {
	if err := st.EnsureResident(); err != nil {
		return dst, err
	}
	if st.pending != nil {
		// Complete the round's computation without swapping it in.
		st.pending.g.Wait()
	}
	ss := snapshot.StreamState{
		ID:              st.id,
		Config:          st.configPin(),
		Released:        st.released,
		Frames:          st.frames,
		AdaptRounds:     st.adaptRounds,
		TriggeredRounds: st.triggered,
		PrunedNodes:     st.pruned,
		CreatedNodes:    st.created,
		Ledger:          st.ledger.Export(),
	}
	if st.lastErr != nil {
		ss.LastErr = st.lastErr.Error()
	}
	if st.released {
		// A tombstone: the slot's stream lives elsewhere now. Counters are
		// preserved so post-hoc stats survive a checkpoint round trip;
		// restoring a tombstone releases the target slot.
		return snapshot.AppendStream(dst, &ss), nil
	}
	src, ok := st.src.(*rng.Source)
	if !ok {
		return dst, fmt.Errorf("serve: stream %d was built over a %T random source; checkpointing requires *rng.Source", st.id, st.src)
	}
	ss.RNG = src.State()
	ss.Scores = st.scores
	ss.Monitor = st.mon.ExportState()
	det, err := snapshot.CaptureDetector(st.det)
	if err != nil {
		return dst, fmt.Errorf("serve: stream %d: %w", st.id, err)
	}
	ss.Detector = det
	if st.adapter != nil {
		ad := st.adapter.ExportState()
		ss.Adapter = &ad
	}
	if st.pending != nil {
		scoreDet, err := snapshot.CaptureDetector(st.scoreDet)
		if err != nil {
			return dst, fmt.Errorf("serve: stream %d pending round: %w", st.id, err)
		}
		ss.Pending = &snapshot.PendingState{
			SwapFrame: st.pending.swapFrame,
			Report:    st.pending.rep,
			ScoreDet:  scoreDet,
		}
		if st.pending.err != nil {
			ss.Pending.Err = st.pending.err.Error()
		}
	}
	return snapshot.AppendStream(dst, &ss), nil
}

// Export returns the stream's complete adaptation state: the decode of
// AppendState's bytes, so it shares nothing with the live stream and an
// in-process migration restores exactly what a remote one does. Like every
// Stream method it must not race the processing goroutine.
func (st *Stream) Export() (*snapshot.StreamState, error) {
	b, err := st.AppendState(nil)
	if err != nil {
		return nil, err
	}
	return snapshot.DecodeStream(b)
}

// ErrCheckpointMismatch reports a checkpoint that does not fit the stream
// it is restored into: wrong stream count for a single-stream file, a
// different configuration pin, or a static/adaptive mismatch. The stream's
// state is untouched when it is returned.
var ErrCheckpointMismatch = errors.New("serve: checkpoint does not match stream")

// Save writes the stream's complete adaptation state to path as a 1-stream
// checkpoint file (atomic temp-then-rename write) — the format a 1-stream
// Server checkpoints to and the spill file of an evicted stream: AppendState's
// bytes, written without a decode. Like AppendState it must not race the
// processing goroutine.
func (st *Stream) Save(path string) error {
	b, err := st.AppendState(nil)
	if err != nil {
		return err
	}
	return snapshot.WriteFile(path, b)
}

// Load restores the stream from a 1-stream checkpoint file written by Save
// (or saved from a 1-stream Server with the identical StreamConfig). The
// stream must have been built over the same backbone.
func (st *Stream) Load(path string) error {
	cp, err := snapshot.Load(path) // validates the format header
	if err != nil {
		return err
	}
	if len(cp.Streams) != 1 {
		return fmt.Errorf("%w: %s holds %d streams, want 1", ErrCheckpointMismatch, path, len(cp.Streams))
	}
	return st.Restore(&cp.Streams[0])
}

// Restore replaces the stream's state with a previously exported one. The
// stream must have been constructed over the same backbone and with the
// same configuration the checkpoint was taken under (validated against
// the recorded pin). Any in-flight round of the current state is joined
// and discarded — the checkpoint's state wins wholesale.
func (st *Stream) Restore(ss *snapshot.StreamState) error {
	if _, ok := st.src.(*rng.Source); !ok {
		return fmt.Errorf("serve: stream %d was built over a %T random source; restore requires *rng.Source", st.id, st.src)
	}
	if pin := st.configPin(); pin != ss.Config {
		return fmt.Errorf("%w: stream %d config %+v, checkpoint config %+v", ErrCheckpointMismatch, st.id, pin, ss.Config)
	}
	if ss.Released {
		// The checkpoint recorded a tombstone: the stream had moved to
		// another worker. Reproduce that end state — drop this slot's
		// state and keep the recorded counters.
		if err := st.Release(); err != nil {
			return err
		}
		st.importCounters(ss)
		return nil
	}
	if st.released {
		return fmt.Errorf("serve: stream %d was released; slots retire for good — restore into a fresh slot", st.id)
	}
	if st.evicted {
		// The checkpoint replaces the spilled state wholesale.
		return st.rehydrate(ss)
	}
	return st.restoreState(ss)
}

// restoreState overwrites a resident stream's state with ss. ss may come
// from outside the process, so every section is validated before anything
// is touched: a restore that fails leaves the stream scoring exactly as
// before. Nothing of ss is retained but the monitor's frames, which no one
// writes.
func (st *Stream) restoreState(ss *snapshot.StreamState) error {
	if (st.adapter != nil) != (ss.Adapter != nil) {
		return fmt.Errorf("%w: stream %d adaptive=%t, checkpoint adapter state present=%t", ErrCheckpointMismatch, st.id, st.adapter != nil, ss.Adapter != nil)
	}
	if ss.Pending != nil && st.cfg.AdaptLagFrames <= 0 {
		return fmt.Errorf("%w: stream %d checkpoint has a pending round but adaptation is synchronous", ErrCheckpointMismatch, st.id)
	}
	// Let an in-flight round finish computing before reading or overwriting
	// the state it mutates; it is dropped once ss is known to be good.
	if st.pending != nil {
		st.pending.g.Wait()
	}
	live, scoring, err := st.checkState(ss)
	if err != nil {
		return fmt.Errorf("serve: stream %d: %w", st.id, err)
	}
	st.pending = nil
	if err := live.Install(st.det); err != nil {
		return fmt.Errorf("serve: stream %d: %w", st.id, err)
	}
	if err := st.mon.ImportState(ss.Monitor); err != nil {
		return fmt.Errorf("serve: stream %d: %w", st.id, err)
	}
	if st.adapter != nil {
		if err := st.adapter.ImportState(*ss.Adapter); err != nil {
			return fmt.Errorf("serve: stream %d: %w", st.id, err)
		}
		// Gate scores and the eval memos are derived from the frames and
		// the live banks, so the restored stream gets them back unbilled:
		// the uninterrupted run paid for them when its banks last changed.
		if st.shared == nil {
			flops.Count(func() { st.adapter.Rescore(st.mon) })
		} else {
			st.adapter.Rescore(st.mon)
		}
	} else {
		// Restored banks come in trainable; re-assert the static
		// deployment's full freeze.
		st.det.Deploy()
	}
	st.scoreDet = st.det
	if ss.Pending != nil {
		// The pending round's computation already happened before the
		// snapshot (its effect is in the restored live detector); scoring
		// continues on the recorded pre-round state until the swap frame,
		// where the regular join path delivers the recorded report.
		snap, err := st.det.CloneCOW()
		if err != nil {
			return fmt.Errorf("serve: stream %d pending round: %w", st.id, err)
		}
		if err := scoring.Install(snap); err != nil {
			snap.DiscardClone()
			return fmt.Errorf("serve: stream %d pending round: %w", st.id, err)
		}
		// The snapshot only scores: freeze it and build its eval memos
		// (unbilled, as above), which the uninterrupted run's snapshot
		// inherited from the live detector the round started from.
		snap.Deploy()
		p := &pendingRound{swapFrame: ss.Pending.SwapFrame, rep: ss.Pending.Report}
		if ss.Pending.Err != "" {
			p.err = errors.New(ss.Pending.Err)
		}
		st.scoreDet = snap
		st.pending = p
	}
	st.src.(*rng.Source).Restore(ss.RNG) // type checked by Restore
	st.importCounters(ss)
	st.scores = append([]float64(nil), ss.Scores...)
	// A restored pending round has no live goroutine mutating the
	// detector, so the breakdown is safe to read here.
	st.updateMem()
	return nil
}

// checkState validates every section of ss against the live stream without
// touching it: both detector states (returned ready to install), the
// monitor's window and the size of every frame in it, and the adapter's
// moments against the checkpoint's own token banks.
func (st *Stream) checkState(ss *snapshot.StreamState) (live, scoring *snapshot.DetectorRestore, err error) {
	if live, err = snapshot.CheckDetector(st.det, ss.Detector); err != nil {
		return nil, nil, err
	}
	if ss.Pending != nil {
		if scoring, err = snapshot.CheckDetector(st.det, ss.Pending.ScoreDet); err != nil {
			return nil, nil, fmt.Errorf("pending round: %w", err)
		}
	}
	if err := ss.Monitor.Validate(); err != nil {
		return nil, nil, err
	}
	if ss.Monitor.N != st.mon.N() || ss.Monitor.Anchored != st.mon.Anchored() {
		return nil, nil, fmt.Errorf("%w: monitor window %d anchored=%t, checkpoint monitor window %d anchored=%t",
			ErrCheckpointMismatch, st.mon.N(), st.mon.Anchored(), ss.Monitor.N, ss.Monitor.Anchored)
	}
	for i, f := range ss.Monitor.Frames {
		if want := st.det.Space().PixDim(); f.Size() != want {
			return nil, nil, fmt.Errorf("monitor sample %d has %d features, frames have %d", i, f.Size(), want)
		}
	}
	if ss.Adapter != nil {
		if err := ss.Adapter.Validate(live.Banks); err != nil {
			return nil, nil, err
		}
	}
	return live, scoring, nil
}

// importCounters adopts a checkpoint's frame/round counters, retained
// error and cost ledger.
func (st *Stream) importCounters(ss *snapshot.StreamState) {
	st.frames = ss.Frames
	st.adaptRounds = ss.AdaptRounds
	st.triggered = ss.TriggeredRounds
	st.pruned = ss.PrunedNodes
	st.created = ss.CreatedNodes
	st.lastErr = nil
	if ss.LastErr != "" {
		st.lastErr = errors.New(ss.LastErr)
	}
	st.ledger.Import(ss.Ledger)
}

// Stats returns the stream's accumulated statistics. Like every Stream
// method it must not race the processing goroutine — read it through a
// Server barrier or after the stream has drained. Behind a Call barrier a
// background round may be mutating the detector, and the resident figure
// cannot be recomputed (the breakdown walks graph and bank storage): while
// one is pending it is the last settled ledger report. Every other field
// reads loop-owned counters or the mutex-guarded cost ledger and is exact.
func (st *Stream) Stats() Stats {
	s := Stats{
		Stream:          st.id,
		Frames:          st.frames,
		AdaptRounds:     st.adaptRounds,
		TriggeredRounds: st.triggered,
		PrunedNodes:     st.pruned,
		CreatedNodes:    st.created,
		ScoringOps:      st.ledger.PhaseOps(PhaseScoring),
		AdaptOps:        st.ledger.PhaseOps(PhaseAdaptation),
		Evictions:       st.evictions,
	}
	switch {
	case st.pending == nil:
		s.ResidentBytes = st.MemBreakdown().Resident()
	case st.mem != nil:
		s.ResidentBytes = st.mem.Stream(st.id).Resident()
	}
	if st.lastErr != nil {
		s.LastErr = st.lastErr.Error()
	}
	if st.adaptRounds > 0 {
		s.AdaptOpsPerRound = s.AdaptOps / int64(st.adaptRounds)
		s.EnergyPerAdaptJ = st.cfg.Device.EnergyJoules(s.AdaptOpsPerRound)
		s.AdaptLatencyS = st.cfg.Device.LatencySeconds(s.AdaptOpsPerRound)
	}
	return s
}
