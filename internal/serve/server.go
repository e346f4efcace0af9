package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"edgekg/internal/core"
	"edgekg/internal/flops"
	"edgekg/internal/rng"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// Config sizes a Server.
type Config struct {
	// Stream is the per-stream deployment template.
	Stream StreamConfig
	// QueueDepth is the per-stream input/result channel capacity
	// (backpressure depth). Defaults to 4.
	QueueDepth int
	// Unmetered disables FLOPs accounting: no process-wide counter is
	// installed and per-stream ledgers record zero ops (events still
	// count). Benchmarks use it so serving ticks run as meter-free as
	// every other timed path.
	Unmetered bool
	// Seeds are the per-stream adapter seeds. When shorter than the
	// stream count, stream i falls back to BaseSeed+i.
	Seeds []int64
	// BaseSeed derives missing per-stream seeds. Defaults to 1.
	BaseSeed int64
	// MemBudgetBytes caps the charged per-stream resident bytes across
	// the process (see flops.MemLedger). When the total exceeds the
	// budget after a frame, the least-recently-active resident stream is
	// spilled to SpillDir and rehydrated bit-exactly at its next frame.
	// 0 disables the budget (the ledger still accounts).
	MemBudgetBytes int64
	// SpillDir is where evicted streams checkpoint their state. Required
	// when MemBudgetBytes > 0; setting it without a budget arms manual
	// eviction (Server.EvictStream) only.
	SpillDir string
}

// DefaultConfig returns a serving configuration with the default
// per-stream settings.
func DefaultConfig() Config {
	return Config{Stream: DefaultStreamConfig()}
}

// item is one unit of per-stream work: a frame to score, or a control
// barrier to run between frames.
type item struct {
	pix *tensor.Tensor
	ctl func(*Stream)
}

// Server multiplexes N camera streams through one process. It deploys the
// backbone detector frozen, takes one copy-on-write clone
// (core.Detector.CloneCOW — per-stream graphs + token banks aliasing the
// backbone until first write) per stream over the shared read-only compute
// backbone, and runs one processing loop per stream: frames arrive on
// per-stream channels, scoring interleaves across streams on the shared
// worker pool, and each stream's adaptation rounds run asynchronously
// (parallel.Group) with snapshot/swap semantics so no stream's scoring
// ever blocks on another stream — or on its own adaptation.
//
// A memory ledger charges each stream its privately-owned bytes; under a
// configured budget the server spills idle streams to disk and rehydrates
// them bit-exactly on their next frame.
//
// One goroutine submits per stream (Submit/Do are serialised per stream
// by the caller, like a camera feed); results must be consumed from
// Results or the stream's loop blocks once the channel fills.
type Server struct {
	cfg     Config
	streams []*Stream
	in      []chan item
	out     []chan Result
	done    []chan struct{}
	// closed[i] is written under closeMu[i].Lock and read under
	// closeMu[i].RLock; closeMu[i] serialises stream i's input-channel
	// close against in-flight Submit/Do sends (readers), so a late sender
	// sees the closed flag instead of a closed-channel panic.
	closed  []bool
	closeMu []sync.RWMutex

	counter   *flops.Counter
	installed bool
	shutdown  sync.Once

	mem *flops.MemLedger
	// lastActive[i] is the global tick of stream i's most recent frame;
	// evictQueued[i] is nonzero while an eviction request is queued on
	// stream i's loop. Both are touched from every stream loop (atomics).
	lastActive  []int64
	evictQueued []int32
	tick        int64
}

// NewServer deploys backbone and starts n stream loops. The backbone is
// frozen (Deploy) as a side effect; each stream adapts its own clone, so
// the backbone's own token banks and graphs never change while serving.
// The server is running on return — Submit frames, consume Results, then
// Shutdown.
//
// FLOPs accounting uses the single process-wide counter, so at most one
// metered server should exist at a time (a second concurrent server
// cross-attributes ops into the first's counter, and loses its metering
// when the first shuts down); run additional servers with
// Config.Unmetered.
func NewServer(backbone *core.Detector, n int, cfg Config) (*Server, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: stream count %d must be ≥1", n)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 4
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 1
	}
	if cfg.MemBudgetBytes > 0 && cfg.SpillDir == "" {
		return nil, fmt.Errorf("serve: memory budget %d requires a spill directory", cfg.MemBudgetBytes)
	}
	backbone.Deploy()

	s := &Server{
		cfg:         cfg,
		streams:     make([]*Stream, n),
		in:          make([]chan item, n),
		out:         make([]chan Result, n),
		done:        make([]chan struct{}, n),
		closed:      make([]bool, n),
		closeMu:     make([]sync.RWMutex, n),
		mem:         flops.NewMemLedger(cfg.MemBudgetBytes),
		lastActive:  make([]int64, n),
		evictQueued: make([]int32, n),
	}
	// Per-stream FLOPs attribution under concurrency reads deltas of one
	// shared counter (see Stream.meter); a single synchronous stream keeps
	// a bare stream's exact exclusive metering. Unmetered hands the streams a
	// counter nothing reports to, so deltas are zero and no global state
	// is touched.
	exclusive := n == 1 && cfg.Stream.AdaptLagFrames <= 0 && !cfg.Unmetered
	if !exclusive {
		s.counter = &flops.Counter{}
		if !cfg.Unmetered {
			if flops.Active() == nil {
				flops.SetActive(s.counter)
				s.installed = true
			} else {
				// A caller-installed counter (a bench, an outer ledger)
				// keeps receiving; deltas are read from it instead.
				s.counter = flops.Active()
			}
		}
	}
	// A constructor failure below must not leave the process-wide counter
	// installed (Shutdown, which normally restores it, will never run).
	ok := false
	defer func() {
		if !ok && s.installed {
			flops.SetActive(nil)
		}
	}()
	// A constructor failure after some streams are cloned rolls their COW
	// marks back, so the caller's backbone does not keep paying
	// copy-on-write faults for dead aliases.
	discardBuilt := func(n int) {
		for j := 0; j < n; j++ {
			s.streams[j].det.DiscardClone()
		}
	}
	rebuild := backbone.CloneCOW
	for i := 0; i < n; i++ {
		seed := cfg.BaseSeed + int64(i)
		if i < len(cfg.Seeds) {
			seed = cfg.Seeds[i]
		}
		det, err := rebuild()
		if err != nil {
			discardBuilt(i)
			return nil, fmt.Errorf("serve: stream %d clone: %w", i, err)
		}
		st, err := NewStream(i, det, cfg.Stream, rng.NewSource(seed), s.counter)
		if err != nil {
			det.DiscardClone()
			discardBuilt(i)
			return nil, fmt.Errorf("serve: stream %d: %w", i, err)
		}
		st.SetMemLedger(s.mem)
		if cfg.SpillDir != "" {
			st.EnableSpill(cfg.SpillDir, rebuild)
		}
		s.streams[i] = st
		s.in[i] = make(chan item, cfg.QueueDepth)
		s.out[i] = make(chan Result, cfg.QueueDepth)
		s.done[i] = make(chan struct{})
	}
	for i := 0; i < n; i++ {
		go s.loop(i)
	}
	ok = true
	return s, nil
}

// loop is one stream's processing goroutine: frames in arrival order,
// control barriers between frames, and a final drain that joins any
// in-flight adaptation round.
func (s *Server) loop(i int) {
	st := s.streams[i]
	defer close(s.done[i])
	defer close(s.out[i])
	for it := range s.in[i] {
		if it.ctl != nil {
			it.ctl(st)
			continue
		}
		res := st.Process(it.pix)
		atomic.StoreInt64(&s.lastActive[i], atomic.AddInt64(&s.tick, 1))
		s.maybeEvict(i)
		s.out[i] <- res
	}
	st.Sync()
}

// maybeEvict runs after stream self's frame: when the ledger is over
// budget it asks the least-recently-active resident stream — never self,
// which just proved it is live — to spill, via a barrier on the victim's
// own loop that does not join a pending round (so its swap schedule
// survives the spill). The enqueue must not block one stream's loop on
// another's queue, hence noWait: a full or closed victim queue drops the
// attempt, and a later frame retries while the process stays over budget.
// A single-stream server therefore never evicts.
func (s *Server) maybeEvict(self int) {
	if s.cfg.SpillDir == "" {
		return
	}
	if _, over := s.mem.OverBudget(); !over {
		return
	}
	victim, best := -1, int64(1<<62)
	for j := range s.streams {
		if j == self || atomic.LoadInt32(&s.evictQueued[j]) != 0 {
			continue
		}
		if s.mem.Stream(j).Resident() == 0 {
			continue // already spilled (or never reported)
		}
		if t := atomic.LoadInt64(&s.lastActive[j]); t < best {
			victim, best = j, t
		}
	}
	if victim < 0 || !atomic.CompareAndSwapInt32(&s.evictQueued[victim], 0, 1) {
		return
	}
	evict := func(st *Stream) {
		defer atomic.StoreInt32(&s.evictQueued[victim], 0)
		if err := st.Evict(); err != nil {
			st.lastErr = err
		}
	}
	if s.barrier(noWait, victim, evict) != nil {
		atomic.StoreInt32(&s.evictQueued[victim], 0)
	}
}

// EvictStream spills stream i's heavy state synchronously on its loop
// (not joining a pending round, whose swap schedule is preserved): the
// deterministic counterpart to budget-driven eviction, for tests and
// operational tooling. The stream rehydrates bit-exactly at its next
// frame. Requires Config.SpillDir.
func (s *Server) EvictStream(stream int) error {
	_, err := Call(context.Background(), s, stream, func(st *Stream) (struct{}, error) { return struct{}{}, st.Evict() })
	return err
}

// MemLedger exposes the server's resident-bytes ledger.
func (s *Server) MemLedger() *flops.MemLedger { return s.mem }

// NumStreams returns the stream count.
func (s *Server) NumStreams() int { return len(s.streams) }

// Submit enqueues one frame for a stream, blocking when the stream's
// queue is full. It returns an error once the stream is closed. The read
// lock is held across the (possibly blocking) channel send: close waits
// for senders, senders never hit a closed channel.
func (s *Server) Submit(stream int, pix *tensor.Tensor) error {
	if stream < 0 || stream >= len(s.streams) {
		return fmt.Errorf("serve: no stream %d", stream)
	}
	s.closeMu[stream].RLock()
	defer s.closeMu[stream].RUnlock()
	if s.closed[stream] {
		return fmt.Errorf("serve: stream %d: %w", stream, errClosed)
	}
	s.in[stream] <- item{pix: pix}
	return nil
}

// errClosed reports a stream whose input has been closed.
var errClosed = errors.New("stream is closed")

// Results returns the stream's result channel, or an error for an unknown
// stream id. Results arrive in frame order; the channel closes after
// CloseStream once the last frame and any in-flight adaptation round have
// drained.
func (s *Server) Results(stream int) (<-chan Result, error) {
	if stream < 0 || stream >= len(s.streams) {
		return nil, fmt.Errorf("serve: no stream %d", stream)
	}
	return s.out[stream], nil
}

// Process scores one frame on a stream and waits for its result: Submit,
// then the receive from Results — the round trip of a caller that drives
// a stream one frame at a time (one goroutine per stream, like Submit).
func (s *Server) Process(stream int, pix *tensor.Tensor) (Result, error) {
	if err := s.Submit(stream, pix); err != nil {
		return Result{}, err
	}
	res, open := <-s.out[stream]
	if !open {
		return Result{}, fmt.Errorf("serve: stream %d: %w", stream, errClosed)
	}
	return res, nil
}

// noWait is an already-cancelled context: a barrier under it enqueues only
// if the stream's queue has room right now.
var noWait = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// barrier is the one way onto a live stream's loop: it enqueues fn to run
// there between frames, without waiting for it to run. Room in the queue
// is taken even under an expired ctx; otherwise ctx bounds the wait for
// room. A closed stream takes no more items (errClosed) — Call then runs
// fn inline once the loop has exited.
func (s *Server) barrier(ctx context.Context, stream int, fn func(*Stream)) error {
	s.closeMu[stream].RLock()
	defer s.closeMu[stream].RUnlock()
	if s.closed[stream] {
		return errClosed
	}
	select {
	case s.in[stream] <- item{ctl: fn}:
		return nil
	default:
	}
	select {
	case s.in[stream] <- item{ctl: fn}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Call runs fn on the stream's processing loop, between frames, and
// returns what it returned. An in-flight background adaptation round is
// not joined first, so observers (stats, score history, state captures)
// do not perturb a live stream's frame-deterministic trajectory; fn sees
// the loop-owned counters exact and the detector as Stream.Stats
// documents. On a closed stream fn runs inline once the loop has exited,
// which is equally safe.
//
// Call gives up with ctx.Err() instead of blocking forever when the loop
// cannot reach the barrier — what a goroutine with no guarantee that the
// stream's Results are being drained (an HTTP handler) needs. When ctx
// fires after the barrier was enqueued, fn still runs later on the loop:
// its result lands in a buffered channel nobody reads, so the loop never
// blocks on an abandoned caller, and fn must not write variables the
// caller reads after Call returns.
func Call[T any](ctx context.Context, s *Server, stream int, fn func(*Stream) (T, error)) (T, error) {
	type reply struct {
		v   T
		err error
	}
	var zero T
	if stream < 0 || stream >= len(s.streams) {
		return zero, fmt.Errorf("serve: no stream %d", stream)
	}
	ch := make(chan reply, 1)
	err := s.barrier(ctx, stream, func(st *Stream) {
		v, err := fn(st)
		ch <- reply{v, err}
	})
	if errors.Is(err, errClosed) {
		// The loop is draining: wait for it (or the deadline), run inline.
		select {
		case <-s.done[stream]:
			return fn(s.streams[stream])
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	if err != nil {
		return zero, err
	}
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// Do runs fn on the stream's processing loop like Call, but with any
// in-flight adaptation round joined first — the safe way to read a live
// stream's detector, token banks or graphs, which are then quiescent. It
// blocks until fn has run. A join error is retained on the stream
// (Stream.Err) rather than injected as an extra Result, keeping results
// 1:1 with frames.
//
// Because the barrier joins an in-flight round early, its effect becomes
// visible at the barrier instead of at the configured swap frame, and the
// round's report is folded into the stream stats rather than delivered on
// a Result. Callers wanting frame-deterministic trajectories should issue
// Do at frame-deterministic points (or not at all mid-round).
//
// Do blocks until the loop reaches the barrier, which requires the
// stream's Results to keep draining: calling Do from the goroutine that
// consumes Results while frames are still queued deadlocks.
func (s *Server) Do(stream int, fn func(*Stream)) error {
	_, err := Call(context.Background(), s, stream, func(st *Stream) (struct{}, error) {
		st.Sync()
		fn(st)
		return struct{}{}, nil
	})
	return err
}

// StreamStats returns one stream's statistics via a Do barrier (or
// directly once the stream has drained).
func (s *Server) StreamStats(stream int) (Stats, error) {
	var st Stats
	err := s.Do(stream, func(sc *Stream) { st = sc.Stats() })
	return st, err
}

// CloseStream marks the end of a stream's input. Its loop drains queued
// frames, joins any in-flight adaptation round and closes the result
// channel. Closing twice is a no-op.
func (s *Server) CloseStream(stream int) {
	if stream < 0 || stream >= len(s.streams) {
		return
	}
	s.closeMu[stream].Lock()
	defer s.closeMu[stream].Unlock()
	if !s.closed[stream] {
		s.closed[stream] = true
		close(s.in[stream])
	}
}

// Shutdown closes every stream, waits for all loops to drain, and
// restores the process-wide FLOPs counter if the server installed one.
// Undelivered results are discarded. The result drain starts before the
// closes: a producer blocked in Submit against a full pipeline (its loop
// stuck on an unconsumed result channel) is unblocked by the drain,
// releases the close lock, and then sees the closed stream — so Shutdown
// never deadlocks against absent consumers or lingering producers.
func (s *Server) Shutdown() {
	s.shutdown.Do(func() {
		var drain sync.WaitGroup
		for i := range s.streams {
			i := i
			drain.Add(1)
			go func() {
				defer drain.Done()
				for range s.out[i] {
				}
			}()
		}
		for i := range s.streams {
			s.CloseStream(i)
		}
		for i := range s.streams {
			<-s.done[i]
		}
		drain.Wait()
		// An evicted idle stream that never saw another frame would leak
		// its spill file (rehydration is the only path that deletes it):
		// rehydrate-then-drain, so post-shutdown accessors (Stats, TestAUC
		// probes, Detector) keep working and SpillDir ends empty. The loops
		// have exited, so running inline is safe. On a failed rehydration
		// the spill file is dropped anyway — the process is going away and
		// the error is retained on the stream.
		for _, st := range s.streams {
			if st.Evicted() {
				if err := st.EnsureResident(); err != nil {
					st.lastErr = err
					st.dropSpill()
				}
			}
		}
		// Restore only if the installed counter is still the active one:
		// a counter someone installed over ours (a bench's flops.Count in
		// flight, a newer server) must not be clobbered.
		if s.installed && flops.Active() == s.counter {
			flops.SetActive(nil)
		}
	})
}

// Stream returns the i-th stream context, or an error for an unknown
// stream id. The context is safe to use freely after Shutdown (or
// CloseStream + drained Results); while the stream is live, route access
// through Do.
func (s *Server) Stream(i int) (*Stream, error) {
	if i < 0 || i >= len(s.streams) {
		return nil, fmt.Errorf("serve: no stream %d", i)
	}
	return s.streams[i], nil
}

// Checkpoint serializes every stream's complete adaptation state. Each
// stream is captured on its own processing loop between frames (a Call
// barrier that, unlike Do, does not join an in-flight adaptation round
// early — the round's computation is completed but its swap still lands
// at the configured frame), so a live server can be checkpointed while
// cameras keep submitting: each stream's snapshot is taken at whatever
// frame its loop has reached. ctx bounds the whole capture: a stream whose
// loop does not reach its barrier before ctx ends fails the checkpoint.
// Restore the result with Server.Restore on a server built over the
// identical backbone and configuration.
func (s *Server) Checkpoint(ctx context.Context) (*snapshot.Checkpoint, error) {
	cp := snapshot.New(len(s.streams))
	for i := range s.streams {
		ss, err := s.export(ctx, i)
		if err != nil {
			return nil, err
		}
		cp.Streams[i] = *ss
	}
	return cp, nil
}

// export is Stream.Export with only the encode on the stream's loop: the
// bytes are decoded once the loop has moved on.
func (s *Server) export(ctx context.Context, stream int) (*snapshot.StreamState, error) {
	b, err := Call(ctx, s, stream, func(st *Stream) ([]byte, error) { return st.AppendState(nil) })
	if err != nil {
		return nil, err
	}
	return snapshot.DecodeStream(b)
}

// ExportStream captures one stream's complete adaptation state on its
// processing loop (a Call barrier, like Checkpoint — an in-flight round
// keeps its swap schedule). The result is the unit of stream migration:
// restore it into a compatible slot of another server with RestoreStream
// and the stream continues bit-exactly there.
func (s *Server) ExportStream(stream int) (*snapshot.StreamState, error) {
	return s.export(context.Background(), stream)
}

// RestoreStream replaces one stream's state with an exported snapshot,
// applied on its processing loop. The receiving slot must have been built
// over the same backbone with the same per-stream configuration (the
// recorded config pin is validated); the snapshot's own stream id is
// irrelevant — migration restores stream state into whatever local slot
// the receiving shard has free, and the restored RNG state supersedes the
// slot's construction seed, so the continued trajectory is bit-identical
// to one that never moved.
func (s *Server) RestoreStream(stream int, ss *snapshot.StreamState) error {
	_, err := Call(context.Background(), s, stream, func(st *Stream) (struct{}, error) { return struct{}{}, st.Restore(ss) })
	return err
}

// Restore replaces every stream's state with the checkpoint's, applied on
// each stream's processing loop. The server must have been built over the
// same backbone (same training seed) with the same stream count and
// per-stream configuration the checkpoint was taken under; mismatches
// fail loudly and may leave earlier streams restored — restore into a
// fresh server before submitting frames.
func (s *Server) Restore(cp *snapshot.Checkpoint) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	if len(cp.Streams) != len(s.streams) {
		return fmt.Errorf("serve: checkpoint has %d streams, server has %d", len(cp.Streams), len(s.streams))
	}
	for i := range s.streams {
		if err := s.RestoreStream(i, &cp.Streams[i]); err != nil {
			return err
		}
	}
	return nil
}

// TotalOps returns the ops recorded by the server's shared counter (0 in
// exclusive single-stream metering, where the per-stream ledger is the
// source of truth).
func (s *Server) TotalOps() int64 {
	if s.counter == nil {
		return 0
	}
	return s.counter.Ops()
}
