// Package netserve puts a network boundary in front of the multi-stream
// serving runtime: an HTTP API over serve.Server exposing frame submit,
// score/result retrieval, per-stream and memory/ledger stats, checkpoint
// and evict triggers, and single-stream state export/restore — the unit of
// checkpoint-based migration between worker processes. Frames travel as
// raw little-endian float64, their results as a fixed binary record, and a
// stream's state as the binary version 2 checkpoint of one stream
// (wire.go); every other body, errors included, is JSON. The sibling
// Client is the typed consumer; internal/shard builds the many-process
// router on top of both.
//
// Frame submits are serialized per stream slot (one camera, one ordered
// feed) behind a bounded gate: when more than MaxPending submits are
// queued on one slot the handler sheds the excess with 429 instead of
// queueing unboundedly — admission control at the worker. Observer and
// state endpoints (stats, scores, export, restore, evict, release) run on
// the stream's loop through the deadline-bound serve.Call, so they neither
// deadlock against a busy pipeline nor join an in-flight adaptation round
// early — polling a live worker does not perturb any stream's trajectory.
package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// Options configures a Handler.
type Options struct {
	// FrameSize is the expected raw frame-feature length (required).
	FrameSize int
	// MaxPending bounds the submits queued per stream slot, the one being
	// scored included; beyond it the handler sheds with 429. Defaults
	// to 8.
	MaxPending int
	// BarrierTimeout bounds how long an observer endpoint waits for a
	// stream's loop to reach its barrier before giving up with 503.
	// Defaults to 10s.
	BarrierTimeout time.Duration
	// CheckpointPath, when set, is where POST /v1/checkpoint writes the
	// full-deployment checkpoint (the -checkpoint-dir wiring).
	CheckpointPath string
}

// Handler serves the HTTP API over one serve.Server.
type Handler struct {
	srv  *serve.Server
	opts Options
	mux  *http.ServeMux
	// gates[i] serializes slot i's submit+result round trips and counts
	// the waiters the MaxPending admission bound applies to.
	gates        []slotGate
	restoreLimit int64 // maxRestoreBody; tests lower it rather than post 64 MiB
	shutdown     chan struct{}
	shutOnce     sync.Once
	kill         chan struct{}
	killOnce     sync.Once
}

// Request bodies come from outside the process and are bounded before they
// are read; a larger one is answered 413. A frame body is exactly one frame;
// a restore body holds one stream's state, whose size follows the adapted
// KG — tens of KiB at paper scale. An export reply is held to the same
// bound by Client.ExportRaw.
const maxRestoreBody = 64 << 20

type slotGate struct {
	mu      sync.Mutex
	waiters int32
}

// NewHandler builds the API over srv. srv must outlive the handler; the
// caller still owns Shutdown.
func NewHandler(srv *serve.Server, opts Options) (*Handler, error) {
	if opts.FrameSize < 1 {
		return nil, fmt.Errorf("netserve: frame size %d must be ≥1", opts.FrameSize)
	}
	if opts.MaxPending < 1 {
		opts.MaxPending = 8
	}
	if opts.BarrierTimeout <= 0 {
		opts.BarrierTimeout = 10 * time.Second
	}
	h := &Handler{
		srv:          srv,
		opts:         opts,
		mux:          http.NewServeMux(),
		gates:        make([]slotGate, srv.NumStreams()),
		restoreLimit: maxRestoreBody,
		shutdown:     make(chan struct{}),
		kill:         make(chan struct{}),
	}
	h.mux.HandleFunc("GET /healthz", h.handleHealth)
	h.mux.HandleFunc("POST /v1/streams/{id}/frames", h.handleFrame)
	h.mux.HandleFunc("GET /v1/streams/{id}/stats", h.handleStats)
	h.mux.HandleFunc("GET /v1/streams/{id}/scores", h.handleScores)
	h.mux.HandleFunc("POST /v1/streams/{id}/evict", h.handleEvict)
	h.mux.HandleFunc("POST /v1/streams/{id}/release", h.handleRelease)
	h.mux.HandleFunc("GET /v1/streams/{id}/export", h.handleExport)
	h.mux.HandleFunc("POST /v1/streams/{id}/restore", h.handleRestore)
	h.mux.HandleFunc("GET /v1/mem", h.handleMem)
	h.mux.HandleFunc("POST /v1/checkpoint", h.handleCheckpoint)
	h.mux.HandleFunc("POST /v1/shutdown", h.handleShutdown)
	h.mux.HandleFunc("POST /v1/die", h.handleDie)
	return h, nil
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// ShutdownRequested is closed once a client POSTs /v1/shutdown; the
// process embedding the handler stops its http.Server then.
func (h *Handler) ShutdownRequested() <-chan struct{} { return h.shutdown }

// KillRequested is closed once a client POSTs /v1/die: the embedding
// process must stop abruptly — http.Server.Close, not Shutdown — so
// in-flight connections are severed exactly as a crash would sever them.
// Failover tests and drills use this to kill a worker deterministically.
func (h *Handler) KillRequested() <-chan struct{} { return h.kill }

// bufs recycles the buffers request bodies are read into and replies are
// encoded into. A reply is encoded in full before its status line is
// committed, so a value that does not encode is a 500 with an ErrorReply,
// never a 200 with an empty body; its length goes out as Content-Length.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// stateBufs recycles the buffers exported states are encoded into, each
// keeping the capacity its largest state grew it to. A buffer is taken and
// filled on the stream's loop (handleExport) and put back once its reply
// is written.
var stateBufs = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *bytes.Buffer {
	buf := bufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer bufs.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(ErrorReply{Error: fmt.Sprintf("encode reply: %v", err)})
	}
	writeBody(w, status, "application/json", buf.Bytes())
}

func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorReply{Error: fmt.Sprintf(format, args...)})
}

// slot parses the {id} path value against the server's stream count.
func (h *Handler) slot(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= h.srv.NumStreams() {
		writeErr(w, http.StatusNotFound, "no stream %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{OK: true, Streams: h.srv.NumStreams(), FrameSize: h.opts.FrameSize})
}

func (h *Handler) handleFrame(w http.ResponseWriter, r *http.Request) {
	id, ok := h.slot(w, r)
	if !ok {
		return
	}
	frame, ok := readBody(w, r, int64(8*h.opts.FrameSize), "frame body", func(b []byte) ([]float64, error) {
		return decodeFrame(b, h.opts.FrameSize)
	})
	if !ok {
		return
	}
	g := &h.gates[id]
	if int(atomic.AddInt32(&g.waiters, 1)) > h.opts.MaxPending {
		atomic.AddInt32(&g.waiters, -1)
		writeErr(w, http.StatusTooManyRequests, "stream %d overloaded (%d submits pending)", id, h.opts.MaxPending)
		return
	}
	defer atomic.AddInt32(&g.waiters, -1)
	g.mu.Lock()
	defer g.mu.Unlock()
	res, err := h.srv.Process(id, tensor.FromSlice(frame, len(frame)))
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	if errors.Is(res.Err, serve.ErrBadFrame) {
		writeErr(w, http.StatusBadRequest, "%v", res.Err)
		return
	}
	rep := FrameReply{
		Stream:       res.Stream,
		Seq:          res.Seq,
		Score:        res.Score,
		AdaptApplied: res.AdaptApplied,
		Triggered:    res.Adapt.Triggered,
		Pruned:       len(res.Adapt.Pruned),
		Created:      len(res.Adapt.Created),
	}
	if res.Err != nil {
		rep.Err = res.Err.Error()
	}
	buf := getBuf()
	defer bufs.Put(buf)
	writeBody(w, http.StatusOK, binaryType, appendReply(buf.AvailableBuffer(), rep))
}

// readBody reads a binaryType request body of at most limit bytes into a
// pooled buffer and decodes it, reporting whether it did; otherwise it has
// replied — 415 when the body is of another type, 413 when it runs past
// limit, 400 when it does not decode. decode must not keep the bytes it is
// handed.
func readBody[T any](w http.ResponseWriter, r *http.Request, limit int64, what string, decode func([]byte) (T, error)) (T, bool) {
	var v T
	if ct := r.Header.Get("Content-Type"); ct != binaryType {
		writeErr(w, http.StatusUnsupportedMediaType, "%s of type %q, want %q", what, ct, binaryType)
		return v, false
	}
	buf := getBuf()
	defer bufs.Put(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		v, err = decode(buf.Bytes())
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, "bad %s: %v", what, err)
		return v, false
	}
	return v, true
}

// onLoop runs fn on the {id} slot's loop through serve.Call under one
// BarrierTimeout deadline and writes the reply: 503 when the loop does not
// reach the barrier in time, failStatus when fn fails, 200 with fn's value
// otherwise.
func onLoop[T any](h *Handler, w http.ResponseWriter, r *http.Request, verb string, failStatus int, fn func(*serve.Stream) (T, error)) {
	if v, ok := callLoop(h, w, r, verb, failStatus, fn); ok {
		writeJSON(w, http.StatusOK, v)
	}
}

// callLoop is onLoop without the 200: it returns fn's value and reports
// whether there is one to write; otherwise it has replied.
func callLoop[T any](h *Handler, w http.ResponseWriter, r *http.Request, verb string, failStatus int, fn func(*serve.Stream) (T, error)) (T, bool) {
	var v T
	id, ok := h.slot(w, r)
	if !ok {
		return v, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), h.opts.BarrierTimeout)
	defer cancel()
	v, err := serve.Call(ctx, h.srv, id, fn)
	switch {
	case err == nil:
		return v, true
	case errors.Is(err, ctx.Err()):
		writeErr(w, http.StatusServiceUnavailable, "stream %d %s: %v", id, verb, err)
	default:
		writeErr(w, failStatus, "%v", err)
	}
	return v, false
}

// errOnly gives a state change that returns only an error the shape Call
// takes; its reply body is the empty object.
func errOnly(fn func(*serve.Stream) error) func(*serve.Stream) (struct{}, error) {
	return func(st *serve.Stream) (struct{}, error) { return struct{}{}, fn(st) }
}

func readStats(st *serve.Stream) (serve.Stats, error) { return st.Stats(), nil }

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	onLoop(h, w, r, "stats", http.StatusInternalServerError, readStats)
}

func (h *Handler) handleScores(w http.ResponseWriter, r *http.Request) {
	onLoop(h, w, r, "scores", http.StatusInternalServerError, func(st *serve.Stream) (ScoresReply, error) {
		return ScoresReply{Stream: st.ID(), Scores: st.Scores()}, nil
	})
}

func (h *Handler) handleEvict(w http.ResponseWriter, r *http.Request) {
	onLoop(h, w, r, "evict", http.StatusInternalServerError, errOnly((*serve.Stream).Evict))
}

func (h *Handler) handleRelease(w http.ResponseWriter, r *http.Request) {
	onLoop(h, w, r, "release", http.StatusInternalServerError, errOnly((*serve.Stream).Release))
}

// handleExport encodes the stream's state on its loop, straight from live
// state (Stream.AppendState), into a pooled buffer, and writes the bytes
// off it. The buffer is taken inside the callback: when the barrier times
// out, Call returns while the callback still runs on the loop, and a buffer
// taken out here would go back to the pool while the loop appends to it.
// The buffer of an abandoned or failed callback is never pooled again.
func (h *Handler) handleExport(w http.ResponseWriter, r *http.Request) {
	buf, ok := callLoop(h, w, r, "export", http.StatusInternalServerError, func(st *serve.Stream) (*[]byte, error) {
		buf := stateBufs.Get().(*[]byte)
		var err error
		*buf, err = st.AppendState((*buf)[:0])
		return buf, err
	})
	if !ok {
		return
	}
	defer stateBufs.Put(buf)
	writeBody(w, http.StatusOK, binaryType, *buf)
}

func (h *Handler) handleRestore(w http.ResponseWriter, r *http.Request) {
	// An unknown slot is a 404 before the body is read.
	if _, ok := h.slot(w, r); !ok {
		return
	}
	ss, ok := readBody(w, r, h.restoreLimit, "stream state", snapshot.DecodeStream)
	if !ok {
		return
	}
	onLoop(h, w, r, "restore", http.StatusConflict, errOnly(func(st *serve.Stream) error { return st.Restore(ss) }))
}

// handleMem reads every stream's row under one deadline shared by all the
// barriers, so a wedged worker answers within BarrierTimeout, not N of them.
func (h *Handler) handleMem(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), h.opts.BarrierTimeout)
	defer cancel()
	l := h.srv.MemLedger()
	rep := MemReply{Resident: l.Total(), Budget: l.Budget()}
	for i := 0; i < h.srv.NumStreams(); i++ {
		st, err := serve.Call(ctx, h.srv, i, readStats)
		row := MemStreamRow{Stream: i, Resident: st.ResidentBytes, Evictions: st.Evictions, LastErr: st.LastErr}
		if err != nil {
			row.LastErr = err.Error()
		}
		rep.Streams = append(rep.Streams, row)
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleCheckpoint captures every stream under one BarrierTimeout deadline,
// as handleMem does; a loop that misses it is a 503 and no file is written.
func (h *Handler) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if h.opts.CheckpointPath == "" {
		writeErr(w, http.StatusBadRequest, "no checkpoint path configured (start the worker with -checkpoint-dir)")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), h.opts.BarrierTimeout)
	defer cancel()
	cp, err := h.srv.Checkpoint(ctx)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ctx.Err()) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, "checkpoint: %v", err)
		return
	}
	if err := snapshot.Save(h.opts.CheckpointPath, cp); err != nil {
		writeErr(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointReply{Path: h.opts.CheckpointPath})
}

func (h *Handler) handleShutdown(w http.ResponseWriter, r *http.Request) {
	h.shutOnce.Do(func() { close(h.shutdown) })
	writeJSON(w, http.StatusOK, struct{}{})
}

func (h *Handler) handleDie(w http.ResponseWriter, r *http.Request) {
	// Best-effort 200 — the abrupt stop the embedder performs on
	// KillRequested usually cuts this connection before the reply lands,
	// which is why Client.Die tolerates transport errors.
	writeJSON(w, http.StatusOK, struct{}{})
	h.killOnce.Do(func() { close(h.kill) })
}
