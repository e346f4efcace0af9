package netserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgekg/internal/serve"
	"edgekg/internal/tensor"
)

// ErrBusy reports a 429 from the worker: the target slot's submit queue
// is full and the frame was shed. The shard router counts these as load
// shedding rather than failures.
var ErrBusy = errors.New("netserve: worker busy")

// DefaultTimeout is the per-request deadline a new Client ships with: long
// enough that a frame submit can queue behind a slot's scoring and a full
// adaptation round, short enough that a blackholed worker (accepts, never
// answers) cannot wedge a caller forever. Override with WithTimeout.
const DefaultTimeout = 60 * time.Second

// maxIdle caps the keep-alive connections a Client holds between requests:
// one per request its callers have in flight at once is the steady state.
const maxIdle = 64

// maxReqBuf is the largest request buffer a connection keeps between
// requests. A request is built whole (header and body) and written at
// once; a buffer grown past this by a large state is dropped after its
// write, so an idle connection never holds one.
const maxReqBuf = 64 << 10

// errStale reports a pooled connection the worker closed while it sat idle.
var errStale = errors.New("worker closed the idle connection")

// aLongTimeAgo is the deadline that aborts a connection's pending I/O when
// the caller's context is cancelled.
var aLongTimeAgo = time.Unix(1, 0)

// Client is the typed consumer of one worker's HTTP API. It speaks
// HTTP/1.1 over its own pool of keep-alive connections and starts no
// goroutines: each call writes its request in one write and reads the
// reply on the calling goroutine. It is safe for concurrent use.
type Client struct {
	base       string
	addr       string // host:port to dial
	host       string // the Host header
	prefix     string // the base URL's path, prepended to every request's
	baseErr    error  // a base URL this client cannot speak to
	timeout    time.Duration
	stateLimit int64 // maxRestoreBody; tests lower it rather than send 64 MiB

	mu   sync.Mutex
	idle []*conn
}

// conn is one keep-alive connection with the reader its replies are parsed
// from, the buffer its requests are built in and its idle check.
type conn struct {
	net.Conn
	br   *bufio.Reader
	req  []byte
	open func() bool // see idleCheck
}

// ClientOption tunes a Client at construction.
type ClientOption func(*Client)

// WithTimeout sets the per-request deadline (connection + full round
// trip). d ≤ 0 removes the bound entirely — callers then own every
// deadline via their contexts. The default is DefaultTimeout.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = max(d, 0) }
}

// NewClient returns a client for the worker at base, an http:// URL such
// as "http://127.0.0.1:9701", with the default per-request timeout. A base
// it cannot speak to fails every call.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: base, timeout: DefaultTimeout, stateLimit: maxRestoreBody}
	u, err := url.Parse(base)
	if err == nil && (u.Scheme != "http" || u.Host == "") {
		err = errors.New("want http://host[:port]")
	}
	if err != nil {
		c.baseErr = fmt.Errorf("netserve: worker URL %q: %w", base, err)
	} else {
		c.host, c.addr, c.prefix = u.Host, u.Host, strings.TrimSuffix(u.Path, "/")
		if u.Port() == "" {
			c.addr = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// roundTrip issues one request (body, when non-nil, is of contentType) and
// reads the whole reply body into buf, which body may not alias. A 2xx
// returns nil; any other status is mapped here, once: 429 to ErrBusy, the
// rest to a typed *StatusError carrying the ErrorReply text. Every reply is
// bounded by the state bound: a longer one is an error.
//
// The connection goes back to the pool only after its reply was read to
// the end with no error and no "Connection: close"; any failure closes it.
// A pooled connection is checked before it carries a request: one the
// worker closed while it sat idle is dropped for a fresh dial, whatever
// the method. A GET that still fails on a reused connection before any
// reply byte is sent once more on a fresh one — the keep-alive race (the
// worker closed the connection as the request went out) that
// http.Transport retries for idempotent requests too. Nothing else is
// retried: a POST that may have reached the worker is never re-sent, and
// redelivery of a frame belongs to the shard layer's failover.
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body []byte, buf *bytes.Buffer) error {
	if c.baseErr != nil {
		return c.baseErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("netserve: %s %s: %w", method, path, err)
	}
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	d, ctxBound := ctx.Deadline()
	if ctxBound = ctxBound && (deadline.IsZero() || d.Before(deadline)); ctxBound {
		deadline = d
	}
	cn := c.takeIdle()
	reused := cn != nil
	for {
		var err error
		if cn == nil {
			dialer := net.Dialer{Deadline: deadline}
			var nc net.Conn
			if nc, err = dialer.DialContext(ctx, "tcp", c.addr); err == nil {
				cn = &conn{Conn: nc, br: bufio.NewReader(nc), open: idleCheck(nc)}
			}
		}
		var code int
		replied, keep := false, false
		if err == nil {
			code, replied, keep, err = c.exchange(ctx, cn, reused, deadline, method, path, contentType, body, buf)
		}
		if err == nil {
			if keep {
				c.putIdle(cn)
			} else {
				cn.Close()
			}
			return statusErr(code, method, path, buf.Bytes())
		}
		if cn != nil {
			cn.Close()
		}
		var ne net.Error
		timeout := errors.As(err, &ne) && ne.Timeout()
		if reused && !replied && (method == http.MethodGet || err == errStale) && ctx.Err() == nil && !timeout {
			cn, reused = nil, false
			continue
		}
		// The connection's deadline can fire a hair before the context's
		// own timer: a timeout at the context's deadline is the context's.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		} else if timeout && ctxBound {
			err = context.DeadlineExceeded
		}
		return fmt.Errorf("netserve: %s %s: %w", method, path, err)
	}
}

// exchange writes one request on cn and reads its reply into buf,
// reporting the status, whether any reply byte arrived, and whether cn may
// carry another request. I/O is bounded by deadline, and cut short when
// ctx is cancelled. A reused cn the worker has closed fails with errStale
// before anything is written.
func (c *Client) exchange(ctx context.Context, cn *conn, reused bool, deadline time.Time, method, path, contentType string, body []byte, buf *bytes.Buffer) (code int, replied, keep bool, err error) {
	if err := cn.SetDeadline(deadline); err != nil {
		return 0, false, false, err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { cn.SetDeadline(aLongTimeAgo) })
		defer func() {
			if !stop() {
				keep = false // its deadline is gone
			}
		}()
	}
	if reused && !cn.open() {
		return 0, false, false, errStale
	}
	b := append(cn.req[:0], method...)
	b = append(b, ' ')
	b = append(b, c.prefix...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	if body != nil {
		b = append(b, "\r\nContent-Type: "...)
		b = append(b, contentType...)
	}
	if body != nil || method != http.MethodGet {
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	_, err = cn.Write(b)
	if cap(b) <= maxReqBuf {
		cn.req = b[:0]
	} else {
		cn.req = nil
	}
	if err != nil {
		return 0, false, false, err
	}
	if _, err := cn.br.Peek(1); err != nil {
		return 0, false, false, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, true, false, err
	}
	buf.Reset()
	// MinRead of headroom lets ReadFrom meet EOF without growing the buffer.
	buf.Grow(int(min(max(resp.ContentLength, 0), c.stateLimit)) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, c.stateLimit+1)); err != nil {
		return 0, true, false, err
	}
	if int64(buf.Len()) > c.stateLimit {
		return 0, true, false, fmt.Errorf("reply longer than the %d-byte bound", c.stateLimit)
	}
	return resp.StatusCode, true, !resp.Close && resp.StatusCode >= 200 && cn.br.Buffered() == 0, nil
}

// statusErr maps a reply's status code and body to the call's error.
func statusErr(code int, method, path string, body []byte) error {
	switch {
	case code/100 == 2:
		return nil
	case code == http.StatusTooManyRequests:
		return ErrBusy
	}
	se := &StatusError{Code: code, Op: method + " " + path}
	var er ErrorReply
	if json.Unmarshal(body, &er) == nil {
		se.Msg = er.Error
	}
	return se
}

// takeIdle pops the most recently pooled connection, or returns nil.
func (c *Client) takeIdle() *conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.idle)
	if n == 0 {
		return nil
	}
	cn := c.idle[n-1]
	c.idle[n-1] = nil
	c.idle = c.idle[:n-1]
	return cn
}

// putIdle pools cn for the next request, or closes it when the pool is full.
func (c *Client) putIdle(cn *conn) {
	c.mu.Lock()
	pooled := len(c.idle) < maxIdle
	if pooled {
		c.idle = append(c.idle, cn)
	}
	c.mu.Unlock()
	if !pooled {
		cn.Close()
	}
}

// do is roundTrip without a request body, the JSON reply decoded into out
// (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, out any) error {
	buf := getBuf()
	defer bufs.Put(buf)
	if err := c.roundTrip(ctx, method, path, "", nil, buf); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("netserve: %s %s: %w", method, path, err)
	}
	return nil
}

// Health probes the worker, returning its shape.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", &h)
	return h, err
}

// WaitReady polls Health until the worker answers or the deadline lapses
// — workers train their backbone before listening, so the first probe can
// trail the process start by a while.
func (c *Client) WaitReady(ctx context.Context) (Health, error) {
	for {
		probe, cancel := context.WithTimeout(ctx, 2*time.Second)
		h, err := c.Health(probe)
		cancel()
		if err == nil && h.OK {
			return h, nil
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
			return Health{}, fmt.Errorf("netserve: worker %s not ready: %w", c.base, err)
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// SubmitFrame scores one frame on a slot, blocking until the result (or
// ErrBusy when the slot's queue is full). A per-frame processing error the
// worker reports in the reply body (a released slot, a scoring failure)
// surfaces as a non-transient error: the frame was not scored, and
// retrying it verbatim will not help.
func (c *Client) SubmitFrame(ctx context.Context, slot int, frame []float64) (FrameReply, error) {
	path := "/v1/streams/" + strconv.Itoa(slot) + "/frames"
	buf := getBuf()
	defer bufs.Put(buf)
	if err := c.roundTrip(ctx, http.MethodPost, path, binaryType, tensor.AppendFloats(nil, frame), buf); err != nil {
		return FrameReply{}, err
	}
	rep, err := decodeReply(buf.Bytes())
	if err != nil {
		return FrameReply{}, fmt.Errorf("netserve: POST %s: %w", path, err)
	}
	if rep.Err != "" {
		err = fmt.Errorf("netserve: submit slot %d: %s", slot, rep.Err)
	}
	return rep, err
}

// Stats fetches one slot's statistics.
func (c *Client) Stats(ctx context.Context, slot int) (serve.Stats, error) {
	var rep serve.Stats
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/streams/%d/stats", slot), &rep)
	return rep, err
}

// Scores fetches one slot's retained score history.
func (c *Client) Scores(ctx context.Context, slot int) ([]float64, error) {
	var rep ScoresReply
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/streams/%d/scores", slot), &rep)
	return rep.Scores, err
}

// Evict spills one slot's heavy state to the worker's spill directory.
func (c *Client) Evict(ctx context.Context, slot int) error {
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/streams/%d/evict", slot), nil)
}

// Release permanently drops one slot's stream state on the worker: the
// stream moved elsewhere (migration or failover) and this slot will never
// serve its key again, so its resident bytes must stop being charged.
func (c *Client) Release(ctx context.Context, slot int) error {
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/streams/%d/release", slot), nil)
}

// ExportRaw captures one slot's complete adaptation state as the version 2
// checkpoint of one stream (snapshot.AppendStream) — passed to RestoreRaw
// verbatim, so a migration never re-encodes the state it moves. The bytes
// are read into one buffer sized from the reply's Content-Length; like
// every reply, one longer than the restore bound is an error.
func (c *Client) ExportRaw(ctx context.Context, slot int) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.roundTrip(ctx, http.MethodGet, fmt.Sprintf("/v1/streams/%d/export", slot), "", nil, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreRaw installs a state ExportRaw returned into a slot. The worker
// takes only that binary form: any other body is refused 4xx.
func (c *Client) RestoreRaw(ctx context.Context, slot int, state []byte) error {
	buf := getBuf()
	defer bufs.Put(buf)
	return c.roundTrip(ctx, http.MethodPost, fmt.Sprintf("/v1/streams/%d/restore", slot), binaryType, state, buf)
}

// Mem fetches the worker's memory report.
func (c *Client) Mem(ctx context.Context) (MemReply, error) {
	var rep MemReply
	err := c.do(ctx, http.MethodGet, "/v1/mem", &rep)
	return rep, err
}

// Checkpoint asks the worker to write its full-deployment checkpoint,
// returning the path it wrote.
func (c *Client) Checkpoint(ctx context.Context) (string, error) {
	var rep CheckpointReply
	err := c.do(ctx, http.MethodPost, "/v1/checkpoint", &rep)
	return rep.Path, err
}

// Shutdown asks the worker process to drain and exit its serving loop.
func (c *Client) Shutdown(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/shutdown", nil)
}

// Die asks the worker to stop abruptly — no drain, in-flight connections
// severed — simulating a crash for failover tests and drills. The worker
// usually cuts the connection before (or while) replying, so transport
// errors count as success.
func (c *Client) Die(ctx context.Context) error {
	err := c.do(ctx, http.MethodPost, "/v1/die", nil)
	if err != nil && IsTransient(err) {
		return nil
	}
	return err
}
