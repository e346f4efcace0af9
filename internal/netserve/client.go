package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
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

// Client is the typed consumer of one worker's HTTP API.
type Client struct {
	base       string
	http       *http.Client
	stateLimit int64 // maxRestoreBody; tests lower it rather than send 64 MiB
}

// ClientOption tunes a Client at construction.
type ClientOption func(*Client)

// WithTimeout sets the per-request deadline (connection + full round
// trip). d ≤ 0 removes the bound entirely — callers then own every
// deadline via their contexts. The default is DefaultTimeout.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d <= 0 {
			d = 0
		}
		c.http.Timeout = d
	}
}

// NewClient returns a client for the worker at base (e.g.
// "http://127.0.0.1:9701") with the default per-request timeout.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: base, http: &http.Client{Timeout: DefaultTimeout}, stateLimit: maxRestoreBody}
	for _, o := range opts {
		o(c)
	}
	return c
}

// roundTrip issues one request (body, when non-nil, is of contentType) and
// returns the worker's 2xx response with its body unread, for the caller
// to consume and close. Any other status is mapped here, once: 429 to
// ErrBusy, the rest to a typed *StatusError carrying the ErrorReply text.
// Nothing is retried: redelivery belongs to the shard layer's failover.
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return nil, ErrBusy
	}
	se := &StatusError{Code: resp.StatusCode, Op: method + " " + path}
	var er ErrorReply
	if json.NewDecoder(resp.Body).Decode(&er) == nil {
		se.Msg = er.Error
	}
	return nil, se
}

// do is roundTrip with a JSON body (when non-nil) and the JSON reply
// decoded into out (when non-nil), streaming.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	resp, err := c.roundTrip(ctx, method, path, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health probes the worker, returning its shape.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
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
	resp, err := c.roundTrip(ctx, http.MethodPost, path, binaryType, tensor.AppendFloats(nil, frame))
	if err != nil {
		return FrameReply{}, err
	}
	defer resp.Body.Close()
	buf := getBuf()
	defer bufs.Put(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
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
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/streams/%d/stats", slot), nil, &rep)
	return rep, err
}

// Scores fetches one slot's retained score history.
func (c *Client) Scores(ctx context.Context, slot int) ([]float64, error) {
	var rep ScoresReply
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/streams/%d/scores", slot), nil, &rep)
	return rep.Scores, err
}

// Evict spills one slot's heavy state to the worker's spill directory.
func (c *Client) Evict(ctx context.Context, slot int) error {
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/streams/%d/evict", slot), nil, nil)
}

// Release permanently drops one slot's stream state on the worker: the
// stream moved elsewhere (migration or failover) and this slot will never
// serve its key again, so its resident bytes must stop being charged.
func (c *Client) Release(ctx context.Context, slot int) error {
	return c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/streams/%d/release", slot), nil, nil)
}

// ExportRaw captures one slot's complete adaptation state as the version 2
// checkpoint of one stream (snapshot.AppendStream) — passed to RestoreRaw
// verbatim, so a migration never re-encodes the state it moves. The bytes
// are read into one buffer sized from the reply's Content-Length; a reply
// longer than the restore bound is an error.
func (c *Client) ExportRaw(ctx context.Context, slot int) ([]byte, error) {
	path := fmt.Sprintf("/v1/streams/%d/export", slot)
	resp, err := c.roundTrip(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	// MinRead of headroom lets ReadFrom meet EOF without growing the buffer.
	buf.Grow(int(min(max(resp.ContentLength, 0), c.stateLimit)) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, c.stateLimit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > c.stateLimit {
		return nil, fmt.Errorf("netserve: GET %s: state longer than the %d-byte bound", path, c.stateLimit)
	}
	return buf.Bytes(), nil
}

// RestoreRaw installs a state ExportRaw returned into a slot. The worker
// takes only that binary form: any other body is refused 4xx.
func (c *Client) RestoreRaw(ctx context.Context, slot int, state []byte) error {
	resp, err := c.roundTrip(ctx, http.MethodPost, fmt.Sprintf("/v1/streams/%d/restore", slot), binaryType, state)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

// Mem fetches the worker's memory report.
func (c *Client) Mem(ctx context.Context) (MemReply, error) {
	var rep MemReply
	err := c.do(ctx, http.MethodGet, "/v1/mem", nil, &rep)
	return rep, err
}

// Checkpoint asks the worker to write its full-deployment checkpoint,
// returning the path it wrote.
func (c *Client) Checkpoint(ctx context.Context) (string, error) {
	var rep CheckpointReply
	err := c.do(ctx, http.MethodPost, "/v1/checkpoint", nil, &rep)
	return rep.Path, err
}

// Shutdown asks the worker process to drain and exit its serving loop.
func (c *Client) Shutdown(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/shutdown", nil, nil)
}

// Die asks the worker to stop abruptly — no drain, in-flight connections
// severed — simulating a crash for failover tests and drills. The worker
// usually cuts the connection before (or while) replying, so transport
// errors count as success.
func (c *Client) Die(ctx context.Context) error {
	err := c.do(ctx, http.MethodPost, "/v1/die", nil, nil)
	if err != nil && IsTransient(err) {
		return nil
	}
	return err
}
