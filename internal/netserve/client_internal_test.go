package netserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNewClientDefaultDeadline pins the constructor contract: a client
// built without options carries a finite per-request deadline (the
// no-timeout regression: a hung worker must not wedge callers forever),
// and WithTimeout can both tighten and remove it.
func TestNewClientDefaultDeadline(t *testing.T) {
	if DefaultTimeout <= 0 {
		t.Fatalf("DefaultTimeout = %v, want > 0", DefaultTimeout)
	}
	c := NewClient("http://127.0.0.1:1")
	if c.timeout != DefaultTimeout {
		t.Fatalf("default client timeout = %v, want %v", c.timeout, DefaultTimeout)
	}
	c = NewClient("http://127.0.0.1:1", WithTimeout(5*time.Second))
	if c.timeout != 5*time.Second {
		t.Fatalf("WithTimeout(5s) client timeout = %v", c.timeout)
	}
	c = NewClient("http://127.0.0.1:1", WithTimeout(0))
	if c.timeout != 0 {
		t.Fatalf("WithTimeout(0) should remove the bound, got %v", c.timeout)
	}
}

// TestWriteJSONEncodesBeforeCommitting pins that no reply is "200, empty
// body": a value the encoder refuses (a NaN) is a 500 with an ErrorReply,
// and the pooled buffer carries nothing of it into the next reply.
func TestWriteJSONEncodesBeforeCommitting(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ScoresReply{Scores: []float64{0.5, math.NaN()}})
	var er ErrorReply
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
		t.Fatalf("unencodable reply: status %d, body %q (%v); want 500 with an ErrorReply", rec.Code, rec.Body, err)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ScoresReply{Stream: 3, Scores: []float64{0.5}})
	if got, want := rec.Body.String(), `{"stream":3,"scores":[0.5]}`+"\n"; rec.Code != http.StatusOK || got != want {
		t.Fatalf("reply after a failed one: status %d, body %q, want %q", rec.Code, got, want)
	}
}

// TestExportRawBoundsTheReply pins the client's read bound on every reply
// it reads — an export, a scored frame and a JSON reply — with and without
// a declared length: a reply of exactly the bound is read whole, one byte
// more is an error, not a buffer grown to whatever the worker sends.
func TestExportRawBoundsTheReply(t *testing.T) {
	const limit = 4 << 10
	ctx := context.Background()
	calls := []struct {
		name string
		body func(n int) []byte
		// whole reports whether the call read a reply of n bytes whole.
		call func(c *Client, n int) (whole bool, err error)
	}{
		{"ExportRaw", func(n int) []byte { return make([]byte, n) },
			func(c *Client, n int) (bool, error) {
				state, err := c.ExportRaw(ctx, 0)
				return err == nil && len(state) == n, err
			}},
		// The frame reply's error text runs to the end of the body, so a
		// reply read whole fails the frame with all of it.
		{"SubmitFrame", func(n int) []byte { return append(make([]byte, replyLen), bytes.Repeat([]byte("x"), n-replyLen)...) },
			func(c *Client, n int) (bool, error) {
				rep, err := c.SubmitFrame(ctx, 0, []float64{1})
				return len(rep.Err) == n-replyLen, err
			}},
		{"Scores", func(n int) []byte {
			b := []byte(`{"scores":[0.5]}`)
			return append(b, bytes.Repeat([]byte(" "), n-len(b))...)
		}, func(c *Client, n int) (bool, error) {
			scores, err := c.Scores(ctx, 0)
			return err == nil && len(scores) == 1, err
		}},
	}
	for _, call := range calls {
		for _, declared := range []bool{true, false} {
			for _, n := range []int{limit, limit + 1} {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if declared {
						w.Header().Set("Content-Length", strconv.Itoa(n))
					}
					w.Header().Set("Content-Type", binaryType)
					w.WriteHeader(http.StatusOK)
					w.Write(call.body(n))
				}))
				c := NewClient(ts.URL)
				c.stateLimit = limit
				whole, err := call.call(c, n)
				ts.Close()
				if n <= limit && !whole {
					t.Errorf("%s, declared %t: a %d-byte reply at the %d-byte bound not read whole: %v", call.name, declared, n, limit, err)
				}
				if n > limit && (err == nil || !strings.Contains(err.Error(), "bound")) {
					t.Errorf("%s, declared %t: a %d-byte reply past the %d-byte bound: %v; want an error", call.name, declared, n, limit, err)
				}
			}
		}
	}
}

// countingListener counts the connections a fake worker accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// fakeWorker serves h on loopback, counting the connections it accepts.
func fakeWorker(t *testing.T, h http.HandlerFunc) (*httptest.Server, *countingListener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, ln
}

// replyFrame answers a frame with a scored reply record.
func replyFrame(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", binaryType)
	w.Write(appendReply(nil, FrameReply{Score: 0.5}))
}

// idleConns counts the connections c has pooled.
func (c *Client) idleConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// closeIdle closes every connection c has pooled.
func (c *Client) closeIdle() {
	for cn := c.takeIdle(); cn != nil; cn = c.takeIdle() {
		cn.Close()
	}
}

// TestPoolKeepsOneConnection pins keep-alive: sequential frames share one
// TCP connection.
func TestPoolKeepsOneConnection(t *testing.T) {
	ts, ln := fakeWorker(t, replyFrame)
	c := NewClient(ts.URL)
	for i := range 200 {
		if _, err := c.SubmitFrame(context.Background(), 0, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("200 sequential frames opened %d connections, want 1", n)
	}
}

// TestStaleConnectionRetriesOnlyGets pins the one retry, on the race the
// idle check cannot see: the worker reads a request on a reused connection
// and closes it without answering. A GET goes through on a fresh
// connection, while a frame POST fails transiently and is not sent again.
func TestStaleConnectionRetriesOnlyGets(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts, frames atomic.Int32
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	// The worker answers the first request on each connection and drops
	// the connection on the second, after reading it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				for i := 0; ; i++ {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					if req.Method == http.MethodPost {
						frames.Add(1)
					}
					if i > 0 {
						return
					}
					body := []byte(`{"ok":true}`)
					if req.Method == http.MethodPost {
						body = appendReply(nil, FrameReply{Score: 0.5})
					}
					nc.Write(append([]byte("HTTP/1.1 200 OK\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"), body...))
				}
			}()
		}
	}()
	c := NewClient("http://" + ln.Addr().String())
	t.Cleanup(c.closeIdle) // before the worker's wait: it ends each connection's goroutine
	ctx := context.Background()
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if h, err := c.Health(ctx); err != nil || !h.OK {
		t.Fatalf("GET the worker dropped on a reused connection: %+v, %v; want it retried on a fresh one", h, err)
	}
	if n := accepts.Load(); n != 2 {
		t.Fatalf("%d connections after the retry, want 2", n)
	}
	_, err = c.SubmitFrame(ctx, 0, []float64{1})
	if err == nil || !IsTransient(err) {
		t.Fatalf("frame the worker dropped on a reused connection: %v; want a transient error", err)
	}
	if n := frames.Load(); n != 1 {
		t.Fatalf("the worker saw the frame %d times; a POST is never re-sent", n)
	}
	if n := c.idleConns(); n != 0 {
		t.Fatalf("%d connections pooled after a failed request", n)
	}
	if _, err := c.SubmitFrame(ctx, 0, []float64{1}); err != nil {
		t.Fatalf("frame after the failure: %v", err)
	}
	if n := accepts.Load(); n != 3 {
		t.Fatalf("%d connections, want 3: the failed frame's was not reused", n)
	}
}

// TestLargeRequestBufferIsDropped pins the request buffer a connection
// keeps: a body past maxReqBuf reaches the worker whole in the one write,
// and the buffer it grew is not pooled with the connection.
func TestLargeRequestBufferIsDropped(t *testing.T) {
	state := make([]byte, 2*maxReqBuf)
	for i := range state {
		state[i] = byte(i % 251)
	}
	ts, _ := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/restore") && !bytes.Equal(got, state) {
			http.Error(w, `{"error":"state arrived changed"}`, http.StatusBadRequest)
			return
		}
		replyFrame(w, r)
	})
	c := NewClient(ts.URL)
	ctx := context.Background()
	reqCap := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.idle) != 1 {
			t.Fatalf("%d connections pooled, want 1", len(c.idle))
		}
		return cap(c.idle[0].req)
	}
	if err := c.RestoreRaw(ctx, 0, state); err != nil {
		t.Fatal(err)
	}
	if n := reqCap(); n != 0 {
		t.Fatalf("a %d-byte request left a %d-byte buffer on its connection", len(state), n)
	}
	if _, err := c.SubmitFrame(ctx, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if n := reqCap(); n == 0 || n > maxReqBuf {
		t.Fatalf("a frame request left a %d-byte buffer, want one kept, at most %d", n, maxReqBuf)
	}
}

// TestCancelMidRequestDropsConnection pins cancellation: a request whose
// context is cancelled while the worker holds it returns promptly with
// context.Canceled, and its connection is closed rather than pooled.
func TestCancelMidRequestDropsConnection(t *testing.T) {
	release := make(chan struct{})
	ts, ln := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/streams/1/frames" {
			<-release
		}
		replyFrame(w, r)
	})
	defer close(release)
	c := NewClient(ts.URL)
	if _, err := c.SubmitFrame(context.Background(), 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.SubmitFrame(ctx, 1, []float64{1})
	if !errors.Is(err, context.Canceled) || IsTransient(err) {
		t.Fatalf("cancelled frame: %v; want a terminal context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled frame returned after %v", d)
	}
	if n := c.idleConns(); n != 0 {
		t.Fatalf("the cancelled request's connection was pooled (%d idle)", n)
	}
	if _, err := c.SubmitFrame(context.Background(), 0, []float64{1}); err != nil {
		t.Fatalf("frame after a cancel: %v", err)
	}
	if n := ln.accepts.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: the one the cancel closed and a fresh one", n)
	}
}

// TestContextDeadlineIsTheContexts pins what a caller's deadline returns:
// the connection's deadline, set from the context's, can fire before the
// context's own timer, and the error still wraps context.DeadlineExceeded.
func TestContextDeadlineIsTheContexts(t *testing.T) {
	ts, _ := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	c := NewClient(ts.URL)
	for range 20 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := c.Stats(ctx, 0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || !IsTransient(err) {
			t.Fatalf("a request past its context's deadline: %v; want a transient context.DeadlineExceeded", err)
		}
	}
}

// pools reports whether reply is a response the client may pool the
// connection after: well-formed, final, read to its end within limit bytes
// and without "Connection: close".
func pools(reply []byte, limit int64) bool {
	br := bufio.NewReader(bytes.NewReader(reply))
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.Close || resp.StatusCode < 200 {
		return false
	}
	n, err := io.Copy(io.Discard, io.LimitReader(resp.Body, limit+1))
	return err == nil && n <= limit
}

// FuzzClientReply answers every request with the fuzzed bytes — closing
// its side after them, or holding the connection open when hold is set —
// and reads them through SubmitFrame, ExportRaw and Stats on one client.
// Each returns a value or an error without panicking and within its
// deadline, and a connection stays pooled only after a reply it may pool.
func FuzzClientReply(f *testing.F) {
	frame := appendReply(nil, FrameReply{Score: 0.5})
	for _, reply := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 29\r\n\r\n" + string(frame),
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n{}\n",
		"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 13\r\n\r\n{\"error\":\"x\"}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n{}\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\n{}\n",
		"HTTP/1.1 200 OK\r\n\r\n{}\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 29\r\n\r\n" + string(frame[:10]),
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n{}\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n{}\nHTTP/1.1 200 OK\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999\r\n\r\n",
		"garbage",
		"",
	} {
		f.Add([]byte(reply), false)
		f.Add([]byte(reply), true)
	}
	const limit, timeout = 1 << 10, 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	type answer struct {
		reply []byte
		hold  bool
	}
	var current atomic.Pointer[answer]
	// Every connection is the client's to close, which ends its goroutine.
	var wg sync.WaitGroup
	f.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					a := current.Load()
					nc.Write(a.reply)
					if !a.hold {
						nc.(*net.TCPConn).CloseWrite()
					}
				}
			}()
		}
	}()
	f.Fuzz(func(t *testing.T, reply []byte, hold bool) {
		current.Store(&answer{reply, hold})
		c := NewClient("http://"+ln.Addr().String(), WithTimeout(timeout))
		c.stateLimit = limit
		defer c.closeIdle()
		ctx := context.Background()
		for name, call := range map[string]func() error{
			"SubmitFrame": func() error { _, err := c.SubmitFrame(ctx, 0, []float64{1}); return err },
			"ExportRaw":   func() error { _, err := c.ExportRaw(ctx, 0); return err },
			"Stats":       func() error { _, err := c.Stats(ctx, 0); return err },
		} {
			start := time.Now()
			err := call()
			if d := time.Since(start); d > timeout+2*time.Second {
				t.Fatalf("%s on reply %q took %v, past its %v deadline", name, reply, d, timeout)
			}
			if c.idleConns() > 0 && !pools(reply, limit) {
				t.Fatalf("%s on reply %q (%v) pooled its connection", name, reply, err)
			}
		}
	})
}
