//go:build unix

package netserve

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// waitIdleClosed waits until the worker's close of every connection c has
// pooled has reached the client.
func (c *Client) waitIdleClosed(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		open := false
		for _, cn := range c.idle {
			open = open || cn.open()
		}
		c.mu.Unlock()
		if !open {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker's close never reached the pooled connection")
		}
	}
}

// TestStaleIdleConnectionIsRedialed pins the idle check: a pooled
// connection the worker closed carries no request. A GET and a frame POST
// after such a close both go through on a fresh connection, and the
// worker sees the frame once.
func TestStaleIdleConnectionIsRedialed(t *testing.T) {
	var frames atomic.Int32
	ts, ln := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			frames.Add(1)
		}
		replyFrame(w, r)
	})
	c := NewClient(ts.URL)
	ctx := context.Background()
	if _, err := c.SubmitFrame(ctx, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	ts.CloseClientConnections()
	c.waitIdleClosed(t)
	if _, err := c.ExportRaw(ctx, 0); err != nil {
		t.Fatalf("GET after the worker closed the idle connection: %v", err)
	}
	ts.CloseClientConnections()
	c.waitIdleClosed(t)
	before := frames.Load()
	if _, err := c.SubmitFrame(ctx, 0, []float64{1}); err != nil {
		t.Fatalf("frame after the worker closed the idle connection: %v", err)
	}
	if n := frames.Load() - before; n != 1 {
		t.Fatalf("the worker saw the frame %d times, want once", n)
	}
	if n := ln.accepts.Load(); n != 3 {
		t.Fatalf("%d connections, want 3: one per close", n)
	}
}
