package netserve_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"edgekg/internal/netserve"
	"edgekg/internal/serve"
)

// TestClientTimeoutBoundsBlackholedWorker is the no-deadline regression:
// against a listener that accepts connections and never answers, a client
// call must return at its configured timeout instead of hanging forever.
func TestClientTimeoutBoundsBlackholedWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	accepted := make(chan struct{}, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c) // hold open, never respond
			accepted <- struct{}{}
		}
	}()

	client := netserve.NewClient("http://"+ln.Addr().String(), netserve.WithTimeout(200*time.Millisecond))
	start := time.Now()
	_, err = client.Health(context.Background())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("health against a blackholed worker succeeded")
	}
	if !netserve.IsTransient(err) {
		t.Fatalf("timeout not classified transient: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; the per-request deadline did not bind", elapsed)
	}
	select {
	case <-accepted:
	default:
		t.Fatal("listener never saw the connection (test is vacuous)")
	}
}

// TestIsTransientClassification pins the retryable/terminal split the
// retry and failover layers are built on.
func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		transient bool
	}{
		{"nil", nil, false},
		{"busy", netserve.ErrBusy, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, true},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"conn-refused", syscall.ECONNREFUSED, true},
		{"conn-reset", syscall.ECONNRESET, true},
		{"http-500", &netserve.StatusError{Code: 500, Op: "GET /x"}, true},
		{"http-503", &netserve.StatusError{Code: 503, Op: "GET /x"}, true},
		{"http-404", &netserve.StatusError{Code: 404, Op: "GET /x"}, false},
		{"http-400", &netserve.StatusError{Code: 400, Op: "GET /x"}, false},
		{"op-error", &net.OpError{Op: "dial", Err: errors.New("down")}, true},
	}
	for _, tc := range cases {
		if got := netserve.IsTransient(tc.err); got != tc.transient {
			t.Errorf("IsTransient(%s) = %v, want %v", tc.name, got, tc.transient)
		}
	}
}

// TestReleaseFreesResidentBytes is the retained-source-slot regression,
// pinned via the /v1/mem surface: after a slot's stream is released, its
// resident bytes drop to zero, the worker total shrinks, and the slot
// refuses further frames. Releasing again is a no-op.
func TestReleaseFreesResidentBytes(t *testing.T) {
	_, gen := buildBackbone(t, 5)
	fs := frames(t, gen, 11, 4)
	_, client := worker(t, 5, 2, netserve.Options{})
	ctx := context.Background()
	for _, f := range fs {
		for slot := 0; slot < 2; slot++ {
			if _, err := client.SubmitFrame(ctx, slot, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, err := client.Mem(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Streams[0].Resident <= 0 || before.Streams[1].Resident <= 0 {
		t.Fatalf("active streams resident: %+v", before.Streams)
	}

	if err := client.Release(ctx, 0); err != nil {
		t.Fatal(err)
	}
	after, err := client.Mem(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Streams[0].Resident != 0 {
		t.Fatalf("released slot still resident: %d bytes", after.Streams[0].Resident)
	}
	if after.Streams[1].Resident != before.Streams[1].Resident {
		t.Fatalf("release perturbed the other slot: %d → %d bytes",
			before.Streams[1].Resident, after.Streams[1].Resident)
	}

	if _, err := client.SubmitFrame(ctx, 0, fs[0]); err == nil {
		t.Fatal("released slot accepted a frame")
	}
	if _, err := client.SubmitFrame(ctx, 1, fs[0]); err != nil {
		t.Fatalf("live slot after a neighbour's release: %v", err)
	}
	if err := client.Release(ctx, 0); err != nil {
		t.Fatalf("re-release not idempotent: %v", err)
	}
}

// TestWaitReadyBackoffAndCancellation pins the two WaitReady contracts:
// it polls through a worker's warm-up (refused/503 probes) until the
// first healthy answer, and a cancelled or expired context ends the wait
// promptly with a "not ready" error instead of spinning forever.
func TestWaitReadyBackoffAndCancellation(t *testing.T) {
	var probes atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1) <= 2 {
			http.Error(w, `{"error":"training backbone"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(netserve.Health{OK: true, Streams: 1, FrameSize: 4})
	}))
	defer ts.Close()

	client := netserve.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h, err := client.WaitReady(ctx)
	if err != nil || !h.OK {
		t.Fatalf("WaitReady through warm-up: %+v, %v", h, err)
	}
	if got := probes.Load(); got < 3 {
		t.Fatalf("worker saw %d probes, want ≥3 (two warm-up refusals)", got)
	}

	// Against a worker that never becomes ready, the caller's deadline must
	// bound the wait.
	never := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"never ready"}`, http.StatusServiceUnavailable)
	}))
	defer never.Close()
	nc := netserve.NewClient(never.URL)
	short, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel2()
	start := time.Now()
	if _, err := nc.WaitReady(short); err == nil {
		t.Fatal("WaitReady against a never-ready worker succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("WaitReady outlived its context by %v", d)
	}

	// An already-cancelled context returns immediately.
	done, cancel3 := context.WithCancel(context.Background())
	cancel3()
	start = time.Now()
	if _, err := nc.WaitReady(done); err == nil {
		t.Fatal("WaitReady with a cancelled context succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled WaitReady took %v", d)
	}
}

// TestDieEndpointKillsAbruptly pins the crash drill: /v1/die acknowledges,
// the embedder severs every connection, and from then on the worker is
// indistinguishable from a crashed process (transient transport errors).
func TestDieEndpointKillsAbruptly(t *testing.T) {
	backbone, _ := buildBackbone(t, 5)
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg()
	cfg.BaseSeed = 100
	srv, err := serve.NewServer(backbone, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	h, err := netserve.NewHandler(srv, netserve.Options{FrameSize: pixDim})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	killed := make(chan struct{})
	go func() {
		<-h.KillRequested()
		ts.CloseClientConnections()
		ts.Close()
		close(killed)
	}()

	client := netserve.NewClient(ts.URL, netserve.WithTimeout(2*time.Second))
	if err := client.Die(context.Background()); err != nil {
		t.Fatalf("die: %v", err)
	}
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("kill request never reached the embedder")
	}
	_, err = client.Health(context.Background())
	if err == nil {
		t.Fatal("killed worker answered a health probe")
	}
	if !netserve.IsTransient(err) {
		t.Fatalf("dead worker's error not transient (failover would not retry): %v", err)
	}
}
