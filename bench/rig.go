package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"edgekg/internal/netserve"
	"edgekg/internal/serve"
	"edgekg/internal/shard"
)

// countingListener is the benchmark's own view of the wire: every byte a
// worker reads or writes on a connection it accepted.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

func (l *countingListener) bytes() int64 { return l.read.Load() + l.written.Load() }

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}

// probeBackend sits between the router and a worker client — a layer
// boundary the benchmark owns — and records what crosses it: the size of
// every exported snapshot and, when tracing, a span per worker call.
type probeBackend struct {
	shard.Backend
	name string
	tr   *tracer

	mu          sync.Mutex
	exports     int
	exportBytes int64
}

func (b *probeBackend) SubmitFrame(ctx context.Context, slot int, frame []float64) (netserve.FrameReply, error) {
	id := b.tr.begin(b.name+".SubmitFrame", ctx)
	rep, err := b.Backend.SubmitFrame(ctx, slot, frame)
	b.tr.end(id)
	return rep, err
}

func (b *probeBackend) ExportRaw(ctx context.Context, slot int) ([]byte, error) {
	id := b.tr.begin(b.name+".ExportRaw", ctx)
	state, err := b.Backend.ExportRaw(ctx, slot)
	b.tr.end(id)
	if err == nil {
		b.mu.Lock()
		b.exports++
		b.exportBytes += int64(len(state))
		b.mu.Unlock()
	}
	return state, err
}

func (b *probeBackend) RestoreRaw(ctx context.Context, slot int, state []byte) error {
	id := b.tr.begin(b.name+".RestoreRaw", ctx)
	err := b.Backend.RestoreRaw(ctx, slot, state)
	b.tr.end(id)
	return err
}

func (b *probeBackend) exported() (n int, bytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.exports, b.exportBytes
}

// rig is one deployment of a workload's serving stack: a single
// in-process server, or two HTTP workers behind the shard router.
type rig struct {
	w    workload
	srvs []*serve.Server
	// in-process: camera i is stream i of srvs[0].
	results []<-chan serve.Result
	// fleet
	handlers []*netserve.Handler
	https    []*http.Server
	served   sync.WaitGroup
	lns      []*countingListener
	backends []*probeBackend
	router   *shard.Router
	keys     []string
}

func (w workload) serveConfig(m *model) serve.Config {
	sc := m.env.Scale
	cfg := serve.DefaultConfig()
	cfg.Stream.MonitorN = sc.MonitorN
	cfg.Stream.MonitorLag = sc.MonitorLag
	cfg.Stream.Adapt = sc.Adapt
	cfg.Stream.AdaptEveryFrames = 0
	cfg.Stream.AdaptLagFrames = 0
	if w.adaptive {
		cfg.Stream.AdaptEveryFrames = sc.AdaptEvery
		cfg.Stream.AdaptLagFrames = sc.AdaptEvery / 4
	}
	// Two servers share the process in the fleet workloads and only one
	// could own the process-wide FLOPs counter; the metered cost is the
	// layer metric flops.meter_overhead_pct.
	cfg.Unmetered = true
	cfg.BaseSeed = sc.Seed + 100
	return cfg
}

// deploy brings the workload's serving stack up over a trained model.
// snapEvery overrides the failover cadence (the no-churn reference fleet
// passes 0).
func (w workload) deploy(m *model, snapEvery int, tr *tracer) (*rig, error) {
	r := &rig{w: w}
	cfg := w.serveConfig(m)
	if !w.fleet {
		srv, err := serve.NewServer(m.det, cameras, cfg)
		if err != nil {
			return nil, err
		}
		r.srvs = []*serve.Server{srv}
		for i := 0; i < cameras; i++ {
			ch, err := srv.Results(i)
			if err != nil {
				r.close()
				return nil, err
			}
			r.results = append(r.results, ch)
		}
		return r, nil
	}
	var backends []shard.Backend
	for s := 0; s < 2; s++ {
		srv, err := serve.NewServer(m.det, w.slots, cfg)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("worker %d: %w", s, err)
		}
		r.srvs = append(r.srvs, srv)
		h, err := netserve.NewHandler(srv, netserve.Options{FrameSize: m.env.Space.PixDim()})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("worker %d: %w", s, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, fmt.Errorf("worker %d: %w", s, err)
		}
		cl := &countingListener{Listener: ln}
		hs := &http.Server{Handler: h}
		r.handlers = append(r.handlers, h)
		r.lns = append(r.lns, cl)
		r.https = append(r.https, hs)
		r.served.Add(1)
		go func() {
			defer r.served.Done()
			hs.Serve(cl) // returns once close() closes the server
		}()
		pb := &probeBackend{
			Backend: shard.NetBackend(netserve.NewClient("http://"+ln.Addr().String()), w.slots),
			name:    fmt.Sprintf("worker%d", s),
			tr:      tr,
		}
		r.backends = append(r.backends, pb)
		backends = append(backends, pb)
	}
	router, err := shard.New(backends, shard.Config{SnapshotEvery: snapEvery})
	if err != nil {
		r.close()
		return nil, err
	}
	r.router = router
	// Route every camera now, in order, so slot assignment never depends
	// on which driver submits first.
	for c := 0; c < cameras; c++ {
		key := fmt.Sprintf("cam-%d", c)
		if _, err := router.Route(key); err != nil {
			r.close()
			return nil, err
		}
		r.keys = append(r.keys, key)
	}
	return r, nil
}

var errShed = errors.New("frame shed")

// submit scores one frame for a camera and waits for its score: the
// closed-loop unit of work. A shed, an error reply and a per-frame
// processing error all count as failures.
func (r *rig) submit(ctx context.Context, cam int, f frame) (float64, error) {
	if r.router == nil {
		if err := r.srvs[0].Submit(cam, f.pix); err != nil {
			return 0, err
		}
		res, ok := <-r.results[cam]
		if !ok {
			return 0, fmt.Errorf("stream %d closed", cam)
		}
		return res.Score, res.Err
	}
	rep, err := r.router.Submit(ctx, r.keys[cam], f.data)
	if err != nil {
		if errors.Is(err, shard.ErrOverload) || errors.Is(err, netserve.ErrBusy) {
			return 0, errShed
		}
		return 0, err
	}
	if rep.Err != "" {
		return rep.Score, errors.New(rep.Err)
	}
	return rep.Score, nil
}

// stream returns the server and local stream index currently serving a
// camera.
func (r *rig) stream(cam int) (*serve.Server, int) {
	if r.router == nil {
		return r.srvs[0], cam
	}
	rt, _ := r.router.Route(r.keys[cam])
	return r.srvs[rt.Shard], rt.Slot
}

// streamStats settles and reads every camera's stream statistics.
func (r *rig) streamStats() ([]serve.Stats, error) {
	out := make([]serve.Stats, cameras)
	for c := range out {
		srv, i := r.stream(c)
		st, err := srv.StreamStats(i)
		if err != nil {
			return nil, err
		}
		if st.LastErr != "" {
			return nil, fmt.Errorf("camera %d: %s", c, st.LastErr)
		}
		out[c] = st
	}
	return out, nil
}

func (r *rig) wireBytes() int64 {
	var n int64
	for _, l := range r.lns {
		n += l.bytes()
	}
	return n
}

func (r *rig) exported() (n int, bytes int64) {
	for _, b := range r.backends {
		bn, bb := b.exported()
		n += bn
		bytes += bb
	}
	return n, bytes
}

// close stops every goroutine the rig started and waits for it.
func (r *rig) close() {
	for _, hs := range r.https {
		hs.Close()
	}
	r.served.Wait()
	if len(r.https) > 0 {
		// The worker clients ride the default transport; drop the
		// connections to listeners that no longer exist.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	for _, srv := range r.srvs {
		srv.Shutdown()
	}
}

// clock is the monotonic time base of every measurement.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }
