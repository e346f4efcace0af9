package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"edgekg/internal/autograd"
	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/decision"
	"edgekg/internal/experiments"
	"edgekg/internal/flops"
	"edgekg/internal/kg"
	"edgekg/internal/kggen"
	"edgekg/internal/netserve"
	"edgekg/internal/parallel"
	"edgekg/internal/rng"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// The traced run measures every layer from outside: a span around each
// call into a package's public functions, recorded from this directory's
// files only. Layer numbers are medians of span lengths; like the
// end-to-end timings they are taken over the least disturbed stretch of
// calls (see steadyMedian).

// steadyMedian is the per-call figure of a probe: the calls are cut into
// consecutive chunks (eight unless said otherwise) and the lowest chunk
// median is reported, so a stretch during which the host slowed the whole
// box does not set the number. Fewer than two calls per chunk fall back to
// the plain median.
func steadyMedian(ns []float64, inChunks ...int) float64 {
	chunks := 8
	if len(inChunks) > 0 {
		chunks = inChunks[0]
	}
	if len(ns) < 2*chunks {
		return median(ns)
	}
	best := 0.0
	for c := 0; c < chunks; c++ {
		m := median(ns[c*len(ns)/chunks : (c+1)*len(ns)/chunks])
		if c == 0 || m < best {
			best = m
		}
	}
	return best
}

// suite is one traced run's state.
type suite struct {
	w     workload
	o     runOpts
	tr    *tracer
	m     *model // the workload's own scale: stage probes and the depth chain
	q     *model // quick scale: adaptation, state and kg probes
	out   map[string]value
	tmp   string
	ok    bool
	notes []string
}

func (s *suite) us(name string, ns float64) {
	s.out[name] = value{Unit: "us", Value: ns / 1e3}
}
func (s *suite) ms(name string, ns float64) {
	s.out[name] = value{Unit: "ms", Value: ns / 1e6}
}
func (s *suite) count(name string, n float64) {
	s.out[name] = value{Unit: "count", Value: n}
}

// n scales a probe's call count down for smoke runs.
func (s *suite) n(full int) int {
	if s.o.smoke {
		return max(3, full/25)
	}
	return full
}

// probe times n calls of fn after warm untimed ones, one span per call
// (per calls per span for sub-microsecond functions), and returns the
// per-call span lengths in ns.
func (s *suite) probe(name string, warm, n, per int, fn func(i int)) []float64 {
	for i := 0; i < warm; i++ {
		fn(i)
	}
	first := len(s.tr.spans)
	for i := 0; i < n; i++ {
		id := s.tr.open(name, -1, -1)
		for k := 0; k < per; k++ {
			fn(i)
		}
		s.tr.end(id)
	}
	out := make([]float64, 0, n)
	for _, sp := range s.tr.spans[first:] {
		out = append(out, float64(sp.End-sp.Start)/float64(per))
	}
	return out
}

// probeRounds is how many turns each function of a rounds() probe gets.
const probeRounds = 20

// timed is one call the traced run times under a span name; i is the
// index of the input it should use.
type timed struct {
	name string
	fn   func(i int)
}

// rounds times n calls of each of several functions so that differences
// between them mean something on a box whose speed drifts: after warm
// untimed calls of each (inputs 0..warm-1), probeRounds rounds follow, and
// in every round each function in turn makes n/probeRounds back-to-back
// calls on the same inputs. Back-to-back keeps every function in its own
// steady state; taking turns puts them all under the same weather; and
// steadyMedian over probeRounds chunks keeps each function's least
// disturbed round. It returns the span lengths in ns, per function.
func (s *suite) rounds(calls []timed, warm, n int, afterWarm func()) [][]float64 {
	for _, c := range calls {
		for i := 0; i < warm; i++ {
			c.fn(i)
		}
	}
	if afterWarm != nil {
		afterWarm()
	}
	ns := make([][]float64, len(calls))
	for r := 0; r < probeRounds; r++ {
		lo, hi := warm+r*n/probeRounds, warm+(r+1)*n/probeRounds
		for c, call := range calls {
			for i := lo; i < hi; i++ {
				id := s.tr.open(call.name, -1, i)
				call.fn(i)
				s.tr.end(id)
				ns[c] = append(ns[c], float64(s.tr.spans[id].End-s.tr.spans[id].Start))
			}
		}
	}
	return ns
}

// allocsOf is the heap allocations one call of fn makes.
func allocsOf(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func flopsOf(fn func()) float64 {
	ops, _ := flops.Count(fn)
	return float64(ops)
}

// tracedRun is `-trace 1`: layer probes, the socket-to-score depth chain,
// and single-client drives of the workload with tracing off and on.
func tracedRun(w workload, o runOpts, traceOut string) (map[string]value, bool, string, error) {
	o.clients, o.setups = 1, 1
	o.blocks = cycleSets
	tmp, err := os.MkdirTemp(buildDir(), "tmp-")
	if err != nil {
		return nil, false, "", err
	}
	defer os.RemoveAll(tmp)
	s := &suite{w: w, o: o, tr: newTracer(1 << 19), out: map[string]value{}, tmp: tmp, ok: true}

	if s.m, err = buildModel(w.scale(o.smoke)); err != nil {
		return nil, false, "", err
	}
	s.q = s.m
	if w.full {
		if s.q, err = buildModel(workloads[0].scale(o.smoke)); err != nil {
			return nil, false, "", err
		}
	}
	// Deployment freezes a backbone; the probes below clone and score it
	// the way a server's streams do.
	s.m.det.Deploy()
	s.q.det.Deploy()

	for _, step := range []func() error{s.kernels, s.stages, s.chain, s.adaptation, s.graphs, s.state, s.harness} {
		if err := step(); err != nil {
			return nil, false, "", fmt.Errorf("%s traced run: %w", w.name, err)
		}
	}
	attempted, failed, err := s.drives()
	if err != nil {
		return nil, false, "", fmt.Errorf("%s traced run: %w", w.name, err)
	}
	if traceOut != "" {
		if err := s.tr.write(traceOut); err != nil {
			return nil, false, "", err
		}
	}
	fmt.Printf("%s traced run (1 client):\n", w.name)
	for _, n := range s.notes {
		fmt.Println("  note:", n)
	}
	return s.out, s.ok, contractLine(s.ok, attempted, failed, s.out), nil
}

// buildDir is where the benchmark keeps what it writes: inside the
// working directory, never elsewhere.
func buildDir() string {
	const dir = ".bench_build"
	os.MkdirAll(dir, 0o755)
	return dir
}

// kernels: tensor.MatMul at each model's largest shape — the temporal
// feed-forward, (window × inner)·(inner × 4·inner).
func (s *suite) kernels() error {
	r := rand.New(rand.NewSource(1))
	for _, sc := range []struct {
		name  string
		scale experiments.Scale
	}{{"quick", experiments.QuickScale()}, {"full", experiments.FullScale()}} {
		m, k, n := sc.scale.Window, sc.scale.TemporalInner, 4*sc.scale.TemporalInner
		a, b := tensor.RandN(r, 1, m, k), tensor.RandN(r, 1, k, n)
		ns := steadyMedian(s.probe("tensor.MatMul/"+sc.name, 50, s.n(2000), 1, func(int) { tensor.MatMul(a, b) }))
		s.us("tensor.matmul_"+sc.name+"_us", ns)
		if sc.name == "full" {
			s.out["tensor.matmul_full_gflops"] = value{Unit: "GFLOP/s", Value: 2 * float64(m*k*n) / ns}
		}
	}
	ns := steadyMedian(s.probe("parallel.For", 50, s.n(2000), 8, func(int) {
		parallel.For(2*parallel.Workers(), 1, func(lo, hi int) {})
	}))
	s.us("parallel.for_dispatch_us", ns)
	return nil
}

// oneFrame synthesises a frame of the model's pixel width as a 1-row
// matrix.
func oneFrame(m *model, r *rand.Rand, cls concept.Class) *tensor.Tensor {
	f := m.env.Gen.Frame(r, cls)
	return f.Reshape(1, f.Size())
}

// stages: each stage of one frame's scoring, called the way ScoreVideo
// calls it, and the whole of ScoreVideo around them.
func (s *suite) stages() error {
	m := s.m
	det, err := m.det.CloneCOW()
	if err != nil {
		return err
	}
	defer det.DiscardClone()
	r := rand.New(rand.NewSource(2))
	pix := oneFrame(m, r, mission)
	n := s.n(2000)
	if s.w.full {
		n = s.n(500)
	}

	// One window of the frame's own embedding, as a served frame sees it.
	sem := autograd.Constant(m.env.Space.EncodeImageBatch(pix))
	emb := det.EmbedFrames(pix).Data
	win := tensor.New(det.Window(), emb.Cols())
	for i := 0; i < det.Window(); i++ {
		copy(win.Row(i), emb.Row(0))
	}
	wins := autograd.Constant(win)
	feat := autograd.Constant(det.Temporal().ForwardBatch(wins, 1).Data)
	gnnFwd := func() { det.GNN(0).Forward(sem) }
	tempFwd := func() { det.Temporal().ForwardBatch(wins, 1) }
	score := func() { det.ScoreVideo(pix) }

	// The four stages and the whole in turns, so that what the whole costs
	// beyond its stages (core's glue) is a difference of figures taken
	// under the same weather.
	calls := []timed{
		{"embed.EncodeImageBatch", func(int) { m.env.Space.EncodeImageBatch(pix) }},
		{"gnn.Forward", func(int) { gnnFwd() }},
		{"temporal.ForwardBatch", func(int) { tempFwd() }},
		{"decision.Probs", func(int) { decision.AnomalyScores(det.Head().Probs(feat).Data) }},
		{"core.ScoreVideo/stages", func(int) { score() }},
	}
	ns := s.rounds(calls, 20, n, nil)
	var t [5]float64
	for c := range calls {
		t[c] = steadyMedian(ns[c], probeRounds)
	}
	s.us("embed.encode_us", t[0])
	s.us("gnn.forward_us", t[1])
	s.us("temporal.forward_us", t[2])
	s.us("decision.probs_us", t[3])
	s.us("core.glue_self_us", t[4]-(t[0]+t[1]+t[2]+t[3]))
	s.count("gnn.forward_flops", flopsOf(gnnFwd))
	s.count("temporal.forward_flops", flopsOf(tempFwd))

	s.count("core.score_frame_allocs", allocsOf(s.n(500), score))
	s.count("core.score_frame_flops", flopsOf(score))

	f32, err := m.det.CloneCOW()
	if err != nil {
		return err
	}
	defer f32.DiscardClone()
	f32.SetPrecision(core.PrecisionF32)
	s.us("core.score_frame_f32_us", steadyMedian(s.probe("core.ScoreVideo/f32", 20, n, 1, func(int) { f32.ScoreVideo(pix) })))

	video := tensor.New(24, pix.Cols())
	for i := 0; i < video.Rows(); i++ {
		cls := concept.Normal
		if i%2 == 1 {
			cls = mission
		}
		copy(video.Row(i), oneFrame(m, r, cls).Data())
	}
	s.us("core.score_video24_us", steadyMedian(s.probe("core.ScoreVideo/24", 5, s.n(200), 1, func(int) { det.ScoreVideo(video) })))

	mon, err := core.NewMonitor(m.env.Scale.MonitorN, m.env.Scale.MonitorLag)
	if err != nil {
		return err
	}
	s.us("core.monitor_push_us", steadyMedian(s.probe("core.Monitor.Push", 100, n, 16, func(int) { mon.Push(pix, 0.5) })))

	return nil
}

// captured is one frame submit exactly as the worker client put it on
// the wire, so the handler can be driven without a socket and without the
// benchmark knowing the frame codec.
type captured struct {
	method, path string
	header       http.Header
	body         []byte
}

// chain is the socket-to-score budget: the same frames go through the
// serving stack at six nesting depths, each depth calling the next, and a
// layer's self time is its depth's figure minus the next depth's. The
// depths take turns in rounds (see rounds), so the differences hold even
// while the box's speed drifts.
func (s *suite) chain() error {
	m := s.m
	n, warm := 2000, 200
	if s.w.full {
		n = 1000
	}
	if s.o.smoke {
		n, warm = 40, 5
	}
	fs, err := genSet(m.env.Gen, stationary(n+warm), 1, s.o.seed, cycleSets+1)
	if err != nil {
		return err
	}
	frames := fs.frames[0]
	ctx := context.Background()
	cfg := workloads[0].serveConfig(m)
	var cerr error
	fail := func(err error) {
		if err != nil && cerr == nil {
			cerr = err
		}
	}

	// Frame i belongs to camera i mod 8 at every depth, as in the
	// workloads: a served frame finds its stream's goroutine parked and
	// its state cold, which hammering one stream would hide.
	//
	// Depth 1: core — a camera's detector scores one frame.
	// Depth 2: serve.Stream.Process on standalone streams.
	var dets [cameras]*core.Detector
	var streams [cameras]*serve.Stream
	for c := 0; c < cameras; c++ {
		if dets[c], err = m.det.CloneCOW(); err != nil {
			return err
		}
		defer dets[c].DiscardClone()
		det2, err := m.det.CloneCOW()
		if err != nil {
			return err
		}
		defer det2.DiscardClone()
		if streams[c], err = serve.NewStream(c, det2, cfg.Stream, rng.NewSource(int64(c)), &flops.Counter{}); err != nil {
			return err
		}
	}
	// Depths 3 to 6 are net_fleet's own deployment — two workers behind
	// the router, every camera on its home shard and slot — entered at four
	// different doors.
	fleet, _ := findWorkload("net_fleet")
	r, err := fleet.deploy(m, 0, nil)
	if err != nil {
		return err
	}
	defer r.close()
	// Depth 3: serve.Server — submit, stream loop, result channel.
	var srvs [cameras]*serve.Server
	var slots [cameras]int
	var results [cameras]<-chan serve.Result
	var shards [cameras]int
	for c := 0; c < cameras; c++ {
		rt, err := r.router.Route(r.keys[c])
		if err != nil {
			return err
		}
		shards[c], slots[c], srvs[c] = rt.Shard, rt.Slot, r.srvs[rt.Shard]
		if results[c], err = srvs[c].Results(rt.Slot); err != nil {
			return err
		}
	}
	// Depth 4: netserve.Handler.ServeHTTP, in memory, on requests captured
	// from the real client (one capturing front per worker).
	var reqs []captured
	var capClients [2]*netserve.Client
	for sh := range capClients {
		h := r.handlers[sh]
		capSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			body, _ := io.ReadAll(req.Body)
			reqs = append(reqs, captured{method: req.Method, path: req.URL.RequestURI(), header: req.Header.Clone(), body: body})
			req.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, req)
		}))
		defer capSrv.Close()
		capClients[sh] = netserve.NewClient(capSrv.URL)
	}
	for i := 0; i < n+warm && cerr == nil; i++ {
		c := i % cameras
		_, err := capClients[shards[c]].SubmitFrame(ctx, slots[c], frames[i].data)
		fail(err)
	}
	if cerr != nil {
		return cerr
	}
	type call struct {
		req *http.Request
		rec *httptest.ResponseRecorder
	}
	calls := make([]call, len(reqs))
	for i, c := range reqs {
		req := httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body))
		req.Header = c.header
		calls[i] = call{req: req, rec: httptest.NewRecorder()}
	}
	// Depth 5: the worker client (netserve.Client.SubmitFrame behind
	// shard.NetBackend) over loopback TCP. Depth 6: shard.Router.Submit.

	depths := []timed{
		{"core.ScoreVideo", func(i int) {
			f := frames[i].pix
			dets[i%cameras].ScoreVideo(f.Reshape(1, f.Size()))
		}},
		{"serve.Stream.Process", func(i int) { streams[i%cameras].Process(frames[i].pix) }},
		{"serve.Server.Submit", func(i int) {
			c := i % cameras
			if err := srvs[c].Submit(slots[c], frames[i].pix); err != nil {
				fail(err)
				return
			}
			<-results[c]
		}},
		{"netserve.Handler.ServeHTTP", func(i int) {
			c := calls[i]
			r.handlers[shards[i%cameras]].ServeHTTP(c.rec, c.req)
			if c.rec.Code != http.StatusOK {
				fail(fmt.Errorf("handler answered %d: %s", c.rec.Code, c.rec.Body.String()))
			}
		}},
		{"netserve.Client.SubmitFrame", func(i int) {
			c := i % cameras
			_, err := r.router.Backend(shards[c]).SubmitFrame(ctx, slots[c], frames[i].data)
			fail(err)
		}},
		{"shard.Router.Submit", func(i int) {
			_, err := r.router.Submit(ctx, r.keys[i%cameras], frames[i].data)
			fail(err)
		}},
	}
	var rd0, wr0 int64
	wire := func() (rd, wr int64) {
		for _, l := range r.lns {
			rd += l.read.Load()
			wr += l.written.Load()
		}
		return rd, wr
	}
	ns := s.rounds(depths, warm, n, func() { rd0, wr0 = wire() })
	if cerr != nil {
		return cerr
	}
	// Depths 5 and 6 each cross the wire once per frame.
	rd1, wr1 := wire()
	s.out["netserve.request_bytes"] = value{Unit: "B", Value: float64(rd1-rd0) / float64(2*n)}
	s.out["netserve.reply_bytes"] = value{Unit: "B", Value: float64(wr1-wr0) / float64(2*n)}

	var t [6]float64
	for d := range depths {
		t[d] = steadyMedian(ns[d], probeRounds)
	}
	s.us("core.score_frame_us", t[0])
	s.us("serve.process_us", t[1])
	s.us("serve.process_self_us", t[1]-t[0])
	s.us("serve.roundtrip_us", t[2])
	s.us("serve.queue_self_us", t[2]-t[1])
	s.us("netserve.handler_us", t[3])
	s.us("netserve.codec_self_us", t[3]-t[2])
	s.us("netserve.client_rtt_us", t[4])
	s.us("netserve.transport_self_us", t[4]-t[3])
	s.us("shard.submit_us", t[5])
	s.us("shard.route_self_us", t[5]-t[4])
	for name, d := range map[string][]float64{"serve.frame_latency_p99_ms": ns[2], "shard.frame_latency_p99_ms": ns[5]} {
		sorted := sortedCopy(d)
		p := tailPercentile(len(sorted))
		if p == 0 {
			p = 50
		}
		s.ms(name, percentile(sorted, p))
		if p != 99 {
			s.notes = append(s.notes, fmt.Sprintf("%s is p%g: %d samples cannot state a p99", name, p, len(sorted)))
		}
	}
	return nil
}

// primedMonitor fills a monitor's window so that its mean has just
// dropped (drop true: an adaptation round triggers) or held steady.
func primedMonitor(m *model, drop bool) (*core.Monitor, error) {
	sc := m.env.Scale
	mon, err := core.NewMonitor(sc.MonitorN, sc.MonitorLag)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < sc.MonitorN; i++ {
		mon.Push(oneFrame(m, r, mission), 0.9)
	}
	after := 0.9
	if drop {
		after = 0.2
	}
	for i := 0; i < sc.MonitorN; i++ {
		// a class the backbone was not trained for
		mon.Push(oneFrame(m, r, concept.Robbery), after)
	}
	return mon, nil
}

// adaptation: one adapter round on a fresh copy-on-write clone, the idle
// round, the clones a round dispatch takes, and one training step.
func (s *suite) adaptation() error {
	q := s.q
	acfg := q.env.Scale.Adapt
	triggering, err := primedMonitor(q, true)
	if err != nil {
		return err
	}
	steady, err := primedMonitor(q, false)
	if err != nil {
		return err
	}
	calls := s.n(100)
	var stepNs, idleNs []float64
	var stepAllocs, stepFlops float64
	for i := 0; i < calls; i++ {
		for _, round := range []struct {
			mon  *core.Monitor
			want bool
		}{{triggering, true}, {steady, false}} {
			det, err := q.det.CloneCOW()
			if err != nil {
				return err
			}
			ad, err := core.NewAdapter(det, acfg, rand.New(rng.NewSource(int64(i))))
			if err != nil {
				det.DiscardClone()
				return err
			}
			mon := round.mon.Clone()
			var rep core.AdaptReport
			step := func() { rep, err = ad.Step(mon) }
			name := "core.Adapter.Step"
			if !round.want {
				name += "/idle"
			}
			switch {
			case round.want && i == 0:
				stepFlops = flopsOf(step)
			case round.want && i == 1:
				stepAllocs = allocsOf(1, step)
			default:
				id := s.tr.open(name, -1, -1)
				step()
				s.tr.end(id)
				d := float64(s.tr.spans[id].End - s.tr.spans[id].Start)
				if round.want {
					stepNs = append(stepNs, d)
				} else {
					idleNs = append(idleNs, d)
				}
			}
			det.DiscardClone()
			if err != nil {
				return err
			}
			if rep.Triggered != round.want {
				return fmt.Errorf("adapter probe: round triggered=%v, want %v", rep.Triggered, round.want)
			}
		}
	}
	s.ms("core.adapter_step_ms", steadyMedian(stepNs))
	s.count("core.adapter_step_flops", stepFlops)
	s.count("core.adapter_step_allocs", stepAllocs)
	s.us("core.adapter_idle_us", steadyMedian(idleNs))

	var clones []*core.Detector
	s.us("core.clone_cow_us", steadyMedian(s.probe("core.Detector.CloneCOW", 5, s.n(400), 1, func(int) {
		c, err := q.det.CloneCOW()
		if err == nil {
			clones = append(clones, c)
		}
	})))
	for _, c := range clones {
		c.DiscardClone()
	}
	s.us("core.monitor_clone_us", steadyMedian(s.probe("core.Monitor.Clone", 5, s.n(400), 1, func(int) { triggering.Clone() })))

	// A training step needs a trainable detector: build a second one.
	tm, err := buildModel(q.env.Scale)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(4))
	vids := tm.env.Gen.TaskVideos(r, mission, 3, 3)
	src, err := dataset.NewClipSource(vids, tm.det.Window(), tm.env.Scale.TrainBatch)
	if err != nil {
		return err
	}
	src = src.WithLabelMap(dataset.BinaryLabelMap)
	trainer := core.NewTrainer(tm.det, tm.env.TrainConfig())
	s.ms("core.train_step_ms", steadyMedian(s.probe("core.Trainer.Step", 3, s.n(100), 1, func(int) { trainer.Step(r, src) })))
	return nil
}

// graphs: the KG mutation an adapter makes when a node diverges, the KG's
// JSON form, and generating a mission KG from scratch.
func (s *suite) graphs() error {
	q := s.q
	g := q.det.Graphs()[0].Clone()
	var victim kg.NodeID = -1
	for _, n := range g.NodesAtLevel(1) {
		victim = n.ID
		break
	}
	if victim < 0 {
		return fmt.Errorf("kg probe: the mission KG has no level-1 node")
	}
	r := rand.New(rand.NewSource(5))
	var gerr error
	s.us("kg.replace_node_us", steadyMedian(s.probe("kg.Graph.ReplaceNode", 5, s.n(400), 1, func(i int) {
		fresh, err := g.ReplaceNode(r, victim, fmt.Sprintf("probe-%d", i), nil, q.env.Scale.Adapt.EdgeProb)
		if err != nil {
			gerr = err
			return
		}
		victim = fresh.ID
	})))
	if gerr != nil {
		return gerr
	}
	s.us("kg.marshal_us", steadyMedian(s.probe("kg.Graph.MarshalJSON", 5, s.n(400), 1, func(int) { g.MarshalJSON() })))
	s.ms("kggen.generate_ms", steadyMedian(s.probe("kggen.Generate", 1, s.n(40), 1, func(i int) {
		if _, _, err := kggen.Generate(q.env.NewLLM(int64(i)), mission.String(), q.env.GenOptions(), rand.New(rand.NewSource(int64(i)))); err != nil {
			gerr = err
		}
	})))
	return gerr
}

// state: deploying a server, and writing, moving and reloading one
// adapted stream's state — in process, as snapshot JSON, on disk and over
// the worker API.
func (s *suite) state() error {
	q := s.q
	aw, _ := findWorkload("adapt_shift")
	aw, _ = aw.sized(s.o.seconds, s.o.smoke)
	cfg := aw.serveConfig(q)

	var servers []*serve.Server
	var derr error
	s.ms("serve.deploy_ms", steadyMedian(s.probe("serve.NewServer", 1, s.n(40), 1, func(int) {
		srv, err := serve.NewServer(q.det, cameras, cfg)
		if err != nil {
			derr = err
			return
		}
		servers = append(servers, srv)
	})))
	for _, srv := range servers {
		srv.Shutdown()
	}
	if derr != nil {
		return derr
	}

	// One stream, adapted by a trend-shift episode, is the state moved.
	cfg.SpillDir = s.tmp
	srv, err := serve.NewServer(q.det, cameras, cfg)
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	fs, err := genSet(q.env.Gen, trendShift(aw.perCam), 1, s.o.seed, 0)
	if err != nil {
		return err
	}
	results, _ := srv.Results(0)
	for _, f := range fs.frames[0] {
		if err := srv.Submit(0, f.pix); err != nil {
			return err
		}
		if res := <-results; res.Err != nil {
			return res.Err
		}
	}
	calls := s.n(60)
	var ss *snapshot.StreamState
	var perr error
	s.ms("serve.export_ms", steadyMedian(s.probe("serve.Server.ExportStream", 2, calls, 1, func(int) {
		if ss, perr = srv.ExportStream(0); perr != nil {
			return
		}
	})))
	if perr != nil {
		return perr
	}
	var raw []byte
	s.ms("snapshot.encode_ms", steadyMedian(s.probe("snapshot.StreamState/encode", 2, calls, 1, func(int) { raw, perr = json.Marshal(ss) })))
	if perr != nil {
		return perr
	}
	s.out["snapshot.stream_bytes"] = value{Unit: "B", Value: float64(len(raw))}
	s.ms("snapshot.decode_ms", steadyMedian(s.probe("snapshot.StreamState/decode", 2, calls, 1, func(int) {
		var back snapshot.StreamState
		if err := json.Unmarshal(raw, &back); err != nil {
			perr = err
		}
	})))
	cp := snapshot.New(1)
	cp.Streams[0] = *ss
	path := filepath.Join(s.tmp, "probe-checkpoint.json")
	s.ms("snapshot.save_ms", steadyMedian(s.probe("snapshot.Save", 1, s.n(30), 1, func(int) {
		if err := snapshot.Save(path, cp); err != nil {
			perr = err
		}
	})))
	s.ms("snapshot.load_ms", steadyMedian(s.probe("snapshot.Load", 1, s.n(30), 1, func(int) {
		if _, err := snapshot.Load(path); err != nil {
			perr = err
		}
	})))
	s.ms("serve.restore_ms", steadyMedian(s.probe("serve.Server.RestoreStream", 2, calls, 1, func(int) {
		if err := srv.RestoreStream(0, ss); err != nil {
			perr = err
		}
	})))
	if perr != nil {
		return perr
	}

	// Evict to disk and bring back: the spill round trip.
	var evictNs, rehydrateNs []float64
	for i := 0; i < s.n(30); i++ {
		id := s.tr.open("serve.Server.EvictStream", -1, -1)
		err := srv.EvictStream(0)
		s.tr.end(id)
		if err != nil {
			return err
		}
		evictNs = append(evictNs, float64(s.tr.spans[id].End-s.tr.spans[id].Start))
		var d float64
		if err := srv.Do(0, func(st *serve.Stream) {
			id := s.tr.open("serve.Stream.EnsureResident", -1, -1)
			perr = st.EnsureResident()
			s.tr.end(id)
			d = float64(s.tr.spans[id].End - s.tr.spans[id].Start)
		}); err != nil {
			return err
		}
		if perr != nil {
			return perr
		}
		rehydrateNs = append(rehydrateNs, d)
	}
	s.ms("serve.evict_ms", steadyMedian(evictNs))
	s.ms("serve.rehydrate_ms", steadyMedian(rehydrateNs))

	// The same state over the worker API on loopback.
	h, err := netserve.NewHandler(srv, netserve.Options{FrameSize: q.env.Space.PixDim()})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(h)
	defer func() {
		ts.Close()
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}()
	client := netserve.NewClient(ts.URL)
	ctx := context.Background()
	s.ms("netserve.export_rtt_ms", steadyMedian(s.probe("netserve.Client.ExportRaw", 2, calls, 1, func(int) {
		if raw, perr = client.ExportRaw(ctx, 0); perr != nil {
			return
		}
	})))
	if perr != nil {
		return perr
	}
	s.ms("netserve.restore_rtt_ms", steadyMedian(s.probe("netserve.Client.RestoreRaw", 2, calls, 1, func(int) {
		if err := client.RestoreRaw(ctx, 0, raw); err != nil {
			perr = err
		}
	})))
	return perr
}

// harness: what FLOPs metering costs a served frame, and what tracing
// costs the workload.
func (s *suite) harness() error {
	q := s.q
	w, _ := workloads[0].sized(s.o.seconds, s.o.smoke)
	fs, err := genSet(q.env.Gen, stationary(w.perCam), cameras, s.o.seed, cycleSets+2)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var rate [2][]float64
	for pair := 0; pair < 8; pair++ {
		for k, metered := range []bool{false, true} {
			cfg := w.serveConfig(q)
			cfg.Unmetered = !metered
			srv, err := serve.NewServer(q.det, cameras, cfg)
			if err != nil {
				return err
			}
			r := &rig{w: w, srvs: []*serve.Server{srv}}
			for i := 0; i < cameras; i++ {
				ch, _ := srv.Results(i)
				r.results = append(r.results, ch)
			}
			rec := r.runBlock(ctx, fs, 0, s.o.clients, nil)
			r.close()
			if rec.firstErr != nil {
				return rec.firstErr
			}
			rate[k] = append(rate[k], rec.framesPerS())
		}
	}
	s.out["flops.meter_overhead_pct"] = value{Unit: "%", Value: (bestOf(rate[0])/bestOf(rate[1]) - 1) * 100}
	return s.traceOverhead()
}

func bestOf(rates []float64) float64 { return undisturbed("", rates, 1, true).Value }

// traceOverhead drives the workload's own blocks with one client,
// tracing off and on turn by turn, and reports how much slower the traced
// blocks ran. End-to-end numbers always come from untraced runs; this is
// what the spans of a traced run cost.
func (s *suite) traceOverhead() error {
	w, _ := s.w.sized(s.o.seconds, s.o.smoke)
	m := s.q
	if w.full {
		m = s.m
	}
	warm, sets, err := w.genSets(m.env.Gen, s.o.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	snap := 0
	if w.churn {
		snap = snapshotEvery
	}
	var r *rig
	base := 0
	if !w.episodic {
		if r, err = w.deploy(m, snap, nil); err != nil {
			return err
		}
		defer r.close()
		first := sets[0]
		if warm != nil {
			first = warm
		}
		if rec := r.runBlock(ctx, first, 0, 1, nil); rec.firstErr != nil {
			return rec.firstErr
		}
		base = first.perCam()
	}
	var rate [2][]float64
	for b := 0; b < 16; b++ {
		arm, tr := b%2, (*tracer)(nil)
		if arm == 1 {
			tr = s.tr
		}
		t0 := now()
		rr := r
		if w.episodic {
			if rr, err = w.deploy(m, 0, tr); err != nil {
				return err
			}
		}
		for _, pb := range rr.backends {
			pb.tr = tr
		}
		rec := rr.runBlock(ctx, sets[(b/2)%cycleSets], base, 1, tr)
		if w.episodic {
			rr.close()
			rec.wallNs = now() - t0
		} else {
			base += w.perCam
		}
		if rec.firstErr != nil {
			return rec.firstErr
		}
		rate[arm] = append(rate[arm], rec.framesPerS())
	}
	s.out["trace.overhead_pct"] = value{Unit: "%", Value: (bestOf(rate[0])/bestOf(rate[1]) - 1) * 100}
	return nil
}

// drives runs whole workloads with one client and tracing on: the
// workload itself and — when it is not one of them — adapt_shift, its
// static-KG arm and state_churn, whose streams report the adaptation and
// state-movement figures every traced run lists.
func (s *suite) drives() (attempted, failed int, err error) {
	run := func(w workload, tr *tracer) (*wlResult, error) {
		o := s.o
		o.tr = tr
		o.model = s.q
		if w.full {
			o.model = s.m
		}
		res, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		attempted += res.Attempted
		failed += res.Failed
		if !res.correct() {
			s.ok = false
			for _, c := range res.Checks {
				if !c.OK {
					s.notes = append(s.notes, fmt.Sprintf("%s check %s FAILED: %s", w.name, c.Name, c.Detail))
				}
			}
		}
		return res, nil
	}
	churnFirst := len(s.tr.spans)
	on, err := run(s.w, s.tr)
	if err != nil {
		return 0, 0, err
	}
	churnLast := len(s.tr.spans)
	for _, m := range endToEnd {
		if !m.gated {
			s.out[m.name] = value{Unit: m.unit, Value: on.Values[m.name].Value}
		}
	}
	s.count("netserve.busy_429", float64(int64(on.Shed)-on.RouterShed))
	s.count("shard.shed", float64(on.RouterShed))

	// The two arms of the paper's comparison, untraced and with the full
	// client count so that they compare with the end-to-end numbers.
	arms := func(adaptive bool) (*wlResult, error) {
		w, _ := findWorkload("adapt_shift")
		if !adaptive {
			w.name, w.adaptive = "adapt_shift/static-kg", false
		}
		o := s.o
		o.clients, o.tr, o.model = drivers, nil, s.q
		res, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		attempted += res.Attempted
		failed += res.Failed
		s.ok = s.ok && res.correct()
		return res, nil
	}
	adaptive, err := arms(true)
	if err != nil {
		return 0, 0, err
	}
	var c adaptCounts
	for _, k := range adaptive.Counts {
		c.add(k)
	}
	s.count("serve.adapt_rounds", float64(c.Rounds))
	s.count("serve.triggered_rounds", float64(c.Triggered))
	s.count("serve.pruned_nodes", float64(c.Pruned))
	s.count("serve.created_nodes", float64(c.Created))
	arm, err := arms(false)
	if err != nil {
		return 0, 0, err
	}
	s.out["serve.static_arm_frames_per_s"] = value{Unit: "frames/s", Value: arm.Values["frames_per_s"].Value}
	s.out["serve.static_arm_auc"] = value{Unit: "AUC", Value: arm.Values["served_auc"].Value}
	s.out["serve.adaptive_arm_frames_per_s"] = value{Unit: "frames/s", Value: adaptive.Values["frames_per_s"].Value}
	s.out["serve.adaptive_arm_auc"] = value{Unit: "AUC", Value: adaptive.Values["served_auc"].Value}

	if s.w.name != "state_churn" {
		churnFirst = len(s.tr.spans)
		w, _ := findWorkload("state_churn")
		if _, err = run(w, s.tr); err != nil {
			return 0, 0, err
		}
		churnLast = len(s.tr.spans)
	}
	s.us("shard.refresh_extra_us", refreshExtra(s.tr.spans[churnFirst:churnLast], churnFirst))
	return attempted, failed, nil
}

// refreshExtra is what a failover snapshot refresh adds to the frame that
// pays for it: the median length of frame spans that caused an ExportRaw
// minus the median of those that did not. base is the index of spans[0]
// in the tracer (parents are absolute).
func refreshExtra(spans []span, base int) float64 {
	refresh := map[int]bool{}
	for _, sp := range spans {
		if sp.Parent >= base && strings.HasSuffix(sp.Name, ".ExportRaw") && spans[sp.Parent-base].Name == "frame" {
			refresh[sp.Parent] = true
		}
	}
	var with, without []float64
	for i, sp := range spans {
		if sp.Name != "frame" || sp.End == 0 {
			continue
		}
		if d := float64(sp.End - sp.Start); refresh[i+base] {
			with = append(with, d)
		} else {
			without = append(without, d)
		}
	}
	if len(with) == 0 || len(without) == 0 {
		return 0
	}
	return median(with) - median(without)
}
