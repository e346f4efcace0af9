package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"edgekg/internal/autograd"
	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/experiments"
	"edgekg/internal/flops"
	"edgekg/internal/netserve"
	"edgekg/internal/parallel"
	"edgekg/internal/retrieval"
	"edgekg/internal/serve"
	"edgekg/internal/shard"
	"edgekg/internal/tensor"
	"edgekg/internal/tensor/kernels"
)

// The micro-benchmark harness mirrors the hot-path benchmarks of
// bench_test.go (GNN forward, frame scoring, train step, adaptation step)
// and writes a machine-readable report so successive PRs accumulate a
// perf trajectory that scripts can diff: ns/op, allocs/op, bytes/op and
// measured FLOPs per operation for each path, plus the parallelism the
// run had available.

// benchResult is one benchmark's measurements.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	FLOPsPerOp  int64   `json:"flops_per_op"`
	// MemBytesPerStream is the memory-ledger resident bytes charged per
	// stream (StreamServeMem benches only): the per-stream density of
	// copy-on-write clones at each scoring width.
	MemBytesPerStream int64 `json:"mem_bytes_per_stream,omitempty"`
	// HeapBytesPerStream is the measured process heap growth per stream
	// for the same deployment (GC-settled delta; noisier than the ledger
	// figure but ledger-independent).
	HeapBytesPerStream int64 `json:"heap_bytes_per_stream,omitempty"`
	// Fleet figures (NetServe bench only): end-to-end per-frame latency
	// percentiles through the HTTP API and shard router, fleet
	// throughput, and how many submits admission control shed.
	ThroughputFPS float64 `json:"throughput_fps,omitempty"`
	P50Ms         float64 `json:"p50_ms,omitempty"`
	P99Ms         float64 `json:"p99_ms,omitempty"`
	P999Ms        float64 `json:"p999_ms,omitempty"`
	Shed          int64   `json:"shed,omitempty"`
	// Failover figures (FailoverRecovery bench only): time from the first
	// failed health probe to the shard being declared dead, time to
	// restore + replay its keys onto survivors, and how many frames the
	// replay re-scored.
	DetectionMs    float64 `json:"detection_ms,omitempty"`
	RecoveryMs     float64 `json:"recovery_ms,omitempty"`
	FramesReplayed int64   `json:"frames_replayed,omitempty"`
}

// benchReport is the BENCH_<n>.json schema.
type benchReport struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Scale      string `json:"scale"`
	// Backend is the kernel backend the unsuffixed benches ran under (the
	// one selected at init: best available, or the EDGEKG_BACKEND
	// override). The "<bench>/<backend>" variants pin their own.
	Backend string `json:"backend"`
	// CPUFeatures records the SIMD extensions detected on this host, so a
	// perf trajectory shows what hardware produced each number.
	CPUFeatures []string `json:"cpu_features"`
	// Precision is the scoring width the unsuffixed benches ran under
	// (EDGEKG_PRECISION resolution; f64 unless overridden). The F32/Int8
	// variants pin their own reduced-precision paths regardless.
	Precision string        `json:"precision"`
	Results   []benchResult `json:"results"`
}

// runMicroBenches executes the hot-path benchmarks against env and writes
// the JSON report to path. In smoke mode every benchmark body runs exactly
// once with no timing loop — CI uses it to keep the bench code compiling
// and executing without paying for stable measurements.
func runMicroBenches(env *experiments.Env, scale, path string, smoke bool) error {
	det, _, err := env.BuildTrainedDetector(concept.Stealing, 1001)
	if err != nil {
		return fmt.Errorf("bench fixture: %w", err)
	}

	report := benchReport{
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workers:     parallel.Workers(),
		Scale:       scale,
		Backend:     kernels.Active().Name(),
		CPUFeatures: kernels.CPUFeatures(),
		Precision:   core.PrecisionAuto.Resolve().String(),
	}

	add := func(name string, fn func()) {
		// FLOPs are measured on a single warm invocation; the timing loop
		// runs without the meter so accounting does not skew ns/op.
		ops, _ := flops.Count(fn)
		if smoke {
			report.Results = append(report.Results, benchResult{Name: name, Iterations: 1, FLOPsPerOp: ops})
			fmt.Printf("%-20s smoke ok %12d FLOPs\n", name, ops)
			return
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		report.Results = append(report.Results, benchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			FLOPsPerOp:  ops,
		})
		fmt.Printf("%-20s %12.0f ns/op %8d allocs/op %10d B/op %12d FLOPs\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), r.AllocedBytesPerOp(), ops)
	}

	rng := rand.New(rand.NewSource(1))
	det.SetTraining(false)
	frames := tensor.New(8, env.Space.PixDim())
	for i := 0; i < 8; i++ {
		copy(frames.Row(i), env.Gen.Frame(rng, concept.Stealing).Data())
	}
	add("GNNForward", func() { det.EmbedFrames(frames) })

	frame := env.Gen.Frame(rng, concept.Robbery).Reshape(1, env.Space.PixDim())
	add("ScoreFrame", func() { det.ScoreVideo(frame) })
	// The same engine at float32 on the identical workload, selected the
	// way production does — SetPrecision on a clone, so the shared
	// fixture's config stays untouched: the ScoreFrame → ScoreFrameF32
	// delta is the float32 latency win.
	det32, err := det.CloneCOW()
	if err != nil {
		return err
	}
	det32.SetPrecision(core.PrecisionF32)
	add("ScoreFrameF32", func() { det32.ScoreVideo(frame) })

	// The batched temporal pass in isolation: 8 windows through one tape,
	// the granularity ScoreVideo and TrainStep see per clip.
	const winBatch = 8
	wins := tensor.RandN(rng, 1, winBatch*det.Window(), det.ReasoningDim())
	add("TemporalForwardBatch", func() { det.Temporal().ForwardBatch(autograd.Constant(wins), winBatch) })

	// Token-bank decode retrieval: the float64 token table versus its
	// int8-quantized twin on the same query — the RetrievalNearest →
	// RetrievalNearestInt8 delta is the quantized-lookup latency, and the
	// tables' footprints are reported by the retrieval suite's bounds.
	retr := retrieval.New(env.Space)
	qretr := retrieval.NewQuantized(env.Space)
	query := env.Space.TextEncode("gun mask robbery")
	add("RetrievalNearest", func() { retr.Nearest(query, 5, retrieval.Euclidean) })
	add("RetrievalNearestInt8", func() { qretr.Nearest(query, 5, retrieval.Euclidean) })

	video := tensor.New(24, env.Space.PixDim())
	for i := 0; i < video.Rows(); i++ {
		copy(video.Row(i), env.Gen.Frame(rng, concept.Robbery).Data())
	}
	add("ScoreVideo24", func() { det.ScoreVideo(video) })

	trainDet, _, err := env.BuildTrainedDetector(concept.Stealing, 1002)
	if err != nil {
		return fmt.Errorf("train fixture: %w", err)
	}
	vids := env.Gen.TaskVideos(rng, concept.Stealing, 3, 3)
	src, err := dataset.NewClipSource(vids, trainDet.Window(), 8)
	if err != nil {
		return fmt.Errorf("clip source: %w", err)
	}
	bsrc := src.WithLabelMap(dataset.BinaryLabelMap)
	tr := core.NewTrainer(trainDet, core.DefaultTrainConfig())
	add("TrainStep", func() { tr.Step(rng, bsrc) })

	// Per-backend variants of the three headline benches: the same
	// workloads pinned to each registered kernel backend, in one report, so
	// the scalar → unrolled → avx2 trajectory is measured on the same host
	// in the same run. The forward benches reuse the scoring fixtures (no
	// mutation); TrainStep gets a fresh same-seed fixture per backend so
	// every backend trains from identical starting weights.
	for _, bkName := range kernels.Names() {
		restore, err := kernels.Use(bkName)
		if err != nil {
			return fmt.Errorf("backend %s: %w", bkName, err)
		}
		add("GNNForward/"+bkName, func() { det.EmbedFrames(frames) })
		add("TemporalForwardBatch/"+bkName, func() { det.Temporal().ForwardBatch(autograd.Constant(wins), winBatch) })
		bkDet, _, berr := env.BuildTrainedDetector(concept.Stealing, 1002)
		if berr != nil {
			restore()
			return fmt.Errorf("train fixture (%s): %w", bkName, berr)
		}
		bkTr := core.NewTrainer(bkDet, core.DefaultTrainConfig())
		add("TrainStep/"+bkName, func() { bkTr.Step(rng, bsrc) })
		restore()
	}

	// The 4-clip microbatch pair: the sequential-accumulation reference
	// versus the data-parallel sharded step, same semantics (equivalence
	// suite: ≤1e-12), different execution. Separate fixtures so neither
	// bench trains the other's detector.
	const microK = 4
	mbCfg := core.DefaultTrainConfig()
	mbCfg.Microbatch = microK
	seqDet, _, err := env.BuildTrainedDetector(concept.Stealing, 1004)
	if err != nil {
		return fmt.Errorf("seq microbatch fixture: %w", err)
	}
	trSeq := core.NewTrainer(seqDet, mbCfg)
	add("TrainStepSeqAccum", func() { trSeq.StepSequential(rng, bsrc) })

	parDet, _, err := env.BuildTrainedDetector(concept.Stealing, 1005)
	if err != nil {
		return fmt.Errorf("parallel microbatch fixture: %w", err)
	}
	trPar := core.NewTrainer(parDet, mbCfg)
	add("TrainStepParallel", func() { trPar.Step(rng, bsrc) })

	primedMonitor := func() (*core.Monitor, error) {
		mon, err := core.NewMonitor(32, 16)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 32; i++ {
			mon.Push(env.Gen.Frame(rng, concept.Stealing).Reshape(1, env.Space.PixDim()), 0.9)
		}
		for i := 0; i < 32; i++ {
			mon.Push(env.Gen.Frame(rng, concept.Robbery).Reshape(1, env.Space.PixDim()), 0.2)
		}
		return mon, nil
	}
	adaptDet, _, err := env.BuildTrainedDetector(concept.Stealing, 1003)
	if err != nil {
		return fmt.Errorf("adapt fixture: %w", err)
	}
	acfg := core.DefaultAdaptConfig()
	acfg.Shards = 1 // single-tape baseline, the pre-data-parallel path
	adapter, err := core.NewAdapter(adaptDet, acfg, rng)
	if err != nil {
		return fmt.Errorf("adapter: %w", err)
	}
	mon, err := primedMonitor()
	if err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	add("AdaptationStep", func() {
		if _, err := adapter.Step(mon); err != nil {
			panic(err)
		}
	})

	adaptParDet, _, err := env.BuildTrainedDetector(concept.Stealing, 1003)
	if err != nil {
		return fmt.Errorf("parallel adapt fixture: %w", err)
	}
	adapterPar, err := core.NewAdapter(adaptParDet, core.DefaultAdaptConfig(), rng)
	if err != nil {
		return fmt.Errorf("parallel adapter: %w", err)
	}
	monPar, err := primedMonitor()
	if err != nil {
		return fmt.Errorf("parallel monitor: %w", err)
	}
	add("AdaptationStepParallel", func() {
		if _, err := adapterPar.Step(monPar); err != nil {
			panic(err)
		}
	})

	// Multi-stream serving throughput: one frame submitted to every stream
	// per iteration (so ns/op is the latency of one serving "tick" across
	// n cameras), scoring-only for stable timing. The servers share one
	// backbone fixture — serving clones per-stream state and leaves the
	// backbone untouched.
	serveDet, _, err := env.BuildTrainedDetector(concept.Stealing, 1006)
	if err != nil {
		return fmt.Errorf("serve fixture: %w", err)
	}
	for _, nStreams := range []int{1, 4, 8} {
		scfg := serve.DefaultConfig()
		scfg.Stream.AdaptEveryFrames = 0
		// Unmetered, like every other timed path here: the stream ledgers
		// stay silent during the timing loop, and the one-shot FLOPs
		// measurement (add's flops.Count wrapper) still sees the kernels.
		scfg.Unmetered = true
		srv, err := serve.NewServer(serveDet, nStreams, scfg)
		if err != nil {
			return fmt.Errorf("serve bench (%d streams): %w", nStreams, err)
		}
		sframes := make([]*tensor.Tensor, nStreams)
		for i := range sframes {
			sframes[i] = env.Gen.Frame(rng, concept.Robbery)
		}
		n := nStreams
		add(fmt.Sprintf("StreamServe%d", n), func() {
			for i := 0; i < n; i++ {
				if err := srv.Submit(i, sframes[i]); err != nil {
					panic(err)
				}
			}
			for i := 0; i < n; i++ {
				ch, err := srv.Results(i)
				if err != nil {
					panic(err)
				}
				if res, ok := <-ch; !ok || res.Err != nil {
					panic(fmt.Sprintf("stream %d: ok=%v err=%v", i, ok, res.Err))
				}
			}
		})
		srv.Shutdown()
	}

	// Stream memory density: bytes/stream (memory ledger + GC-settled heap
	// delta) and the cost of one serving tick. Unadapted streams alias the
	// backbone's graphs and token banks copy-on-write, so their charged
	// bytes collapse to the monitor window — the 10-100× streams-per-process
	// headroom.
	sframe := env.Gen.Frame(rng, concept.Robbery)
	memBench := func(nStreams int, prec core.Precision) error {
		name := fmt.Sprintf("StreamServeMemCOW%d", nStreams)
		if prec.Resolve() == core.PrecisionF32 {
			// The reduced-precision fleet: the same clones scoring at
			// float32 with float32 monitor frames — compare against
			// StreamServeMemCOW<n> for the bytes/stream win.
			name = fmt.Sprintf("StreamServeMemF32%d", nStreams)
		}
		scfg := serve.DefaultConfig()
		scfg.Stream.AdaptEveryFrames = 0
		scfg.Stream.Precision = prec
		scfg.Unmetered = true
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		srv, err := serve.NewServer(serveDet, nStreams, scfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		defer srv.Shutdown()
		tick := func() {
			for i := 0; i < nStreams; i++ {
				if err := srv.Submit(i, sframe); err != nil {
					panic(err)
				}
			}
			for i := 0; i < nStreams; i++ {
				ch, err := srv.Results(i)
				if err != nil {
					panic(err)
				}
				if res, ok := <-ch; !ok || res.Err != nil {
					panic(fmt.Sprintf("stream %d: ok=%v err=%v", i, ok, res.Err))
				}
			}
		}
		tick()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heap := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / int64(nStreams)
		if heap < 0 {
			heap = 0
		}
		// Resident bytes via the on-demand per-stream breakdown (the shared
		// ledger only refreshes per frame on budgeted servers).
		var ledger int64
		for i := 0; i < nStreams; i++ {
			stats, err := srv.StreamStats(i)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			ledger += stats.ResidentBytes
		}
		ledger /= int64(nStreams)
		res := benchResult{Name: name, Iterations: 1, MemBytesPerStream: ledger, HeapBytesPerStream: heap}
		if smoke {
			fmt.Printf("%-20s smoke ok %12d ledger B/stream %10d heap B/stream\n", name, ledger, heap)
		} else {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tick()
				}
			})
			res.Iterations = r.N
			res.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
			res.AllocsPerOp = r.AllocsPerOp()
			res.BytesPerOp = r.AllocedBytesPerOp()
			fmt.Printf("%-20s %12.0f ns/op %8d allocs/op %12d ledger B/stream %10d heap B/stream\n",
				name, res.NsPerOp, res.AllocsPerOp, ledger, heap)
		}
		report.Results = append(report.Results, res)
		return nil
	}
	for _, nStreams := range []int{8, 64} {
		for _, prec := range []core.Precision{core.PrecisionAuto, core.PrecisionF32} {
			if err := memBench(nStreams, prec); err != nil {
				return err
			}
		}
	}

	// The networked serving tier end to end: a 2-shard fleet (two
	// serve.Servers behind the HTTP/JSON API on loopback TCP) driven
	// through the shard router by the closed-loop load generator — 8
	// camera streams submitting concurrently, scoring only. One run is
	// the measurement (percentiles need the whole latency population,
	// not a timing loop): per-frame latency through HTTP round trip +
	// scoring, and fleet throughput.
	netServeBench := func() error {
		const nshards, nkeys = 2, 8
		nframes := 128
		if smoke {
			nframes = 8
		}
		var cleanup []func()
		defer func() {
			for _, f := range cleanup {
				f()
			}
		}()
		backends := make([]shard.Backend, nshards)
		for s := 0; s < nshards; s++ {
			scfg := serve.DefaultConfig()
			scfg.Stream.AdaptEveryFrames = 0
			scfg.Unmetered = true
			srv, err := serve.NewServer(serveDet, nkeys, scfg)
			if err != nil {
				return fmt.Errorf("NetServe shard %d: %w", s, err)
			}
			cleanup = append(cleanup, srv.Shutdown)
			h, err := netserve.NewHandler(srv, netserve.Options{FrameSize: env.Space.PixDim()})
			if err != nil {
				return fmt.Errorf("NetServe shard %d: %w", s, err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("NetServe shard %d: %w", s, err)
			}
			hs := &http.Server{Handler: h}
			go hs.Serve(ln)
			cleanup = append(cleanup, func() { hs.Close() })
			backends[s] = shard.NetBackend(netserve.NewClient("http://"+ln.Addr().String()), nkeys)
		}
		router, err := shard.New(backends, shard.Config{})
		if err != nil {
			return err
		}
		keys := make([]string, nkeys)
		schedules := make(map[string][][]float64, nkeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("cam-%d", i)
			sched := make([][]float64, nframes)
			for j := range sched {
				sched[j] = env.Gen.Frame(rng, concept.Robbery).Data()
			}
			schedules[keys[i]] = sched
		}
		rep, err := shard.Run(context.Background(), router, shard.Scenario{
			Keys:   keys,
			Frames: nframes,
			Frame:  func(key string, seq int) []float64 { return schedules[key][seq] },
		})
		if err != nil {
			return fmt.Errorf("NetServe run: %w", err)
		}
		name := fmt.Sprintf("NetServe%dx%d", nshards, nkeys)
		report.Results = append(report.Results, benchResult{
			Name:          name,
			Iterations:    rep.OK,
			ThroughputFPS: rep.Throughput,
			P50Ms:         rep.P50Ms,
			P99Ms:         rep.P99Ms,
			P999Ms:        rep.P999Ms,
			Shed:          int64(rep.Shed),
		})
		fmt.Printf("%-20s %12.0f frames/s p50=%.2fms p99=%.2fms p999=%.2fms (%d frames, shed %d)\n",
			name, rep.Throughput, rep.P50Ms, rep.P99Ms, rep.P999Ms, rep.OK, rep.Shed)
		return nil
	}
	if err := netServeBench(); err != nil {
		return err
	}

	// Fault tolerance end to end: the same 2-shard loopback fleet with the
	// router's failover cache armed, one worker killed abruptly mid-run
	// (in-flight connections severed, nothing drains). The health monitor
	// detects the death, failover rehomes the dead shard's cameras onto
	// the survivor from cached snapshots and replays the frames scored
	// since, and the drivers retry through the outage — the measurement is
	// detection latency, recovery (restore + replay) time, and replay
	// volume. One run is the measurement: a crash drill has no timing loop.
	failoverBench := func() error {
		const nshards, nkeys = 2, 8
		nframes := 64
		if smoke {
			nframes = 16
		}
		var cleanup []func()
		defer func() {
			for _, f := range cleanup {
				f()
			}
		}()
		backends := make([]shard.Backend, nshards)
		for s := 0; s < nshards; s++ {
			scfg := serve.DefaultConfig()
			scfg.Stream.AdaptEveryFrames = 0
			scfg.Unmetered = true
			srv, err := serve.NewServer(serveDet, nkeys, scfg)
			if err != nil {
				return fmt.Errorf("FailoverRecovery shard %d: %w", s, err)
			}
			cleanup = append(cleanup, srv.Shutdown)
			h, err := netserve.NewHandler(srv, netserve.Options{FrameSize: env.Space.PixDim()})
			if err != nil {
				return fmt.Errorf("FailoverRecovery shard %d: %w", s, err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("FailoverRecovery shard %d: %w", s, err)
			}
			hs := &http.Server{Handler: h}
			go hs.Serve(ln)
			go func() {
				// A die request is an abrupt stop: sever every connection.
				<-h.KillRequested()
				hs.Close()
			}()
			cleanup = append(cleanup, func() { hs.Close() })
			backends[s] = shard.NetBackend(netserve.NewClient("http://"+ln.Addr().String()), nkeys)
		}
		router, err := shard.New(backends, shard.Config{SnapshotEvery: 8})
		if err != nil {
			return err
		}
		monitor := shard.NewHealthMonitor(router, shard.HealthConfig{
			Interval:  20 * time.Millisecond,
			Timeout:   500 * time.Millisecond,
			Threshold: 2,
		})
		monitor.Start()
		defer monitor.Stop()
		keys := make([]string, nkeys)
		schedules := make(map[string][][]float64, nkeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("cam-%d", i)
			sched := make([][]float64, nframes)
			for j := range sched {
				sched[j] = env.Gen.Frame(rng, concept.Robbery).Data()
			}
			schedules[keys[i]] = sched
		}
		rep, err := shard.Run(context.Background(), router, shard.Scenario{
			Keys:   keys,
			Frames: nframes,
			Frame:  func(key string, seq int) []float64 { return schedules[key][seq] },
			Kill:   &shard.Kill{Shard: 1, At: nframes / 2},
		})
		if err != nil {
			return fmt.Errorf("FailoverRecovery run: %w", err)
		}
		monitor.Stop()
		reports := monitor.Reports()
		if len(reports) == 0 {
			return fmt.Errorf("FailoverRecovery: the killed shard was never detected")
		}
		fo := reports[0]
		name := fmt.Sprintf("FailoverRecovery%dx%d", nshards, nkeys)
		res := benchResult{
			Name:           name,
			Iterations:     rep.OK,
			ThroughputFPS:  rep.Throughput,
			DetectionMs:    float64(fo.Detection.Microseconds()) / 1e3,
			RecoveryMs:     float64(fo.Recovery.Microseconds()) / 1e3,
			FramesReplayed: int64(fo.FramesReplayed),
		}
		report.Results = append(report.Results, res)
		fmt.Printf("%-20s detect=%.0fms recover=%.0fms replayed=%d cameras rehomed=%d (%d frames ok, %d retried)\n",
			name, res.DetectionMs, res.RecoveryMs, fo.FramesReplayed, len(fo.Rehomed), rep.OK, rep.Retried)
		return nil
	}
	if err := failoverBench(); err != nil {
		return err
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
