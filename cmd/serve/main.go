// Command serve runs the multi-camera edge serving runtime: one process
// scoring N simulated camera streams over one shared frozen detector,
// with per-stream continuous KG adaptation. Each camera's anomaly trend
// drifts at a staggered frame index, so the streams exercise independent
// adaptation trajectories; a periodic stats dump shows per-stream frames,
// recent mean score and adaptation activity, and the run ends with
// per-stream deployment statistics and test AUC on the final trend.
//
// With -checkpoint-dir the deployment is checkpointed (atomic
// temp-then-rename write of checkpoint.json) every -checkpoint-every
// frames and at the end of the run; -resume warm-restarts from the saved
// checkpoint — the backbone is retrained deterministically from the seed,
// every stream's adapted state is restored, and serving continues from
// the recorded per-stream frame counts toward the (possibly larger)
// -frames target.
//
// Usage:
//
//	serve -streams 4 -frames 512 -initial Stealing -shifted Robbery -drift-at 192 -stagger 64
//	serve -frames 256 -checkpoint-dir /tmp/ck            (checkpointed run)
//	serve -frames 512 -checkpoint-dir /tmp/ck -resume    (continue it warm)
//	serve -smoke    (tiny CI configuration)
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"edgekg"
	"edgekg/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var (
		streams      = flag.Int("streams", 4, "camera stream count")
		frames       = flag.Int("frames", 256, "frames per stream")
		rate         = flag.Float64("rate", 0.5, "anomaly rate of each stream")
		initial      = flag.String("initial", "Stealing", "anomaly class every stream starts on")
		shifted      = flag.String("shifted", "Robbery", "anomaly class streams drift to")
		driftAt      = flag.Int("drift-at", 96, "frame index at which stream 0's trend shifts")
		stagger      = flag.Int("stagger", 32, "extra drift delay per stream index")
		adaptEvery   = flag.Int("adapt-every", 32, "adaptation cadence in frames (0 disables)")
		adaptLag     = flag.Int("adapt-lag", 8, "frames a stream keeps scoring on its previous KG while adapting (0 = synchronous)")
		trainSteps   = flag.Int("train-steps", 0, "override training steps (0 = preset)")
		seed         = flag.Int64("seed", 42, "seed")
		statsEvery   = flag.Duration("stats-every", 2*time.Second, "interval between stats dumps (0 disables)")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for warm-restart checkpoints (empty disables)")
		ckptEvery    = flag.Int("checkpoint-every", 64, "checkpoint cadence in frames per stream (requires -checkpoint-dir)")
		resume       = flag.Bool("resume", false, "warm-restart from -checkpoint-dir's checkpoint before serving")
		smoke        = flag.Bool("smoke", false, "tiny CI configuration: 2 streams, 48 frames, short training")
		memBudget    = flag.String("mem-budget", "", "per-process resident-memory budget, e.g. 64K, 2M, 1G (empty disables eviction)")
		spillDir     = flag.String("spill-dir", "", "directory for evicted-stream spill files (default: a temp dir when -mem-budget is set)")
		precision    = flag.String("precision", "", "scoring width: auto (EDGEKG_PRECISION, default f64), f64, or f32 (float32 scoring + float32 monitor frames)")
		listen       = flag.String("listen", "", "serve the HTTP API on this address (e.g. 127.0.0.1:9701) instead of self-driving synthetic cameras; cmd/loadgen is the driver")
		maxPending   = flag.Int("max-pending", 8, "with -listen: frame submits queued per stream slot before shedding with 429")
		ckptInterval = flag.Duration("checkpoint-interval", 0, "with -listen and -checkpoint-dir: wall-clock cadence for periodic worker checkpoints (0 disables)")
	)
	flag.Parse()

	if *smoke {
		// Apply the smoke preset without clobbering explicitly set flags,
		// so CI can run e.g. `-smoke -frames 24` then `-smoke -frames 48
		// -resume` for a checkpoint round trip.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		preset := func(name string, apply func()) {
			if !set[name] {
				apply()
			}
		}
		preset("streams", func() { *streams = 2 })
		preset("frames", func() { *frames = 48 })
		preset("drift-at", func() { *driftAt = 16 })
		preset("stagger", func() { *stagger = 8 })
		preset("adapt-every", func() { *adaptEvery = 8 })
		preset("adapt-lag", func() { *adaptLag = 2 })
		preset("train-steps", func() { *trainSteps = 120 })
		preset("stats-every", func() { *statsEvery = 0 })
		preset("checkpoint-every", func() { *ckptEvery = 16 })
	}

	// Validate before building anything: a bad flag combination should be
	// one clear error, not a downstream panic.
	_, precErr := core.ParsePrecision(*precision)
	switch {
	case *streams < 1:
		log.Fatalf("-streams %d: stream count must be ≥1", *streams)
	case *frames < 1:
		log.Fatalf("-frames %d: frame count must be ≥1", *frames)
	case *rate < 0 || *rate > 1:
		log.Fatalf("-rate %v: anomaly rate must be in [0,1]", *rate)
	case *driftAt < 0:
		log.Fatalf("-drift-at %d: drift frame must be ≥0", *driftAt)
	case *stagger < 0:
		log.Fatalf("-stagger %d: stagger must be ≥0", *stagger)
	case *adaptEvery < 0:
		log.Fatalf("-adapt-every %d: adaptation cadence must be ≥0 (0 disables)", *adaptEvery)
	case *adaptLag < 0:
		log.Fatalf("-adapt-lag %d: adaptation lag must be ≥0 (0 = synchronous)", *adaptLag)
	case *trainSteps < 0:
		log.Fatalf("-train-steps %d: training steps must be ≥0 (0 = preset)", *trainSteps)
	case *ckptEvery < 1:
		log.Fatalf("-checkpoint-every %d: checkpoint cadence must be ≥1", *ckptEvery)
	case *resume && *ckptDir == "":
		log.Fatal("-resume requires -checkpoint-dir")
	case precErr != nil:
		log.Fatalf("-precision: %v", precErr)
	case *maxPending < 1:
		log.Fatalf("-max-pending %d: must be ≥1", *maxPending)
	case *ckptInterval < 0:
		log.Fatalf("-checkpoint-interval %v: must be ≥0", *ckptInterval)
	case *ckptInterval > 0 && (*listen == "" || *ckptDir == ""):
		log.Fatal("-checkpoint-interval requires -listen and -checkpoint-dir")
	}
	if *adaptEvery > 0 && *adaptLag >= *adaptEvery {
		// Supported (the engine force-joins an overdue round at the next
		// trigger, still frame-deterministic) but rarely what you want.
		log.Printf("warning: -adapt-lag %d ≥ -adapt-every %d: each round is force-joined at the next trigger", *adaptLag, *adaptEvery)
	}
	ckptPath := ""
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatalf("-checkpoint-dir: %v", err)
		}
		ckptPath = filepath.Join(*ckptDir, "checkpoint.json")
	}
	budgetBytes, err := parseBytes(*memBudget)
	if err != nil {
		log.Fatalf("-mem-budget %q: %v", *memBudget, err)
	}
	if budgetBytes > 0 && *spillDir == "" {
		dir, err := os.MkdirTemp("", "edgekg-spill-*")
		if err != nil {
			log.Fatalf("-mem-budget: creating default spill dir: %v", err)
		}
		defer os.RemoveAll(dir)
		*spillDir = dir
	}
	if *spillDir != "" {
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			log.Fatalf("-spill-dir: %v", err)
		}
	}

	opts := edgekg.DefaultOptions()
	opts.Seed = *seed
	if *trainSteps > 0 {
		opts.TrainSteps = *trainSteps
	}
	sys, err := edgekg.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training backbone on %s...\n", *initial)
	if err := sys.Train(*initial); err != nil {
		log.Fatal(err)
	}

	// Synthesise every camera's frame schedule up front (deterministic, and
	// keeps the shared master RNG out of the camera goroutines) with the
	// derivation cmd/loadgen shares: a longer -frames target extends a
	// shorter one frame-for-frame, which is what lets -resume replay the
	// exact frames the checkpointed run served and continue past them.
	var schedules [][][]float64
	if *listen == "" {
		fmt.Printf("synthesising %d streams × %d frames (drift at %d + %d·i)...\n", *streams, *frames, *driftAt, *stagger)
		if schedules, err = sys.CameraSchedules(*streams, *frames, *initial, *shifted, *rate, *driftAt, *stagger, *seed); err != nil {
			log.Fatal(err)
		}
	}
	srv, err := sys.Serve(edgekg.ServeOptions{
		Streams:          *streams,
		Adaptive:         *adaptEvery > 0,
		AdaptEveryFrames: *adaptEvery,
		AdaptLagFrames:   *adaptLag,
		ScoreHistory:     64,
		MemBudgetBytes:   budgetBytes,
		SpillDir:         *spillDir,
		Precision:        *precision,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Warm restart: restore every stream's adapted state over the freshly
	// retrained backbone and continue from the recorded frame counts. The
	// counts come from the checkpoint (not a Stats probe, whose barrier
	// would join a restored in-flight round early and move its swap frame).
	startAt := make([]int, *streams)
	if *resume {
		counts, err := srv.LoadCheckpoint(ckptPath)
		if err != nil {
			log.Fatalf("resume: %v", err)
		}
		if len(counts) != *streams {
			log.Fatalf("resume: checkpoint has %d streams, want %d", len(counts), *streams)
		}
		for i, n := range counts {
			if n > *frames {
				log.Fatalf("resume: stream %d checkpointed at frame %d, beyond the -frames %d target", i, n, *frames)
			}
			startAt[i] = n
		}
		fmt.Printf("resumed from %s (stream frame counts %v)\n", ckptPath, startAt)
	}

	start := time.Now()
	// Stats dumper, time-based, across the whole serving phase.
	stopStats := make(chan struct{})
	var statsWG sync.WaitGroup
	if *statsEvery > 0 {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			ticker := time.NewTicker(*statsEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stopStats:
					return
				case <-ticker.C:
					for i := 0; i < *streams; i++ {
						st, err := srv.Stats(i)
						if err != nil {
							continue
						}
						scores, _ := srv.RecentScores(i)
						mean := 0.0
						for _, s := range scores {
							mean += s
						}
						if len(scores) > 0 {
							mean /= float64(len(scores))
						}
						fmt.Printf("[t+%5.1fs] stream %d: frames %4d, recent mean score %.3f, rounds %d (%d triggered)\n",
							time.Since(start).Seconds(), i, st.Frames, mean, st.AdaptRounds, st.TriggeredRounds)
					}
				}
			}
		}()
	}

	// Networked mode: expose the HTTP API and let remote drivers
	// (cmd/loadgen, a shard router) submit frames, poll stats, trigger
	// checkpoints and migrate streams. Blocks until a client POSTs
	// /v1/shutdown; there is no fixed frame target, so the final dump
	// reports whatever the drivers pushed.
	if *listen != "" {
		// Periodic worker checkpoints: a wall-clock ticker snapshots the
		// whole deployment so a crashed worker's last-known state survives
		// on disk (the router-side failover cache is what rebuilds live
		// keys bit-exactly; these checkpoints are the warm-restart path
		// for bringing a replacement worker back up).
		stopCkpt := make(chan struct{})
		var ckptWG sync.WaitGroup
		if *ckptInterval > 0 {
			ckptWG.Add(1)
			go func() {
				defer ckptWG.Done()
				ticker := time.NewTicker(*ckptInterval)
				defer ticker.Stop()
				for {
					select {
					case <-stopCkpt:
						return
					case <-ticker.C:
						if err := srv.SaveCheckpoint(ckptPath); err != nil {
							log.Printf("periodic checkpoint: %v", err)
						} else {
							fmt.Printf("periodic checkpoint to %s\n", ckptPath)
						}
					}
				}
			}()
		}
		err := srv.NetListen(*listen, edgekg.NetServeOptions{
			MaxPending:     *maxPending,
			CheckpointPath: ckptPath,
			Ready:          func(addr string) { fmt.Printf("listening on %s (%d streams)\n", addr, *streams) },
		})
		close(stopCkpt)
		ckptWG.Wait()
		close(stopStats)
		statsWG.Wait()
		if errors.Is(err, edgekg.ErrKilled) {
			// A requested crash (fault drill): stop abruptly — no stats
			// epilogue, no final checkpoint, exit clean so the harness can
			// tell a drill from a real fault.
			fmt.Printf("\n--- killed after %.2fs (abrupt stop, no drain) ---\n", time.Since(start).Seconds())
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- shutdown after %.2fs ---\n", time.Since(start).Seconds())
		dumpStats(srv, *streams)
		srv.Close()
		return
	}

	// Serve in synchronized segments of -checkpoint-every frames: all
	// cameras run a segment concurrently, then (when checkpointing is on)
	// the quiescent deployment is checkpointed before the next segment.
	// Without -checkpoint-dir the segments only add a few barriers.
	served := 0
	for seg := 0; ; seg++ {
		segActive := false
		var wg sync.WaitGroup
		for i := 0; i < *streams; i++ {
			lo := startAt[i] + seg**ckptEvery
			hi := lo + *ckptEvery
			if lo >= *frames {
				continue
			}
			if hi > *frames {
				hi = *frames
			}
			segActive = true
			served += hi - lo
			wg.Add(1)
			go func(i, lo, hi int) {
				defer wg.Done()
				for k := lo; k < hi; k++ {
					res, err := srv.ProcessFrame(i, schedules[i][k])
					if err != nil {
						log.Fatalf("stream %d frame %d: %v", i, k, err)
					}
					if res.Adapted {
						fmt.Printf("  stream %d frame %4d: adaptation triggered (pruned %d, created %d)\n",
							i, k, res.PrunedNodes, res.CreatedNodes)
					}
				}
			}(i, lo, hi)
		}
		if !segActive {
			break
		}
		wg.Wait()
		if ckptPath != "" {
			if err := srv.SaveCheckpoint(ckptPath); err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
			fmt.Printf("checkpointed to %s after segment %d\n", ckptPath, seg)
		}
	}
	for i := 0; i < *streams; i++ {
		srv.CloseStream(i)
	}
	close(stopStats)
	statsWG.Wait()
	srv.Close()
	elapsed := time.Since(start)

	fmt.Printf("\n--- served %d streams × %d frames (%d this run) in %.2fs (%.0f frames/s aggregate) ---\n",
		*streams, *frames, served, elapsed.Seconds(), float64(served)/elapsed.Seconds())
	evictions := 0
	for i := 0; i < *streams; i++ {
		st, err := srv.Stats(i)
		if err != nil {
			log.Fatal(err)
		}
		auc, err := srv.TestAUC(i, *shifted)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stream %d: frames=%d rounds=%d triggered=%d pruned=%d created=%d scoringFLOPs=%.2e resident=%s evictions=%d AUC(%s)=%.4f%s\n",
			i, st.Frames, st.AdaptRounds, st.TriggeredRounds, st.PrunedNodes, st.CreatedNodes,
			float64(st.ScoringFLOPs), fmtBytes(st.ResidentBytes), st.Evictions, *shifted, auc, fmtLastErr(st.LastErr))
		if st.Frames != *frames {
			log.Fatalf("stream %d processed %d frames, want %d", i, st.Frames, *frames)
		}
		evictions += st.Evictions
	}
	resident, budget := srv.MemStats()
	if budget > 0 {
		fmt.Printf("memory: resident %s of %s budget, %d evictions\n", fmtBytes(resident), fmtBytes(budget), evictions)
		if evictions == 0 {
			fmt.Println("memory: budget never exceeded (no evictions exercised)")
		}
	} else {
		fmt.Printf("memory: resident %s (unbudgeted)\n", fmtBytes(resident))
	}
}

// dumpStats prints the per-stream deployment statistics and the memory
// report — the network-mode epilogue, with no fixed frame target to check
// against and no AUC probe (the drivers own the trend schedule).
func dumpStats(srv *edgekg.StreamServer, streams int) {
	evictions := 0
	for i := 0; i < streams; i++ {
		st, err := srv.Stats(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stream %d: frames=%d rounds=%d triggered=%d pruned=%d created=%d scoringFLOPs=%.2e resident=%s evictions=%d%s\n",
			i, st.Frames, st.AdaptRounds, st.TriggeredRounds, st.PrunedNodes, st.CreatedNodes,
			float64(st.ScoringFLOPs), fmtBytes(st.ResidentBytes), st.Evictions, fmtLastErr(st.LastErr))
		evictions += st.Evictions
	}
	resident, budget := srv.MemStats()
	if budget > 0 {
		fmt.Printf("memory: resident %s of %s budget, %d evictions\n", fmtBytes(resident), fmtBytes(budget), evictions)
	} else {
		fmt.Printf("memory: resident %s (unbudgeted)\n", fmtBytes(resident))
	}
}

// fmtLastErr renders a stream's retained error for the stats dump: empty
// when the stream never failed, loud when a background eviction did.
func fmtLastErr(s string) string {
	if s == "" {
		return ""
	}
	return fmt.Sprintf(" lastErr=%q", s)
}

// parseBytes reads a byte count with an optional K/M/G binary suffix.
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("want an integer with optional K/M/G suffix")
	}
	if n < 0 {
		return 0, fmt.Errorf("must be ≥0")
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("overflows int64 bytes")
	}
	return n * mult, nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
