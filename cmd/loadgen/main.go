// Command loadgen drives a fleet of cmd/serve -listen workers through the
// shard router: it synthesises per-camera frame schedules with the
// derivation cmd/serve's self-driving mode uses (System.CameraSchedules),
// hashes the camera keys across the workers, and submits frames either
// closed-loop (-rate 0: lockstep submit/receive, nothing shed — the mode
// deterministic continuity checks use) or open-loop (a fixed arrival rate
// per camera, latency counted from each frame's scheduled arrival). The open-loop pacer is for overload and shedding
// drills — push arrivals past capacity, watch 429s, sheds and recovery —
// not for measuring latency: paced from inside a process on shared cores
// it measures the Go timer (bench/README.md, "Method"); latency and
// throughput numbers come from bench/.
//
// A run can migrate one camera between shards mid-stream via the
// checkpoint path (-migrate key@frame:shard); with -out the per-camera
// score traces land in a JSON report, and -expect compares a later run's
// traces against such a report bit-exactly — which is how CI asserts that
// a migrated stream's trajectory is identical to one that never moved.
//
// It is also the failure-drill harness: -snapshot-every arms the router's
// per-key snapshot/replay cache and a health monitor (-probe-every,
// -probe-timeout, -down-after), and -kill shard@frame crashes a worker
// mid-run — the monitor detects the death, failover rehomes the dead
// shard's cameras onto survivors and replays the frames scored since
// their snapshots, the drivers retry through the outage, and the report
// carries detection latency, recovery time and frames replayed. Combined
// with -expect, that is how CI asserts failed-over trajectories stay
// bit-exact.
//
// Usage:
//
//	loadgen -workers http://127.0.0.1:9701,http://127.0.0.1:9702 \
//	        -streams 8 -frames 48 -out baseline.json
//	loadgen -workers ... -streams 8 -frames 48 \
//	        -migrate cam-0@17:1 -expect baseline.json -shutdown
//	loadgen -workers ... -streams 8 -frames 48 \
//	        -snapshot-every 8 -kill 1@17 -expect baseline.json -shutdown
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"edgekg"
	"edgekg/internal/netserve"
	"edgekg/internal/shard"
)

// report is the JSON artifact a run writes with -out and checks with
// -expect.
type report struct {
	Workers       int                  `json:"workers"`
	Streams       int                  `json:"streams"`
	Frames        int                  `json:"frames"`
	Sent          int                  `json:"sent"`
	OK            int                  `json:"ok"`
	Shed          int                  `json:"shed"`
	Failed        int                  `json:"failed"`
	Retried       int                  `json:"retried,omitempty"`
	ElapsedS      float64              `json:"elapsed_s"`
	ThroughputFPS float64              `json:"throughput_fps"`
	P50Ms         float64              `json:"p50_ms"`
	P99Ms         float64              `json:"p99_ms"`
	P999Ms        float64              `json:"p999_ms"`
	MaxMs         float64              `json:"max_ms"`
	DetectionMs   float64              `json:"detection_ms,omitempty"`
	RecoveryMs    float64              `json:"recovery_ms,omitempty"`
	FramesReplay  int                  `json:"frames_replayed,omitempty"`
	KeysRehomed   []string             `json:"keys_rehomed,omitempty"`
	Traces        map[string][]float64 `json:"traces,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		workers     = flag.String("workers", "http://127.0.0.1:9701", "comma-separated worker base URLs (one per shard)")
		streams     = flag.Int("streams", 8, "camera stream count across the fleet")
		frames      = flag.Int("frames", 48, "frames per camera")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate per camera in frames/s (0 = closed-loop lockstep)")
		initial     = flag.String("initial", "Stealing", "anomaly class every camera starts on")
		shifted     = flag.String("shifted", "Robbery", "anomaly class cameras drift to")
		driftAt     = flag.Int("drift-at", 16, "frame index at which camera 0's trend shifts")
		stagger     = flag.Int("stagger", 8, "extra drift delay per camera index")
		anomalyRate = flag.Float64("anomaly-rate", 0.5, "anomaly rate of each camera")
		seed        = flag.Int64("seed", 42, "seed (must match the workers' -seed for comparable runs)")
		migrate     = flag.String("migrate", "", "migrate one camera mid-run: key@frame:toshard (e.g. cam-0@17:1)")
		maxInflight = flag.Int("max-inflight", 0, "router admission bound per shard (0 = 2× the shard's slots)")
		snapEvery   = flag.Int("snapshot-every", 0, "arm failover: refresh each camera's router-side state snapshot every N scored frames (0 disables)")
		kill        = flag.String("kill", "", "crash one worker mid-run: shard@frame (e.g. 1@17, before cam-0's frame 17; requires -snapshot-every)")
		probeEvery  = flag.Duration("probe-every", 100*time.Millisecond, "health probe interval per shard")
		probeLimit  = flag.Duration("probe-timeout", time.Second, "health probe timeout")
		downAfter   = flag.Int("down-after", 3, "consecutive failed probes before a shard is declared dead")
		out         = flag.String("out", "", "write the run report (counters, latency percentiles, score traces) to this JSON file")
		expect      = flag.String("expect", "", "compare this run's score traces bit-exactly against a previous -out report")
		wait        = flag.Duration("wait", 120*time.Second, "how long to wait for every worker to become ready")
		checkpoint  = flag.Bool("checkpoint", false, "ask every worker for a full-deployment checkpoint after the run")
		shutdown    = flag.Bool("shutdown", false, "ask every worker to shut down after the run")
	)
	flag.Parse()

	switch {
	case *streams < 1:
		log.Fatalf("-streams %d: camera count must be ≥1", *streams)
	case *frames < 1:
		log.Fatalf("-frames %d: frame count must be ≥1", *frames)
	case *anomalyRate < 0 || *anomalyRate > 1:
		log.Fatalf("-anomaly-rate %v: must be in [0,1]", *anomalyRate)
	case *expect != "" && *rate > 0:
		log.Fatal("-expect needs a closed-loop run (-rate 0): open-loop sheds leave trace gaps")
	case *snapEvery < 0:
		log.Fatalf("-snapshot-every %d: must be ≥0", *snapEvery)
	case *kill != "" && *snapEvery < 1:
		log.Fatal("-kill requires -snapshot-every: without the router-side snapshot cache there is nothing to fail over from")
	case *downAfter < 1:
		log.Fatalf("-down-after %d: must be ≥1", *downAfter)
	}

	// Connect the fleet: every worker must be up and agree on the frame
	// size before any load flows.
	urls := strings.Split(*workers, ",")
	ctx := context.Background()
	backends := make([]shard.Backend, len(urls))
	slots := 0
	for i, u := range urls {
		c := netserve.NewClient(strings.TrimSpace(u))
		wctx, cancel := context.WithTimeout(ctx, *wait)
		h, err := c.WaitReady(wctx)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		backends[i] = shard.NetBackend(c, h.Streams)
		slots += h.Streams
		fmt.Printf("shard %d: %s (%d slots, frame size %d)\n", i, u, h.Streams, h.FrameSize)
	}
	if *streams > slots {
		log.Fatalf("-streams %d exceeds the fleet's %d slots", *streams, slots)
	}
	router, err := shard.New(backends, shard.Config{MaxInflight: *maxInflight, SnapshotEvery: *snapEvery})
	if err != nil {
		log.Fatal(err)
	}
	var monitor *shard.HealthMonitor
	if *snapEvery > 0 {
		monitor = shard.NewHealthMonitor(router, shard.HealthConfig{
			Interval:  *probeEvery,
			Timeout:   *probeLimit,
			Threshold: *downAfter,
		})
		monitor.Start()
		defer monitor.Stop()
		fmt.Printf("failover armed: snapshots every %d frames, probes every %v, dead after %d misses\n",
			*snapEvery, *probeEvery, *downAfter)
	}

	// The cameras' schedules, by the derivation cmd/serve's self-driving
	// mode uses.
	sys, err := edgekg.NewSystem(edgekg.Options{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	perCamera, err := sys.CameraSchedules(*streams, *frames, *initial, *shifted, *anomalyRate, *driftAt, *stagger, *seed)
	if err != nil {
		log.Fatal(err)
	}
	keys := make([]string, *streams)
	schedules := make(map[string][][]float64, *streams)
	for i := range keys {
		keys[i] = fmt.Sprintf("cam-%d", i)
		schedules[keys[i]] = perCamera[i]
	}

	sc := shard.Scenario{
		Keys:   keys,
		Frames: *frames,
		Rate:   *rate,
		Frame:  func(key string, seq int) []float64 { return schedules[key][seq] },
	}
	if *migrate != "" {
		key, at, to, err := parseMigrate(*migrate)
		if err != nil {
			log.Fatalf("-migrate %q: %v", *migrate, err)
		}
		if to < 0 || to >= len(backends) {
			log.Fatalf("-migrate %q: fleet has %d shards", *migrate, len(backends))
		}
		sc.MigrateKey, sc.MigrateAt, sc.MigrateTo = key, at, to
		fmt.Printf("will migrate %s to shard %d before its frame %d\n", key, to, at)
	}
	if *kill != "" {
		shardIdx, at, err := parseKill(*kill)
		if err != nil {
			log.Fatalf("-kill %q: %v", *kill, err)
		}
		if shardIdx < 0 || shardIdx >= len(backends) {
			log.Fatalf("-kill %q: fleet has %d shards", *kill, len(backends))
		}
		sc.Kill = &shard.Kill{Shard: shardIdx, At: at}
		fmt.Printf("will kill shard %d before %s's frame %d\n", shardIdx, keys[0], at)
	}

	rep, err := shard.Run(ctx, router, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- %d cameras × %d frames over %d shards in %.2fs ---\n",
		*streams, *frames, len(backends), rep.Elapsed.Seconds())
	fmt.Printf("sent=%d ok=%d shed=%d failed=%d retried=%d throughput=%.0f frames/s\n",
		rep.Sent, rep.OK, rep.Shed, rep.Failed, rep.Retried, rep.Throughput)
	fmt.Printf("latency from scheduled arrival: p50=%.2fms p99=%.2fms p999=%.2fms max=%.2fms\n",
		rep.P50Ms, rep.P99Ms, rep.P999Ms, rep.MaxMs)

	full := report{
		Workers: len(backends), Streams: *streams, Frames: *frames,
		Sent: rep.Sent, OK: rep.OK, Shed: rep.Shed, Failed: rep.Failed,
		Retried:  rep.Retried,
		ElapsedS: rep.Elapsed.Seconds(), ThroughputFPS: rep.Throughput,
		P50Ms: rep.P50Ms, P99Ms: rep.P99Ms, P999Ms: rep.P999Ms, MaxMs: rep.MaxMs,
		Traces: rep.Traces,
	}
	if monitor != nil {
		monitor.Stop()
		for _, fo := range monitor.Reports() {
			fmt.Printf("failover: shard %d dead — detected in %.0fms, %d cameras rehomed, %d frames replayed, recovered in %.0fms%s\n",
				fo.Shard, float64(fo.Detection.Microseconds())/1e3, len(fo.Rehomed),
				fo.FramesReplayed, float64(fo.Recovery.Microseconds())/1e3, fmtFailoverErr(fo.Err))
			full.DetectionMs += float64(fo.Detection.Microseconds()) / 1e3
			full.RecoveryMs += float64(fo.Recovery.Microseconds()) / 1e3
			full.FramesReplay += fo.FramesReplayed
			for _, k := range fo.Keys {
				if _, ok := fo.Rehomed[k]; ok {
					full.KeysRehomed = append(full.KeysRehomed, k)
				}
			}
		}
		if *kill != "" && len(monitor.Reports()) == 0 {
			log.Fatal("-kill ran but the health monitor never detected a dead shard")
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if *expect != "" {
		if err := compareTraces(*expect, rep.Traces); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("traces match %s bit-exactly (%d cameras)\n", *expect, len(rep.Traces))
	}
	if *checkpoint {
		for i := range backends {
			if router.Down(i) {
				fmt.Printf("shard %d is down, skipping checkpoint\n", i)
				continue
			}
			path, err := router.Backend(i).(interface {
				Checkpoint(context.Context) (string, error)
			}).Checkpoint(ctx)
			if err != nil {
				log.Fatalf("shard %d checkpoint: %v", i, err)
			}
			fmt.Printf("shard %d checkpointed to %s\n", i, path)
		}
	}
	if *shutdown {
		for i := range backends {
			if router.Down(i) {
				fmt.Printf("shard %d is down, skipping shutdown\n", i)
				continue
			}
			if err := router.Backend(i).(interface{ Shutdown(context.Context) error }).Shutdown(ctx); err != nil {
				log.Fatalf("shard %d shutdown: %v", i, err)
			}
		}
		fmt.Println("fleet shut down")
	}
}

// parseKill reads "shard@frame".
func parseKill(s string) (shardIdx, at int, err error) {
	atIdx := strings.LastIndex(s, "@")
	if atIdx < 1 || atIdx == len(s)-1 {
		return 0, 0, fmt.Errorf("want shard@frame")
	}
	shardIdx, err = strconv.Atoi(s[:atIdx])
	if err != nil {
		return 0, 0, fmt.Errorf("bad shard index %q", s[:atIdx])
	}
	at, err = strconv.Atoi(s[atIdx+1:])
	if err != nil || at < 0 {
		return 0, 0, fmt.Errorf("bad frame index %q", s[atIdx+1:])
	}
	return shardIdx, at, nil
}

// fmtFailoverErr renders a failover's partial-failure text for the
// summary line.
func fmtFailoverErr(s string) string {
	if s == "" {
		return ""
	}
	return fmt.Sprintf(" (errors: %s)", s)
}

// parseMigrate reads "key@frame:toshard".
func parseMigrate(s string) (key string, at, to int, err error) {
	atIdx := strings.LastIndex(s, "@")
	colIdx := strings.LastIndex(s, ":")
	if atIdx < 1 || colIdx < atIdx+2 || colIdx == len(s)-1 {
		return "", 0, 0, fmt.Errorf("want key@frame:toshard")
	}
	key = s[:atIdx]
	at, err = strconv.Atoi(s[atIdx+1 : colIdx])
	if err != nil || at < 0 {
		return "", 0, 0, fmt.Errorf("bad frame index %q", s[atIdx+1:colIdx])
	}
	to, err = strconv.Atoi(s[colIdx+1:])
	if err != nil {
		return "", 0, 0, fmt.Errorf("bad shard index %q", s[colIdx+1:])
	}
	return key, at, to, nil
}

// compareTraces checks this run's score traces against a previous report
// bit-exactly: same cameras, same lengths, identical float bits.
func compareTraces(path string, got map[string][]float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want report
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(want.Traces) == 0 {
		return fmt.Errorf("%s has no traces (was it a closed-loop -out run?)", path)
	}
	if len(got) != len(want.Traces) {
		return fmt.Errorf("this run has %d traces, %s has %d", len(got), path, len(want.Traces))
	}
	for key, w := range want.Traces {
		g, ok := got[key]
		if !ok {
			return fmt.Errorf("camera %q missing from this run", key)
		}
		if len(g) != len(w) {
			return fmt.Errorf("camera %q: %d frames vs %d in %s", key, len(g), len(w), path)
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Errorf("camera %q frame %d: score %v differs from %v in %s — the migrated trajectory diverged", key, i, g[i], w[i], path)
			}
		}
	}
	return nil
}
