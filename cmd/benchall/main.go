// Command benchall regenerates every table and figure of the paper's
// evaluation section: Fig. 5(A) both weak-shift panels, Fig. 5(B) the
// strong shift, Fig. 6's interpretable-retrieval trajectory, and Table I's
// edge-vs-cloud cost comparison.
//
// It also runs the pipeline's hot-path micro benchmarks (GNN forward,
// frame and video scoring, batched temporal forward, train steps —
// single-clip, 4-clip sequential accumulation and 4-clip data-parallel —
// adaptation steps, single-tape and sharded, the multi-stream serving
// tick at 1/4/8 cameras, the stream memory density of copy-on-write
// clones at 8/64 cameras and both scoring widths, reporting ledger and
// heap bytes per stream — and the networked serving tier end
// to end: 8 camera streams over a 2-shard fleet behind the HTTP API,
// reporting fleet throughput and p50/p99/p999 per-frame latency, plus a
// failover drill killing one of the two workers mid-run and reporting
// detection latency, recovery time and frames replayed) and emits a
// machine-readable JSON report (-json, default BENCH_9.json) recording
// ns/op, allocs/op, bytes/op and FLOPs per operation, so successive PRs
// have a comparable performance trajectory. The report header records the
// selected kernel backend and the host's detected CPU features, and the
// GNN forward, batched temporal forward and train-step benches also run
// once per registered backend ("GNNForward/scalar", ".../unrolled",
// ".../avx2") so one run measures the dispatch speedup. -smoke runs each
// benchmark body once without the timing loop, which is how CI keeps the
// bench code from rotting.
//
// Usage:
//
//	benchall -exp all -scale quick
//	benchall -exp fig5b -scale full -csv out/
//	benchall -exp bench -json BENCH_9.json
//	benchall -exp bench -smoke -json /tmp/bench-smoke.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"edgekg/internal/concept"
	"edgekg/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchall: ")
	var (
		exp      = flag.String("exp", "all", "experiment: fig5a1 | fig5a2 | fig5b | fig6 | table1 | bench | all")
		scale    = flag.String("scale", "quick", "preset sizing: quick | full")
		csvDir   = flag.String("csv", "", "directory to also write CSV series into")
		jsonPath = flag.String("json", "BENCH_9.json", "micro-benchmark JSON report path (empty disables)")
		smoke    = flag.Bool("smoke", false, "bench smoke mode: run each benchmark body once, no timing loop (CI)")
	)
	flag.Parse()

	valid := map[string]bool{"fig5a1": true, "fig5a2": true, "fig5b": true, "fig6": true, "table1": true, "bench": true, "all": true}
	if !valid[*exp] {
		log.Fatalf("unknown experiment %q (want fig5a1|fig5a2|fig5b|fig6|table1|bench|all)", *exp)
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	env, err := experiments.NewEnv(sc)
	if err != nil {
		log.Fatal(err)
	}

	writeCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	runFig5 := func(tag string, a, b concept.Class) {
		res, err := experiments.RunFig5(env, a, b)
		if err != nil {
			log.Fatalf("%s: %v", tag, err)
		}
		fmt.Println(res.Render())
		writeCSV(tag+".csv", res.CSV())
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig5a1") {
		runFig5("fig5a1", concept.Stealing, concept.Robbery)
	}
	if want("fig5a2") {
		runFig5("fig5a2", concept.Robbery, concept.Stealing)
	}
	if want("fig5b") {
		runFig5("fig5b", concept.Stealing, concept.Explosion)
	}
	if want("fig6") {
		res, err := experiments.RunFig6(env, "sneaky", "firearm")
		if err != nil {
			log.Fatalf("fig6: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV("fig6.csv", res.CSV())
	}
	if want("table1") {
		res, err := experiments.RunTableI(env, experiments.DefaultTableIConfig())
		if err != nil {
			log.Fatalf("table1: %v", err)
		}
		fmt.Println(res.Render())
	}
	// The micro benches are opt-in (not part of "all"): they build extra
	// trained fixtures and overwrite the JSON trajectory file, which the
	// figure-regeneration workflow should not do as a side effect.
	if *exp == "bench" {
		if *jsonPath == "" {
			log.Fatal("bench: -json must name an output path")
		}
		if err := runMicroBenches(env, *scale, *jsonPath, *smoke); err != nil {
			log.Fatalf("bench: %v", err)
		}
	}
}
