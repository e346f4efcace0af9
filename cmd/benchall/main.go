// Command benchall regenerates every table and figure of the paper's
// evaluation section: Fig. 5(A) both weak-shift panels, Fig. 5(B) the
// strong shift, Fig. 6's interpretable-retrieval trajectory, and Table I's
// edge-vs-cloud cost comparison. Every edge deployment among them is one
// call of experiments.Deploy, read through its per-tick hook: Fig. 5 and
// Table I record the offline AUC at each adaptation tick, Fig. 6 the
// tracked node's token bank.
//
// It times nothing: the performance record is bench/ (bash bench/run.sh,
// see bench/README.md) and the Go benchmarks in bench_test.go.
//
// Usage:
//
//	benchall -exp all -scale quick
//	benchall -exp fig5b -scale full -csv out/
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
		exp    = flag.String("exp", "all", "experiment: fig5a1 | fig5a2 | fig5b | fig6 | table1 | all")
		scale  = flag.String("scale", "quick", "preset sizing: quick | full")
		csvDir = flag.String("csv", "", "directory to also write CSV series into")
	)
	flag.Parse()

	valid := map[string]bool{"fig5a1": true, "fig5a2": true, "fig5b": true, "fig6": true, "table1": true, "all": true}
	if !valid[*exp] {
		log.Fatalf("unknown experiment %q (want fig5a1|fig5a2|fig5b|fig6|table1|all)", *exp)
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
}
