// Command bench is this repository's benchmark: five fixed-work workloads
// over the serving stack, thirteen end-to-end metrics with regression
// bounds, and a per-layer budget measured from outside by timing calls
// into each package's public functions. See README.md.
//
//	go run . -workload all -seed 1 -json set1.json   # every end-to-end metric, outputs checked
//	go run . -workload net_fleet -trace 1            # the traced run: per-layer metrics
//	go run . -compare set1.json set2.json            # hold two sets against the bounds
//	go run . -smoke                                  # every workload at ~1/100 size, all checks on
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"edgekg/internal/parallel"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: one of the five names, or all")
		seed     = flag.Int64("seed", 1, "seed of the frame schedules (the trained model does not depend on it)")
		seconds  = flag.Int("seconds", defaultSeconds, "size the measured phase to about this many seconds on the reference box (work is fixed, not timed)")
		trace    = flag.Int("trace", 0, "1 runs the traced run (one client, spans on) and reports per-layer metrics instead")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
		jsonOut  = flag.String("json", "", "write the full report to this file")
		compare  = flag.Bool("compare", false, "compare two -json reports given as arguments; exit 1 on any regression")
		smoke    = flag.Bool("smoke", false, "run every workload at about 1/100 size with every check on")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.json B.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal(2, "bad arguments: -seconds must be ≥ 1, -trace 0 or 1, and no positional arguments")
	}

	// Everything is measured on one core. The reference box is two vCPUs of
	// a shared host, and whether the two run at once is the host's choice:
	// with both busy, unchanged code read 35 k to 53 k frames/s from run to
	// run; one busy vCPU does not depend on the other (bench/README.md,
	// "Noise floor"). So the rates are per core, which is also the unit an
	// edge box is sized in.
	runtime.GOMAXPROCS(1)
	parallel.SetWorkers(1)

	var run []workload
	if *name == "all" {
		run = workloads
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(2, "unknown workload %q", *name)
		}
		run = []workload{w}
	}

	o := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, clients: drivers}
	if *smoke {
		o.setups = 1
	}
	if *trace == 1 {
		o.clients = 1
	}
	rep := &report{Header: newHeader(*seed, *seconds, *smoke, o.clients)}
	rep.Header.print(os.Stdout)

	correct, last := true, ""
	if *trace == 1 {
		for _, w := range run {
			layers, ok, line, err := tracedRun(w, o, *traceOut)
			if err != nil {
				fatal(1, "%v", err)
			}
			printLayers(os.Stdout, layers)
			rep.Layers = layers
			correct, last = correct && ok, line
		}
	} else {
		for _, w := range run {
			res, err := runWorkload(w, o)
			if err != nil {
				fatal(1, "%v", err)
			}
			res.print(os.Stdout)
			rep.Workloads = append(rep.Workloads, res)
			correct = correct && res.correct()
			gated := map[string]value{}
			for _, m := range endToEnd {
				if m.gated {
					gated[m.name] = res.Values[m.name]
				}
			}
			last = contractLine(res.correct(), res.Attempted, res.Failed, gated)
		}
	}
	if *jsonOut != "" {
		if err := rep.write(*jsonOut); err != nil {
			fatal(1, "%v", err)
		}
	}
	if len(run) == 1 {
		// The last line of a single-workload run is the machine-readable
		// result; a failed check is reported there, not by the exit code.
		fmt.Println(last)
		return
	}
	if !correct {
		fatal(1, "output checks failed")
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
