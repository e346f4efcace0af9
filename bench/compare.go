package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
)

// verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// sameConditions lists the header fields that differ between two runs;
// numbers taken under different conditions are not held against each
// other.
func sameConditions(a, b header) []string {
	var diff []string
	add := func(name string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	add("go_version", a.GoVersion, b.GoVersion)
	add("gomaxprocs", a.GoMaxProcs, b.GoMaxProcs)
	add("nproc", a.NProc, b.NProc)
	add("kernel_backend", a.Backend, b.Backend)
	add("precision", a.Precision, b.Precision)
	add("edgekg_env", a.Env, b.Env)
	add("seed", a.Seed, b.Seed)
	add("seconds", a.Seconds, b.Seconds)
	add("smoke", a.Smoke, b.Smoke)
	add("clients", a.Clients, b.Clients)
	add("cameras", a.Cameras, b.Cameras)
	return diff
}

// worsening is how much worse b is than a, as a share of a (an absolute
// difference when a is 0), in the metric's own direction; negative means
// b is better.
func worsening(m metricDef, a, b float64) float64 {
	d := b - a
	if !m.lower() {
		d = -d
	}
	if a != 0 {
		d /= math.Abs(a)
	}
	return d
}

// resolution is the share of its value within which one run can place a
// timing metric: the half-width of the median's notch, 1.57·IQR/√n over
// the run's blocks, relative to the median. A bound tighter than this
// cannot be checked from a single pair of runs.
func resolution(v value) float64 {
	if v.Over == nil || v.Over.N < 2 || v.Over.Median == 0 {
		return 0
	}
	return 1.57 * math.Abs(v.Over.Q3-v.Over.Q1) / math.Sqrt(float64(v.Over.N)) / math.Abs(v.Over.Median)
}

func judge(m metricDef, a, b value) (worse float64, verdict string) {
	worse = worsening(m, a.Value, b.Value)
	switch {
	case worse > m.bound:
		return worse, verdictRegressed
	case math.Max(resolution(a), resolution(b)) > m.bound && m.bound > 0:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// runCompare prints, per workload × metric, both values, the ratio B/A
// (base A), the bound and the verdict. It returns the exit code: 2 when
// the runs are not comparable, 1 on any regression, else 0.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	if diff := sameConditions(a.Header, b.Header); len(diff) > 0 {
		fmt.Fprintf(w, "bench: %s and %s were not taken under the same conditions; refusing to compare:\n", pathA, pathB)
		for _, d := range diff {
			fmt.Fprintln(w, "  "+d)
		}
		return 2
	}
	byName := map[string]*wlResult{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	regressed, unresolved := 0, 0
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, a.Header.Commit, pathB, b.Header.Commit)
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %10s %8s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-12s missing from B\n", ra.Workload)
			regressed++
			continue
		}
		if ra.Blocks != rb.Blocks || ra.BlockFrames != rb.BlockFrames {
			fmt.Fprintf(w, "bench: %s ran %d x %d frames in A but %d x %d in B; refusing to compare\n",
				ra.Workload, ra.Blocks, ra.BlockFrames, rb.Blocks, rb.BlockFrames)
			return 2
		}
		for _, m := range endToEnd {
			va, oka := ra.Values[m.name]
			vb, okb := rb.Values[m.name]
			if !oka && !okb {
				continue
			}
			if oka != okb {
				fmt.Fprintf(w, "%-12s %-28s reported by one run only\n", ra.Workload, m.name)
				regressed++
				continue
			}
			worse, verdict := judge(m, va, vb)
			ratio := math.NaN()
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			note := ""
			if va.Value == vb.Value {
				note = " (identical)"
			} else if verdict != verdictOK {
				note = fmt.Sprintf(" (%+.1f%% worse)", 100*worse)
			}
			fmt.Fprintf(w, "%-12s %-28s %14.6g %14.6g %10.4f %7.1f%%  %s%s\n",
				ra.Workload, m.name, va.Value, vb.Value, ratio, 100*m.bound, verdict, note)
			switch verdict {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
