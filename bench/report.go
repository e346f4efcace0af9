package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"edgekg/internal/core"
	"edgekg/internal/tensor/kernels"
)

// header records what produced a set of numbers; compare() refuses to
// hold two runs against each other when it differs.
type header struct {
	GoVersion   string            `json:"go_version"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	NProc       int               `json:"nproc"`
	Backend     string            `json:"kernel_backend"`
	CPUFeatures []string          `json:"cpu_features"`
	Precision   string            `json:"precision"`
	Commit      string            `json:"commit"`
	Env         map[string]string `json:"edgekg_env"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Smoke       bool              `json:"smoke"`
	Clients     int               `json:"clients"`
	Cameras     int               `json:"cameras"`
}

func newHeader(seed int64, seconds int, smoke bool, clients int) header {
	h := header{
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		Backend:     kernels.Active().Name(),
		CPUFeatures: kernels.CPUFeatures(),
		Precision:   core.PrecisionAuto.Resolve().String(),
		Commit:      "unknown",
		Env:         map[string]string{},
		Seed:        seed,
		Seconds:     seconds,
		Smoke:       smoke,
		Clients:     clients,
		Cameras:     cameras,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok && strings.HasPrefix(k, "EDGEKG_") {
			h.Env[k] = v
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# %s GOMAXPROCS=%d nproc=%d backend=%s cpu=%v precision=%s commit=%s seed=%d seconds=%d clients=%d smoke=%v env=%v\n",
		h.GoVersion, h.GoMaxProcs, h.NProc, h.Backend, h.CPUFeatures, h.Precision, h.Commit, h.Seed, h.Seconds, h.Clients, h.Smoke, h.Env)
}

// report is the -json document: one set of runs.
type report struct {
	Header    header           `json:"header"`
	Workloads []*wlResult      `json:"workloads,omitempty"`
	Layers    map[string]value `json:"layers,omitempty"`
}

func (r *report) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func loadReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func printValue(w io.Writer, name string, v value) {
	if v.Over != nil {
		fmt.Fprintf(w, "  %-28s %14.6g %-9s over blocks: median %.6g  q1 %.6g  q3 %.6g  n %d\n", name, v.Value, v.Unit, v.Over.Median, v.Over.Q1, v.Over.Q3, v.Over.N)
		return
	}
	fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, v.Value, v.Unit)
}

// print lists every end-to-end metric by name, "-" where it does not
// apply to the workload, then the recorded tail and the check verdicts.
func (r *wlResult) print(w io.Writer) {
	fmt.Fprintf(w, "%s: %d blocks x %d frames, %d closed-loop clients, %d attempted, %d failed\n",
		r.Workload, r.Blocks, r.BlockFrames, r.Clients, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		if v, ok := r.Values[m.name]; ok {
			printValue(w, m.name, v)
		} else {
			fmt.Fprintf(w, "  %-28s %14s\n", m.name, "-")
		}
	}
	if r.TailN > 0 {
		fmt.Fprintf(w, "  %-28s %14.6g ms        (p%g of %d frames; recorded, not gated)\n", "frame_latency_tail", r.TailMs, r.TailPct, r.TailN)
	}
	if len(r.Counts) > 0 {
		fmt.Fprintf(w, "  adaptation events per set (rounds/triggered/pruned/created): %v\n", r.Counts)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-36s %s\n", c.Name, verdict)
	}
}

func printLayers(w io.Writer, layers map[string]value) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		printValue(w, n, layers[n])
	}
}

// contractLine is the one-line result a harness reads: the gated
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func contractLine(correct bool, attempted, failed int, values map[string]value) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]mv{}}
	for n, v := range values {
		out.Metrics[n] = mv{Value: v.Value, Unit: v.Unit}
	}
	buf, _ := json.Marshal(out)
	return string(buf)
}
