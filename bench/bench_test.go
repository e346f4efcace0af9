package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgekg/internal/experiments"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {19, 0}, {20, 50}, {100, 90}, {200, 95}, {999, 98}, {1000, 99}, {1_000_000, 99}} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 {
			// The rule itself: at least ten samples lie beyond the stated rank.
			rank := int(math.Ceil(got / 100 * float64(c.n)))
			if c.n-rank < 10 {
				t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond it", c.n, got, c.n-rank)
			}
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
	s := summarize([]float64{22, 1, 16, 2, 11, 4, 7})
	if s.Q1 != 2 || s.Median != 7 || s.Q3 != 16 || s.N != 7 {
		t.Errorf("summarize = %+v, want q1 2 median 7 q3 16 n 7", s)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	s = summarize([]float64{4, 3, 2, 1})
	if s.Q1 != 1.25 || s.Median != 2.5 || s.Q3 != 3.75 {
		t.Errorf("summarize = %+v, want 1.25 2.5 3.75", s)
	}
}

func TestUndisturbedTakesBestBlockOfEachSet(t *testing.T) {
	// Two sets (even and odd blocks): rates 10,12,9 and 20,18,21.
	xs := []float64{10, 20, 12, 18, 9, 21}
	if got := undisturbed("", xs, 2, true).Value; got != (12+21)/2.0 {
		t.Errorf("higher-is-better = %v, want 16.5", got)
	}
	if got := undisturbed("", xs, 2, false).Value; got != (9+18)/2.0 {
		t.Errorf("lower-is-better = %v, want 13.5", got)
	}
	if v := undisturbed("", xs, 2, true); v.Over == nil || v.Over.N != 6 || v.Over.Median != 15 {
		t.Errorf("block summary = %+v, want median 15 over 6", v.Over)
	}
}

func TestSteadyMedianIgnoresADisturbedStretch(t *testing.T) {
	var ns []float64
	for i := 0; i < 160; i++ {
		v := 100.0
		if i >= 20 { // everything after the first chunk runs at half speed
			v = 200
		}
		ns = append(ns, v)
	}
	if got := steadyMedian(ns); got != 100 {
		t.Errorf("steadyMedian = %v, want 100", got)
	}
	if got := steadyMedian([]float64{3, 1, 2}); got != 2 {
		t.Errorf("steadyMedian of a short sample = %v, want the plain median 2", got)
	}
}

func scheduleBytes(t *testing.T, seed int64) ([]float64, []bool) {
	t.Helper()
	env, err := experiments.NewEnv(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := genSet(env.Gen, trendShift(30), 2, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var data []float64
	var labels []bool
	for c := range fs.frames {
		for i, f := range fs.frames[c] {
			data = append(data, f.data...)
			labels = append(labels, fs.labels[c][i])
		}
	}
	return data, labels
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, la := scheduleBytes(t, 7)
	b, lb := scheduleBytes(t, 7)
	c, lc := scheduleBytes(t, 8)
	same := func(x, y []float64, lx, ly []bool) bool {
		if len(x) != len(y) || len(lx) != len(ly) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		for i := range lx {
			if lx[i] != ly[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b, la, lb) {
		t.Error("the same seed produced different frames or labels")
	}
	if same(a, c, la, lc) {
		t.Error("different seeds produced identical frames and labels")
	}
}

func TestCountingListenerCountsExactBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	done := make(chan error, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 11)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write([]byte("seven b"))
		done <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.Close()
	ln.Close()
	if r, w := cl.read.Load(), cl.written.Load(); r != 11 || w != 7 || cl.bytes() != 18 {
		t.Errorf("listener counted %d read, %d written; want 11 and 7", r, w)
	}
}

func TestCountingListenerCountsAnHTTPExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("ok"))
	})}
	go hs.Serve(cl)
	defer hs.Close()
	// A hand-written request of known length, over a raw connection.
	req := "POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nConnection: close\r\n\r\nabcde"
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.read.Load(); got != int64(len(req)) {
		t.Errorf("listener read %d bytes, the request was %d", got, len(req))
	}
	if got := cl.written.Load(); got != int64(len(resp)) {
		t.Errorf("listener wrote %d bytes, the client received %d", got, len(resp))
	}
}

func TestMigrationScheduleIsEvenAcrossBlocks(t *testing.T) {
	w, _ := findWorkload("state_churn")
	for b := 0; b < 16; b++ {
		n := 0
		for cam := 0; cam < cameras; cam++ {
			for g := w.warmPerCam + b*w.perCam; g < w.warmPerCam+(b+1)*w.perCam; g++ {
				if w.migrationDue(cam, g) {
					n++
				}
			}
		}
		if n != 1 {
			t.Errorf("block %d carries %d migrations, want 1", b, n)
		}
	}
}

func TestSlotBudgetFailsFast(t *testing.T) {
	w, _ := findWorkload("state_churn")
	homes, err := plannedHomes(w.slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(homes) != cameras {
		t.Fatalf("planned %d homes", len(homes))
	}
	_, blocks := w.sized(defaultSeconds, false)
	frames := w.warmPerCam + (blocks+w.countedBlocks())*w.perCam
	if err := w.checkSlots(homes, frames); err != nil {
		t.Errorf("the run BENCHMARK.json sizes does not fit its own slot budget: %v", err)
	}
	w.slots = 6
	err = w.checkSlots(homes, frames)
	if err == nil {
		t.Fatal("a plan needing more slots than the workers have was accepted")
	}
	for _, want := range []string{"state_churn", "stream slots", "workers have 6"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	migrations := 0
	for cam := 0; cam < cameras; cam++ {
		for g := 0; g < frames; g++ {
			if w.migrationDue(cam, g) {
				migrations++
			}
		}
	}
	if need := w.slotPlan(homes, frames); need[0]+need[1] != cameras+migrations {
		t.Errorf("slot plan %v: want %d home slots plus one per migration (%d)", need, cameras, migrations)
	}
}

func TestCompareVerdicts(t *testing.T) {
	m, _ := findMetric("frames_per_s")
	tight := func(v float64) value {
		return value{Value: v, Over: &summary{Median: v, Q1: v * 0.99, Q3: v * 1.01, N: 40}}
	}
	if _, got := judge(m, tight(100), tight(95)); got != verdictOK {
		t.Errorf("5%% slower within a %v bound: %s", m.bound, got)
	}
	if _, got := judge(m, tight(100), tight(100*(1-m.bound)-1)); got != verdictRegressed {
		t.Errorf("beyond the bound: %s", got)
	}
	wide := value{Value: 100, Over: &summary{Median: 100, Q1: 40, Q3: 160, N: 4}}
	if _, got := judge(m, tight(100), wide); got != verdictUnresolved {
		t.Errorf("block spread wider than the bound: %s", got)
	}
	lat, _ := findMetric("frame_latency_p50_ms")
	if w := worsening(lat, 1.0, 1.1); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("a latency rising 10%% worsens by %v", w)
	}
	if w := worsening(m, 100, 110); math.Abs(w+0.1) > 1e-12 {
		t.Errorf("a rate rising 10%% worsens by %v, want -0.1", w)
	}
	fs, _ := findMetric("failed_share")
	if _, got := judge(fs, value{Value: 0}, value{Value: 0.001}); got != verdictRegressed {
		t.Errorf("any rise of failed_share: %s", got)
	}
}

func TestCompareRefusesDifferentConditions(t *testing.T) {
	dir := t.TempDir()
	a := &report{Header: newHeader(1, 10, true, 2)}
	b := &report{Header: newHeader(2, 10, true, 2)}
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := a.write(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.write(pb); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := runCompare(&out, pa, pb); code != 2 || !strings.Contains(out.String(), "seed") {
		t.Errorf("compare of different seeds: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, pa, pa); code != 0 {
		t.Errorf("compare of a report with itself: exit %d, output %q", code, out.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the program: the workloads
// and gated metrics it names are the ones defined here.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		RunSeconds int                     `json:"run_seconds"`
		Workloads  []struct{ Name string } `json:"workloads"`
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json runs %d s, -seconds defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	gated := map[string]metricDef{}
	for _, m := range endToEnd {
		if m.gated {
			gated[m.name] = m
		}
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Errorf("BENCHMARK.json gates %d metrics, the program %d", len(doc.EndToEnd), len(gated))
	}
	for _, e := range doc.EndToEnd {
		m, ok := gated[e.Name]
		if !ok {
			t.Errorf("BENCHMARK.json gates %q, which the program does not report on every workload", e.Name)
			continue
		}
		if e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, the program %s/%s/%v", e.Name, e.Unit, e.Better, e.Bound, m.unit, m.better, m.bound)
		}
	}
	layers := map[string]bool{}
	for _, n := range layerNames {
		layers[n] = true
	}
	for _, e := range doc.PerLayer {
		if !layers[e.Name] {
			t.Errorf("BENCHMARK.json lists per-layer metric %q, which the traced run does not report", e.Name)
		}
		delete(layers, e.Name)
	}
	for n := range layers {
		t.Errorf("the traced run reports %q, which BENCHMARK.json does not list", n)
	}
}

// TestSmoke runs every workload at about 1/100 size with every output
// check on, then one traced run: the benchmark compiles, runs and agrees
// with itself.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	t.Chdir(t.TempDir())
	o := runOpts{seed: 3, seconds: 1, smoke: true, clients: drivers, setups: 1}
	for _, w := range workloads {
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.name, c.Name, c.Detail)
			}
		}
		for _, m := range endToEnd {
			v, ok := res.Values[m.name]
			if ok != m.applies(w) {
				t.Errorf("%s: %s reported=%v, applies=%v", w.name, m.name, ok, m.applies(w))
			}
			if m.gated && (v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0)) {
				t.Errorf("%s: gated metric %s = %v", w.name, m.name, v.Value)
			}
		}
	}
	w, _ := findWorkload("net_fleet")
	layers, ok, _, err := tracedRun(w, o, "")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("the traced run's output checks failed")
	}
	for _, n := range layerNames {
		if _, present := layers[n]; !present {
			t.Errorf("the traced run did not report %s", n)
		}
	}
	if len(layers) != len(layerNames) {
		t.Errorf("the traced run reported %d metrics, layerNames lists %d", len(layers), len(layerNames))
	}
	// The chain closes by construction: the self times add up to the
	// outermost depth.
	sum := 0.0
	for _, n := range []string{"core.score_frame_us", "serve.process_self_us", "serve.queue_self_us", "netserve.codec_self_us", "netserve.transport_self_us", "shard.route_self_us"} {
		sum += layers[n].Value
	}
	if got := layers["shard.submit_us"].Value; math.Abs(sum-got) > 1e-6*got {
		t.Errorf("depth self times sum to %v us, shard.submit_us is %v", sum, got)
	}
}
