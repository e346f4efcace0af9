package netserve_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edgekg/internal/bpe"
	"edgekg/internal/concept"
	"edgekg/internal/core"
	"edgekg/internal/dataset"
	"edgekg/internal/decision"
	"edgekg/internal/embed"
	"edgekg/internal/gnn"
	"edgekg/internal/kg"
	"edgekg/internal/kggen"
	"edgekg/internal/netserve"
	"edgekg/internal/oracle"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/temporal"
	"edgekg/internal/tensor"
)

// buildBackbone assembles the small deployment fixture (the serve test
// fixture's twin): detector + frame generator, fully determined by seed.
func buildBackbone(t testing.TB, seed int64) (*core.Detector, *dataset.Generator) {
	t.Helper()
	ont := concept.Builtin()
	tok := bpe.Train(ont.Concepts(), 600)
	space, err := embed.NewSpace(tok, ont.Concepts(), embed.Config{Dim: 16, PixDim: 32, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	llm := oracle.NewSim(ont, rng, oracle.Config{EdgeProb: 0.9})
	g, _, err := kggen.Generate(llm, "Stealing",
		kggen.Options{Depth: 2, InitialFanout: 4, Fanout: 3, MaxCorrectionIters: 3, Tokenize: tok.Encode}, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(rng, space, []*kg.Graph{g}, core.Config{
		GNN:              gnn.Config{Width: 8},
		Temporal:         temporal.Config{InnerDim: 16, Heads: 2, Window: 4},
		NumClasses:       2,
		Loss:             decision.DefaultLossConfig(),
		ScoreTemperature: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataset.DefaultConfig()
	dcfg.FramesPerVideo = 16
	gen, err := dataset.NewGenerator(space, ont, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return det, gen
}

const pixDim = 32

// streamCfg mirrors the serve test configuration: aggressive cadence so
// short runs exercise adaptation rounds, async lag 2.
func streamCfg() serve.StreamConfig {
	cfg := serve.DefaultStreamConfig()
	cfg.MonitorN = 8
	cfg.MonitorLag = 4
	cfg.AdaptEveryFrames = 8
	cfg.AdaptLagFrames = 2
	cfg.Adapt.Patience = 1
	cfg.ScoreHistory = 64
	return cfg
}

// frames synthesises n deterministic raw frames for one stream.
func frames(t *testing.T, gen *dataset.Generator, seed int64, n int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		cls := concept.Stealing
		if i >= n/2 {
			cls = concept.Robbery
		}
		out[i] = append([]float64(nil), gen.Frame(rng, cls).Data()...)
	}
	return out
}

// worker stands up a serve.Server with a handler on an httptest server,
// returning the typed client. Identical (seed, nstreams) calls produce
// bit-identical workers.
func worker(t *testing.T, seed int64, nstreams int, opts netserve.Options) (*serve.Server, *netserve.Client) {
	t.Helper()
	srv, _, url := rawWorker(t, seed, nstreams, opts)
	return srv, netserve.NewClient(url)
}

// rawWorker is worker for tests that speak HTTP themselves: it returns the
// handler and the server's base URL.
func rawWorker(t *testing.T, seed int64, nstreams int, opts netserve.Options) (*serve.Server, *netserve.Handler, string) {
	t.Helper()
	backbone, _ := buildBackbone(t, seed)
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg()
	cfg.BaseSeed = 100
	srv, err := serve.NewServer(backbone, nstreams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	if opts.FrameSize == 0 {
		opts.FrameSize = pixDim
	}
	h, err := netserve.NewHandler(srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return srv, h, ts.URL
}

// TestFrameRoundTripMatchesDirectServe pins that scoring through the
// HTTP boundary is bit-identical to driving the serve.Server directly:
// same backbone seed, same frames, equal score and adaptation traces.
func TestFrameRoundTripMatchesDirectServe(t *testing.T) {
	const seed, n = 3, 32
	_, gen := buildBackbone(t, seed)
	fs := frames(t, gen, 77, n)

	// Direct run.
	backbone, _ := buildBackbone(t, seed)
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg()
	cfg.BaseSeed = 100
	direct, err := serve.NewServer(backbone, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Shutdown()
	res, err := direct.Results(0)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, f := range fs {
		if err := direct.Submit(0, tensor.FromSlice(f, len(f))); err != nil {
			t.Fatal(err)
		}
		r := <-res
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want = append(want, r.Score)
	}

	// Networked run.
	_, client := worker(t, seed, 1, netserve.Options{})
	ctx := context.Background()
	h, err := client.Health(ctx)
	if err != nil || !h.OK || h.Streams != 1 || h.FrameSize != pixDim {
		t.Fatalf("health: %+v, %v", h, err)
	}
	for i, f := range fs {
		rep, err := client.SubmitFrame(ctx, 0, f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if rep.Seq != i {
			t.Fatalf("frame %d: seq %d", i, rep.Seq)
		}
		if rep.Score != want[i] {
			t.Fatalf("frame %d: networked score %v != direct %v", i, rep.Score, want[i])
		}
	}

	// Stats and scores agree with the direct run's shape.
	st, err := client.Stats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != n {
		t.Fatalf("stats frames %d, want %d", st.Frames, n)
	}
	if st.AdaptRounds == 0 {
		t.Fatal("no adaptation rounds over a drifting run")
	}
	scores, err := client.Scores(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no retained scores")
	}
	tail := want[len(want)-len(scores):]
	for i := range scores {
		if scores[i] != tail[i] {
			t.Fatalf("retained score %d: %v != %v", i, scores[i], tail[i])
		}
	}
}

// TestConcurrentSubmitsMatchDirectServe drives 4 slots from 8 goroutines
// at once, two per slot taking turns in the slot's frame order, so request
// bodies, reply records and frames are decoded through the pooled buffers
// concurrently. Every score must equal, bit for bit, a direct serve.Server
// fed the same frames, and so must every slot's exported state, whose
// monitor holds the decoded frames themselves: a frame that shared memory
// with a buffer or another request would show there. CI runs it under
// -race -count=10.
func TestConcurrentSubmitsMatchDirectServe(t *testing.T) {
	const seed, slots, goroutines, n = 3, 4, 8, 24
	_, gen := buildBackbone(t, seed)
	fs := make([][][]float64, slots)
	for s := range fs {
		fs[s] = frames(t, gen, int64(40+s), n)
	}

	backbone, _ := buildBackbone(t, seed)
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg()
	cfg.BaseSeed = 100
	direct, err := serve.NewServer(backbone, slots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Shutdown()
	want := make([][]float64, slots)
	for s := range want {
		for _, f := range fs[s] {
			r, err := direct.Process(s, tensor.FromSlice(f, len(f)))
			if err != nil || r.Err != nil {
				t.Fatal(err, r.Err)
			}
			want[s] = append(want[s], r.Score)
		}
	}

	_, client := worker(t, seed, slots, netserve.Options{})
	var (
		mu   [slots]sync.Mutex // holds a slot's turn across its submit
		next [slots]int
		got  [slots][n]float64
		wg   sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		s := g % slots
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu[s].Lock()
				i := next[s]
				if i == n {
					mu[s].Unlock()
					return
				}
				rep, err := client.SubmitFrame(context.Background(), s, fs[s][i])
				if err != nil || rep.Seq != i {
					t.Errorf("slot %d frame %d: seq %d, %v", s, i, rep.Seq, err)
				}
				got[s][i] = rep.Score
				next[s]++
				mu[s].Unlock()
			}
		}()
	}
	wg.Wait()
	for s := range want {
		for i := range want[s] {
			if math.Float64bits(got[s][i]) != math.Float64bits(want[s][i]) {
				t.Fatalf("slot %d frame %d: networked score %v != direct %v", s, i, got[s][i], want[s][i])
			}
		}
		// The FLOP ledger is left out: a server's streams meter deltas of
		// one shared counter, so streams scoring at once bill each other.
		raw, err := client.ExportRaw(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		gotState, err := snapshot.DecodeStream(raw)
		if err != nil {
			t.Fatal(err)
		}
		wantState, err := serve.Call(context.Background(), direct, s, (*serve.Stream).Export)
		if err != nil {
			t.Fatal(err)
		}
		gotState.Ledger, wantState.Ledger = nil, nil
		gb, err := json.Marshal(gotState)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(wantState)
		if err != nil {
			t.Fatal(err)
		}
		if string(gb) != string(wb) {
			t.Fatalf("slot %d: exported state differs from the direct server's", s)
		}
	}
}

// TestFrameValidation pins the 4xx surface: bad slot, bad frame length,
// and a body that is not a binary frame — the JSON body clients sent
// before frames went binary is a 415 naming the type the worker takes.
func TestFrameValidation(t *testing.T) {
	_, _, url := rawWorker(t, 5, 1, netserve.Options{})
	client := netserve.NewClient(url)
	ctx := context.Background()
	if _, err := client.SubmitFrame(ctx, 7, make([]float64, pixDim)); err == nil ||
		!strings.Contains(err.Error(), "no stream") {
		t.Fatalf("bad slot: %v", err)
	}
	var se *netserve.StatusError
	if _, err := client.SubmitFrame(ctx, 0, []float64{1, 2, 3}); !errors.As(err, &se) ||
		se.Code != http.StatusBadRequest || !strings.Contains(err.Error(), "frame length") {
		t.Fatalf("bad frame length: %v", err)
	}
	if _, err := client.Stats(ctx, -1); err == nil {
		t.Fatal("negative slot: want error")
	}
	jsonFrame := `{"frame":[` + strings.TrimSuffix(strings.Repeat("0.25,", pixDim), ",") + `]}`
	for _, contentType := range []string{"application/json", ""} {
		resp, err := http.Post(url+"/v1/streams/0/frames", contentType, strings.NewReader(jsonFrame))
		if err != nil {
			t.Fatal(err)
		}
		var er netserve.ErrorReply
		derr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType || derr != nil || !strings.Contains(er.Error, binaryType) {
			t.Fatalf("JSON frame body as %q: status %d, body %+v (%v); want 415 naming %s", contentType, resp.StatusCode, er, derr, binaryType)
		}
	}
	// Sent as a frame, the JSON body is simply short of one.
	resp, err := http.Post(url+"/v1/streams/0/frames", binaryType, strings.NewReader(jsonFrame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("JSON frame body as %s: status %d, want 400", binaryType, resp.StatusCode)
	}
	if rep, err := client.SubmitFrame(ctx, 0, make([]float64, pixDim)); err != nil || rep.Seq != 0 {
		t.Fatalf("first good frame after the refused ones: %+v, %v", rep, err)
	}
}

// TestOverloadSheds429 pins worker-side admission control: with the
// stream's loop parked on a barrier, MaxPending submits queue and the
// next one is shed as ErrBusy — and capacity recovers once the loop
// resumes.
func TestOverloadSheds429(t *testing.T) {
	const maxPending = 2
	srv, client := worker(t, 5, 1, netserve.Options{MaxPending: maxPending})
	ctx := context.Background()

	release := make(chan struct{})
	parked := make(chan struct{})
	go srv.Do(0, func(*serve.Stream) { close(parked); <-release })
	<-parked

	// Fill the gate sequentially: each probe takes a waiters token, blocks
	// behind the parked loop and is abandoned at its client deadline (the
	// server-side handler keeps the token). The (maxPending+1)-th submit
	// must shed immediately with 429.
	frame := make([]float64, pixDim)
	for i := 0; i < maxPending; i++ {
		pctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
		_, err := client.SubmitFrame(pctx, 0, frame)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("gate-filling submit %d: %v, want deadline exceeded", i, err)
		}
	}
	if _, err := client.SubmitFrame(ctx, 0, frame); !errors.Is(err, netserve.ErrBusy) {
		t.Fatalf("submit over the bound: %v, want ErrBusy", err)
	}

	// Resume the loop: the parked handlers drain their frames and free
	// their tokens, and capacity recovers.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := client.SubmitFrame(ctx, 0, frame)
		if err == nil {
			break
		}
		if !errors.Is(err, netserve.ErrBusy) || time.Now().After(deadline) {
			t.Fatalf("submit after recovery: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestObserverTimeout503 pins the deadline-bound barrier path end to
// end: a parked stream loop must turn observer polls into fast 503s, not
// hung connections — the Do/Results deadlock footgun, fenced at the
// network boundary.
func TestObserverTimeout503(t *testing.T) {
	srv, client := worker(t, 5, 1, netserve.Options{BarrierTimeout: 50 * time.Millisecond})
	ctx := context.Background()

	release := make(chan struct{})
	parked := make(chan struct{})
	go srv.Do(0, func(*serve.Stream) { close(parked); <-release })
	<-parked
	defer close(release)

	start := time.Now()
	_, err := client.Stats(ctx, 0)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("stats against a parked loop: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout path hung")
	}
	if _, err := client.Scores(ctx, 0); err == nil {
		t.Fatal("scores against a parked loop: want timeout error")
	}
}

// TestCheckpointTimeout503 pins that POST /v1/checkpoint is bound by the
// same BarrierTimeout as the observers: with slot 0's loop parked the
// request is a 503 within about one timeout, and no file is written.
func TestCheckpointTimeout503(t *testing.T) {
	const timeout = 50 * time.Millisecond
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	srv, client := worker(t, 5, 2, netserve.Options{BarrierTimeout: timeout, CheckpointPath: path})

	release := make(chan struct{})
	parked := make(chan struct{})
	go srv.Do(0, func(*serve.Stream) { close(parked); <-release })
	<-parked
	defer close(release)

	start := time.Now()
	_, err := client.Checkpoint(context.Background())
	var se *netserve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint against a parked loop: %v, want a 503", err)
	}
	if took := time.Since(start); took > 20*timeout {
		t.Fatalf("checkpoint 503 took %v with a %v barrier timeout", took, timeout)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("timed-out checkpoint left a file behind: %v", err)
	}
}

// TestMigrationBitExactOverHTTP is the network twin of the warm-restart
// guarantee: export a live stream from worker A mid-run (with an
// adaptation round's swap still pending), restore it into worker B, and
// the continued trajectory must be bit-identical to a run that never
// moved.
func TestMigrationBitExactOverHTTP(t *testing.T) {
	const seed, n, cut = 9, 40, 19 // cut mid-round: round at 16, swap at 18+lag
	_, gen := buildBackbone(t, seed)
	fs := frames(t, gen, 55, n)
	ctx := context.Background()

	// Baseline: one worker, no migration.
	_, base := worker(t, seed, 1, netserve.Options{})
	var want []float64
	for i, f := range fs {
		rep, err := base.SubmitFrame(ctx, 0, f)
		if err != nil {
			t.Fatalf("baseline frame %d: %v", i, err)
		}
		want = append(want, rep.Score)
	}

	// Migrated: worker A serves frames [0,cut), state moves to B's slot 1
	// (a different slot index — restored RNG state supersedes the slot
	// seed), B serves the rest.
	_, wa := worker(t, seed, 1, netserve.Options{})
	_, wb := worker(t, seed, 2, netserve.Options{})
	var got []float64
	for i := 0; i < cut; i++ {
		rep, err := wa.SubmitFrame(ctx, 0, fs[i])
		if err != nil {
			t.Fatalf("pre-migration frame %d: %v", i, err)
		}
		got = append(got, rep.Score)
	}
	state, err := wa.ExportRaw(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.RestoreRaw(ctx, 1, state); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < n; i++ {
		rep, err := wb.SubmitFrame(ctx, 1, fs[i])
		if err != nil {
			t.Fatalf("post-migration frame %d: %v", i, err)
		}
		got = append(got, rep.Score)
	}

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: migrated score %v != baseline %v", i, got[i], want[i])
		}
	}
}

// TestMemEndpoint pins the memory report: per-stream rows present,
// resident totals consistent with the ledger.
func TestMemEndpoint(t *testing.T) {
	_, gen := buildBackbone(t, 5)
	fs := frames(t, gen, 11, 4)
	_, client := worker(t, 5, 2, netserve.Options{})
	ctx := context.Background()
	for _, f := range fs {
		if _, err := client.SubmitFrame(ctx, 0, f); err != nil {
			t.Fatal(err)
		}
	}
	mem, err := client.Mem(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Streams) != 2 {
		t.Fatalf("mem rows: %d, want 2", len(mem.Streams))
	}
	if mem.Streams[0].Resident <= 0 {
		t.Fatalf("active stream resident %d, want > 0", mem.Streams[0].Resident)
	}
	// Rows are live walks; the process ledger refreshes only at settled
	// points on unbudgeted servers — assert presence, not equality.
	if mem.Resident <= 0 {
		t.Fatalf("ledger resident %d, want > 0", mem.Resident)
	}
	if mem.Budget != 0 {
		t.Fatalf("unbudgeted worker reports budget %d", mem.Budget)
	}
}
