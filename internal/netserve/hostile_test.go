package netserve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edgekg/internal/core"
	"edgekg/internal/netserve"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// TestStatsBodyIsServeStats pins the /stats wire body across the deletion
// of the netserve mirror struct: the keys, their order and the encoding
// are those of the reply type this endpoint used to fill field by field.
func TestStatsBodyIsServeStats(t *testing.T) {
	srv, _, url := rawWorker(t, 3, 2, netserve.Options{})
	_, gen := buildBackbone(t, 3)
	client := netserve.NewClient(url)
	for _, f := range frames(t, gen, 9, 20) {
		if _, err := client.SubmitFrame(context.Background(), 1, f); err != nil {
			t.Fatal(err)
		}
	}
	num := func(v float64) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for id := 0; id < 2; id++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/streams/%d/stats", url, id))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.StreamStats(id)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`{"stream":%d,"frames":%d,"adapt_rounds":%d,"triggered_rounds":%d,"pruned_nodes":%d,"created_nodes":%d,`+
			`"scoring_ops":%d,"adapt_ops":%d,"adapt_ops_per_round":%d,"energy_per_adapt_j":%s,"adapt_latency_s":%s,`+
			`"resident_bytes":%d,"evictions":%d}`+"\n",
			st.Stream, st.Frames, st.AdaptRounds, st.TriggeredRounds, st.PrunedNodes, st.CreatedNodes,
			st.ScoringOps, st.AdaptOps, st.AdaptOpsPerRound, num(st.EnergyPerAdaptJ), num(st.AdaptLatencyS),
			st.ResidentBytes, st.Evictions)
		if string(body) != want {
			t.Errorf("stream %d stats body\n %s\nwant\n %s", id, body, want)
		}
		if id == 1 && (st.Frames != 20 || st.ScoringOps == 0 || st.ResidentBytes == 0) {
			t.Errorf("driven stream's stats are blank: %+v", st)
		}
	}
	// The typed client decodes the same struct the server encoded.
	got, err := client.Stats(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := srv.StreamStats(1); got != want {
		t.Errorf("client stats %+v, server stats %+v", got, want)
	}
}

// TestHostileRestoreKeepsWorkerServing pins the network face of the
// restore-atomicity guarantee: a state that fails to decode or to validate
// is answered 4xx, and the slot's next frame scores — bit-equal to a twin
// worker that never saw the attempt. The slot is exported one frame into a
// pending round, so the state carries every section.
func TestHostileRestoreKeepsWorkerServing(t *testing.T) {
	const seed, served = 9, 17
	_, gen := buildBackbone(t, seed)
	fs := frames(t, gen, 55, served+8)
	ctx := context.Background()
	drive := func(c *netserve.Client, lo, hi int) []float64 {
		t.Helper()
		var scores []float64
		for _, f := range fs[lo:hi] {
			rep, err := c.SubmitFrame(ctx, 0, f)
			if err != nil {
				t.Fatal(err)
			}
			scores = append(scores, rep.Score)
		}
		return scores
	}
	_, _, url := rawWorker(t, seed, 1, netserve.Options{})
	client := netserve.NewClient(url)
	_, twin := worker(t, seed, 1, netserve.Options{})
	drive(client, 0, served)
	drive(twin, 0, served)

	state, err := client.ExportRaw(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := snapshot.DecodeStream(state)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Adapter == nil || ss.Pending == nil {
		t.Fatal("the exported state lacks the adapter or the pending round")
	}
	hostile := map[string][]byte{
		"truncated in the header":      state[:3],
		"a trailing byte":              append(bytes.Clone(state), 0),
		"a stream count past the body": append(binary.AppendUvarint(bytes.Clone(state[:5]), 1<<40), state[6:]...),
		"a wrong version":              append(append(bytes.Clone(state[:4]), 3), state[5:]...),
	}
	// One byte into each section: where the encoding of the state with that
	// section and all later ones zeroed parts from the real one.
	sections := []func(*snapshot.StreamState){
		func(s *snapshot.StreamState) { s.Detector = snapshot.DetectorState{} },
		func(s *snapshot.StreamState) { s.Monitor = core.MonitorState{} },
		func(s *snapshot.StreamState) { s.Adapter = nil },
		func(s *snapshot.StreamState) { s.Pending = nil },
		func(s *snapshot.StreamState) { s.Ledger = nil },
	}
	prev := 0
	for i := range sections {
		cut := *ss
		for _, zero := range sections[i:] {
			zero(&cut)
		}
		at := commonPrefix(state, snapshot.AppendStream(nil, &cut)) + 1
		if at <= prev || at >= len(state) {
			t.Fatalf("section %d starts at byte %d, after %d and before %d", i+1, at-1, prev, len(state))
		}
		hostile[fmt.Sprintf("truncated in section %d of 5", i+1)] = state[:at]
		prev = at
	}
	// Decodes, but a monitor frame of 7 features where the stream's frames
	// have 32 does not restore.
	short := *ss
	short.Monitor.Frames = append([]*tensor.Tensor{tensor.New(1, 7)}, ss.Monitor.Frames[1:]...)
	hostile["a short monitor frame"] = snapshot.AppendStream(nil, &short)
	for name, body := range hostile {
		err := client.RestoreRaw(ctx, 0, body)
		var se *netserve.StatusError
		if !errors.As(err, &se) || se.Code/100 != 4 {
			t.Fatalf("%s: restore answered %v, want a 4xx", name, err)
		}
	}
	// The version 1 form is refused by type, and as the binary type it does
	// not decode.
	doc, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	for contentType, want := range map[string]int{"application/json": http.StatusUnsupportedMediaType, binaryType: http.StatusBadRequest} {
		resp, err := http.Post(url+"/v1/streams/0/restore", contentType, bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("JSON state as %s: status %d, want %d", contentType, resp.StatusCode, want)
		}
	}
	got, want := drive(client, served, served+8), drive(twin, served, served+8)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d after the refused restores: score %v, untouched twin %v", served+i, got[i], want[i])
		}
	}
	// The untampered state still restores.
	if err := client.RestoreRaw(ctx, 0, state); err != nil {
		t.Fatal(err)
	}
}

// commonPrefix is the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// TestOversizedBodies413 pins the request-body bounds: a frame or restore
// body past its limit is answered 413 without being buffered, and the slot
// it was aimed at takes the next frame — no admission token leaked, even
// at MaxPending 1.
func TestOversizedBodies413(t *testing.T) {
	_, h, url := rawWorker(t, 5, 1, netserve.Options{MaxPending: 1})
	h.SetRestoreLimit(4 << 10)
	client := netserve.NewClient(url)
	good := frameBody(make([]float64, pixDim))
	for _, tc := range []struct{ path, contentType, body string }{
		// A well-formed frame body that is simply too long …
		{"/v1/streams/0/frames", binaryType, string(frameBody(make([]float64, 4097)))},
		// … and one byte past a frame.
		{"/v1/streams/0/frames", binaryType, string(good) + "\x00"},
		// A state whose error text runs past the restore bound.
		{"/v1/streams/0/restore", binaryType, string(snapshot.AppendStream(nil, &snapshot.StreamState{LastErr: strings.Repeat("x", 8192)}))},
	} {
		// Once with the length declared, once chunked (a reader net/http
		// cannot size).
		for _, body := range []io.Reader{bytes.NewReader([]byte(tc.body)), io.MultiReader(strings.NewReader(tc.body))} {
			resp, err := http.Post(url+tc.path, tc.contentType, body)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("POST %s with %d bytes: status %d, want 413", tc.path, len(tc.body), resp.StatusCode)
			}
			if _, err := client.SubmitFrame(context.Background(), 0, make([]float64, pixDim)); err != nil {
				t.Fatalf("frame after the oversized POST %s: %v", tc.path, err)
			}
		}
	}
}

// binaryType is the Content-Type of a frame body and of a stream state.
const binaryType = "application/octet-stream"

// frameBody is a frame's request body as the wire defines it: each value's
// IEEE-754 bits, little-endian.
func frameBody(frame []float64) []byte {
	b := make([]byte, 8*len(frame))
	for i, v := range frame {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// fill is a frame of pixDim copies of v.
func fill(v float64) []float64 {
	f := make([]float64, pixDim)
	for i := range f {
		f[i] = v
	}
	return f
}

// overflowFrame is a frame of finite values that overflows the image
// encoder: the stream scores it NaN.
var overflowFrame = fill(1.7e308)

// TestHostileFrameIs400 pins the network face of the non-finite-score
// refusal. The worker used to score the frame NaN, push that into the
// monitor and answer 200 with an empty body (the status line went out
// before the encoder met the NaN) — which a client reads as EOF, classifies
// transient and retries. Now: a typed 400, IsTransient false, and the slot
// scores its next frames bit-equal to a twin that never saw the frame.
// A binary body can carry NaN and ±Inf themselves, which JSON could not:
// those are refused the same way, before the frame reaches the stream.
func TestHostileFrameIs400(t *testing.T) {
	const seed, served, after = 9, 10, 13
	_, gen := buildBackbone(t, seed)
	fs := frames(t, gen, 55, served+after)
	ctx := context.Background()
	drive := func(c *netserve.Client, lo, hi int) []float64 {
		t.Helper()
		var scores []float64
		for _, f := range fs[lo:hi] {
			rep, err := c.SubmitFrame(ctx, 0, f)
			if err != nil {
				t.Fatal(err)
			}
			scores = append(scores, rep.Score)
		}
		return scores
	}
	_, _, url := rawWorker(t, seed, 1, netserve.Options{})
	client := netserve.NewClient(url)
	_, twin := worker(t, seed, 1, netserve.Options{})
	drive(client, 0, served)
	drive(twin, 0, served)

	withNaN := fill(0.25)
	withNaN[pixDim/2] = math.NaN()
	for _, tc := range []struct {
		name  string
		frame []float64
		want  string
	}{
		{"overflowing", overflowFrame, "non-finite"},
		{"NaN", withNaN, fmt.Sprintf("value %d is NaN", pixDim/2)},
		{"+Inf", fill(math.Inf(1)), "value 0 is +Inf"},
		{"-Inf", fill(math.Inf(-1)), "value 0 is -Inf"},
	} {
		resp, err := http.Post(url+"/v1/streams/0/frames", binaryType, bytes.NewReader(frameBody(tc.frame)))
		if err != nil {
			t.Fatal(err)
		}
		var er netserve.ErrorReply
		derr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.Contains(er.Error, tc.want) {
			t.Fatalf("%s frame: status %d, body %+v (%v); want 400 with an ErrorReply naming %q", tc.name, resp.StatusCode, er, derr, tc.want)
		}
		if _, err := client.SubmitFrame(ctx, 0, tc.frame); err == nil || netserve.IsTransient(err) {
			t.Fatalf("SubmitFrame of the %s frame: %v, want a non-transient error", tc.name, err)
		}
	}

	got, want := drive(client, served, served+after), drive(twin, served, served+after)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d after the refused frame: score %v, untouched twin %v", served+i, got[i], want[i])
		}
	}
	scores, err := client.Scores(ctx, 0)
	if err != nil || len(scores) != served+after {
		t.Fatalf("GET scores after the refused frame: %d scores, %v", len(scores), err)
	}
}

// TestClientMapsStatusOnce pins the one status mapping every client call
// goes through: 429 is ErrBusy, any other non-2xx a *StatusError carrying
// the worker's message — identically for the JSON call (SubmitFrame) and
// the two raw-body calls that used to carry their own copies.
func TestClientMapsStatusOnce(t *testing.T) {
	var status atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(status.Load()))
		json.NewEncoder(w).Encode(netserve.ErrorReply{Error: "the worker's words"})
	}))
	defer ts.Close()
	client := netserve.NewClient(ts.URL)
	ctx := context.Background()
	calls := map[string]func() error{
		"SubmitFrame": func() error { _, err := client.SubmitFrame(ctx, 0, []float64{1}); return err },
		"ExportRaw":   func() error { _, err := client.ExportRaw(ctx, 0); return err },
		"RestoreRaw":  func() error { return client.RestoreRaw(ctx, 0, snapshot.AppendStream(nil, &snapshot.StreamState{})) },
	}
	for name, call := range calls {
		status.Store(http.StatusTooManyRequests)
		if err := call(); !errors.Is(err, netserve.ErrBusy) {
			t.Errorf("%s on 429: %v, want ErrBusy", name, err)
		}
		for _, code := range []int{http.StatusBadRequest, http.StatusConflict, http.StatusInternalServerError, http.StatusServiceUnavailable} {
			status.Store(int32(code))
			var se *netserve.StatusError
			if err := call(); !errors.As(err, &se) || se.Code != code || se.Msg != "the worker's words" {
				t.Errorf("%s on %d: %v, want a *StatusError with the code and the worker's message", name, code, err)
			} else if netserve.IsTransient(err) != (code >= 500) {
				t.Errorf("%s on %d: IsTransient = %v", name, code, netserve.IsTransient(err))
			}
		}
	}
}

// TestMemSharesOneDeadline pins GET /v1/mem's worst case: every stream's
// loop parked, the reply still takes one BarrierTimeout — not one per
// stream — and names the timeout on every row.
func TestMemSharesOneDeadline(t *testing.T) {
	const streams, timeout = 6, 250 * time.Millisecond
	srv, client := worker(t, 5, streams, netserve.Options{BarrierTimeout: timeout})
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < streams; i++ {
		parked := make(chan struct{})
		go srv.Do(i, func(*serve.Stream) { close(parked); <-release })
		<-parked
	}
	start := time.Now()
	rep, err := client.Mem(context.Background())
	if err != nil || len(rep.Streams) != streams {
		t.Fatalf("mem against parked loops: %+v, %v", rep, err)
	}
	if d := time.Since(start); d < timeout || d > (streams-1)*timeout {
		t.Fatalf("mem took %v over %d parked streams, want about one %v deadline", d, streams, timeout)
	}
	for _, row := range rep.Streams {
		if !strings.Contains(row.LastErr, "deadline") {
			t.Errorf("row %+v does not report the timeout", row)
		}
	}
}

// FuzzFrameBody throws arbitrary bytes at POST …/frames, the request every
// camera can reach: the worker answers 200 with a reply record that decodes
// to a score in [0, 1], or 4xx with a JSON ErrorReply — never a panic or a
// 5xx — and the slot takes a good frame afterwards.
func FuzzFrameBody(f *testing.F) {
	good := frameBody(make([]float64, pixDim))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0))
	withNaN := make([]float64, pixDim)
	withNaN[3] = math.NaN()
	f.Add(frameBody(withNaN))
	f.Add(frameBody(fill(math.Inf(1))))
	f.Add(frameBody(overflowFrame))
	backbone, _ := buildBackbone(f, 5)
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg()
	srv, err := serve.NewServer(backbone, 1, cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Shutdown)
	h, err := netserve.NewHandler(srv, netserve.Options{FrameSize: pixDim})
	if err != nil {
		f.Fatal(err)
	}
	post := func(body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/0/frames", bytes.NewReader(body))
		req.Header.Set("Content-Type", binaryType)
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		switch code, reply := post(body); code / 100 {
		case 2:
			rep, err := netserve.DecodeReply(reply)
			if code != http.StatusOK || err != nil || !(rep.Score >= 0 && rep.Score <= 1) {
				t.Fatalf("body %x: status %d, reply %+v (%v); want a score in [0, 1]", body, code, rep, err)
			}
		case 4:
			var er netserve.ErrorReply
			if err := json.Unmarshal(reply, &er); err != nil || er.Error == "" {
				t.Fatalf("body %x: %d without an ErrorReply: %q", body, code, reply)
			}
		default:
			t.Fatalf("body %x: status %d, reply %q", body, code, reply)
		}
		if code, reply := post(good); code != http.StatusOK {
			t.Fatalf("good frame after body %x: status %d, reply %q", body, code, reply)
		}
	})
}
