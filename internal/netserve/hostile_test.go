package netserve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"edgekg/internal/netserve"
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
// restore-atomicity guarantee: a snapshot that fails to decode or to
// validate is answered 4xx, and the slot's next frame scores — bit-equal
// to a twin worker that never saw the attempt.
func TestHostileRestoreKeepsWorkerServing(t *testing.T) {
	const seed, served = 9, 12
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
	_, client := worker(t, seed, 1, netserve.Options{})
	_, twin := worker(t, seed, 1, netserve.Options{})
	drive(client, 0, served)
	drive(twin, 0, served)

	state, err := client.ExportRaw(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(state)
	// The shape whose product wraps to the empty payload's length, on the
	// last bank of the detector section.
	i := strings.LastIndex(doc[:strings.Index(doc, `"monitor"`)], `"tokens":{"shape":[`)
	j := i + strings.Index(doc[i:], `}`)
	overflow := doc[:i] + `"tokens":{"shape":[1152921504606846976,16],"data":""` + doc[j:]
	// A monitor frame of 7 features where the stream's frames have 32.
	i = strings.Index(doc, `"frames":[{"shape":[1,32],"data":"`)
	j = i + strings.Index(doc[i:], `}`)
	shortFrame := doc[:i] + `"frames":[{"shape":[1,7],"data":"` + strings.Repeat("AAAAAAAAAAA=", 7) + `"` + doc[j:]
	for name, hostile := range map[string]string{"overflowing bank shape": overflow, "short monitor frame": shortFrame} {
		err := client.RestoreRaw(ctx, 0, []byte(hostile))
		var se *netserve.StatusError
		if !errors.As(err, &se) || se.Code/100 != 4 {
			t.Fatalf("%s: restore answered %v, want a 4xx", name, err)
		}
	}
	got, want := drive(client, served, served+8), drive(twin, served, served+8)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d after the refused restores: score %v, untouched twin %v", served+i, got[i], want[i])
		}
	}
	// The untampered snapshot still restores.
	if err := client.RestoreRaw(ctx, 0, state); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBodies413 pins the request-body bounds: a frame or restore
// body past its limit is answered 413 without being buffered, and the slot
// it was aimed at takes the next frame — no admission token leaked, even
// at MaxPending 1.
func TestOversizedBodies413(t *testing.T) {
	_, h, url := rawWorker(t, 5, 1, netserve.Options{MaxPending: 1})
	h.SetRestoreLimit(4 << 10)
	client := netserve.NewClient(url)
	for _, tc := range []struct{ path, body string }{
		// A well-formed frame request that is simply too long …
		{"/v1/streams/0/frames", `{"frame":[` + strings.Repeat("0.25,", 4096) + `0.25]}`},
		// … and the same number of values hidden behind whitespace.
		{"/v1/streams/0/frames", strings.Repeat(" ", 8192) + `{"frame":[]}`},
		{"/v1/streams/0/restore", `{"id":0,"last_err":"` + strings.Repeat("x", 8192) + `"}`},
	} {
		// Once with the length declared, once chunked (a reader net/http
		// cannot size).
		for _, body := range []io.Reader{bytes.NewReader([]byte(tc.body)), io.MultiReader(strings.NewReader(tc.body))} {
			resp, err := http.Post(url+tc.path, "application/json", body)
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
