package netserve_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"edgekg/internal/netserve"
	"edgekg/internal/serve"
	"edgekg/internal/snapshot"
	"edgekg/internal/tensor"
)

// GET …/export encodes the state on the stream's loop, straight from live
// state, into a buffer from a pool shared by every slot. These tests drive
// that path under concurrency; CI runs them under the race detector.

// checkState decodes an exported state and requires it to re-encode to the
// same bytes.
func checkState(t *testing.T, raw []byte) *snapshot.StreamState {
	t.Helper()
	ss, err := snapshot.DecodeStream(raw)
	if err != nil {
		t.Errorf("export does not decode: %v", err)
		return nil
	}
	if re := snapshot.AppendStream(nil, ss); !bytes.Equal(re, raw) {
		t.Errorf("export of %d bytes re-encodes to %d", len(raw), len(re))
	}
	return ss
}

// TestExportWhileSubmittingMatchesDirectServe submits one slot's frames
// from several goroutines while another exports the slot over and over:
// every export decodes, and every score equals a direct serve.Server's, so
// exporting never perturbs the trajectory.
func TestExportWhileSubmittingMatchesDirectServe(t *testing.T) {
	const seed, goroutines, n = 3, 4, 40
	_, gen := buildBackbone(t, seed)
	fs := frames(t, gen, 40, n)

	backbone, _ := buildBackbone(t, seed)
	cfg := serve.DefaultConfig()
	cfg.Stream = streamCfg()
	cfg.BaseSeed = 100
	direct, err := serve.NewServer(backbone, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Shutdown()
	want := make([]float64, n)
	for i, f := range fs {
		r, err := direct.Process(0, tensor.FromSlice(f, len(f)))
		if err != nil || r.Err != nil {
			t.Fatal(err, r.Err)
		}
		want[i] = r.Score
	}

	_, client := worker(t, seed, 1, netserve.Options{})
	ctx := context.Background()
	export := func() *snapshot.StreamState {
		raw, err := client.ExportRaw(ctx, 0)
		if err != nil {
			t.Errorf("export: %v", err)
			return nil
		}
		return checkState(t, raw)
	}

	// The exporter exports over and over until the last submit has returned.
	submitting, exported := make(chan struct{}), make(chan int)
	go func() {
		exports, last := 0, -1
		defer func() { exported <- exports }()
		for ; ; exports++ {
			select {
			case <-submitting:
				return
			default:
			}
			ss := export()
			if ss == nil {
				return
			}
			if ss.Frames < last {
				t.Errorf("export %d has %d frames, an earlier one had %d", exports, ss.Frames, last)
			}
			last = ss.Frames
		}
	}()
	var (
		mu   sync.Mutex // holds the slot's turn across its submit
		next int
		got  [n]float64
		wg   sync.WaitGroup
	)
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i == n {
					mu.Unlock()
					return
				}
				rep, err := client.SubmitFrame(ctx, 0, fs[i])
				if err != nil || rep.Seq != i {
					t.Errorf("frame %d: seq %d, %v", i, rep.Seq, err)
				}
				got[i] = rep.Score
				next++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(submitting)
	t.Logf("%d exports beside %d submits", <-exported, n)
	if ss := export(); ss != nil && ss.Frames != n {
		t.Fatalf("final export has %d frames, %d were submitted", ss.Frames, n)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: score %v beside exports, direct %v", i, got[i], want[i])
		}
	}
}

// TestExportBarrierTimeoutLeavesPooledBuffersAlone times one export out
// while slot 0's loop is blocked: the request is a 503, yet its callback
// still runs on the loop once the loop is free. That callback encodes into
// a pooled buffer, so while it runs slot 1 exports through the same pool,
// and every one of its exports must be the idle slot's exact bytes.
func TestExportBarrierTimeoutLeavesPooledBuffersAlone(t *testing.T) {
	const timeout = 50 * time.Millisecond
	srv, client := worker(t, 5, 2, netserve.Options{BarrierTimeout: timeout})
	_, gen := buildBackbone(t, 5)
	ctx := context.Background()
	for s := range 2 {
		for _, f := range frames(t, gen, int64(50+s), 12) {
			if _, err := client.SubmitFrame(ctx, s, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	idle, err := client.ExportRaw(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	parked := make(chan struct{})
	go srv.Do(0, func(*serve.Stream) { close(parked); <-release })
	<-parked
	_, err = client.ExportRaw(ctx, 0)
	var se *netserve.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		close(release)
		t.Fatalf("export against a parked loop: %v, want a 503", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 20 {
			raw, err := client.ExportRaw(ctx, 1)
			if err != nil {
				t.Errorf("slot 1 export %d: %v", i, err)
				return
			}
			if !bytes.Equal(raw, idle) {
				t.Errorf("slot 1 export %d: %d bytes differ from the idle slot's %d", i, len(raw), len(idle))
			}
		}
	}()
	close(release)
	wg.Wait()

	raw, err := client.ExportRaw(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss := checkState(t, raw); ss != nil && ss.Frames != 12 {
		t.Fatalf("slot 0 exports %d frames after the timeout, served 12", ss.Frames)
	}
}
