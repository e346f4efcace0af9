package serve_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgekg/internal/concept"
	"edgekg/internal/serve"
)

// TestCorruptSpillFailsLoudlyThenRecovers pins the failed-rehydration
// contract: a stream whose spill file cannot be restored stays evicted and
// every frame errors (no score on a blank clone, Seq not advanced, the
// error retained in Stats.LastErr) until the file is readable again, at
// which point it rehydrates bit-exactly against the never-evicted trace —
// with a synchronous deployment and with a background round in flight at
// the eviction (trigger at 16, swap at 18, evicted after 17 frames).
func TestCorruptSpillFailsLoudlyThenRecovers(t *testing.T) {
	const frames, evictAt, refAt = 40, 17, 4

	evicted := func(t *testing.T, srv *serve.Server) bool {
		t.Helper()
		// Call, not Do: a joining barrier would try to settle the spilled round.
		ev, err := serve.Call(context.Background(), srv, 0, func(st *serve.Stream) (bool, error) { return st.Evicted(), nil })
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}

	for _, lag := range []int{0, 2} {
		backbone, gen := buildBackbone(t, 1)
		stream := frameSchedule(gen, 41, frames, 12, concept.Stealing, concept.Robbery)
		cfg := serve.DefaultConfig()
		cfg.Stream = streamCfg(lag)
		cfg.Seeds = []int64{31, 32}

		ref, err := serve.NewServer(backbone, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := pumpPart(t, ref, 0, stream, 0, frames, refAt)
		wantStats, wantNodes, _ := drainAndStats(t, ref, 2)
		if wantStats[0].TriggeredRounds == 0 {
			t.Fatal("fixture never adapted — nothing to lose in a blank restart")
		}

		// start serves the prefix, evicts stream 0 and corrupts its spill
		// file, returning the file's path and original bytes.
		start := func(t *testing.T) (*serve.Server, string, []byte, frameTrace) {
			t.Helper()
			cfg := cfg
			cfg.SpillDir = t.TempDir()
			srv, err := serve.NewServer(backbone, 2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			head := pumpPart(t, srv, 0, stream, 0, evictAt, refAt)
			if err := srv.EvictStream(0); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(cfg.SpillDir, "stream-0.spill.json")
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte("{not a checkpoint"), 0o600); err != nil {
				t.Fatal(err)
			}
			return srv, path, orig, head
		}
		// failFrame submits one frame against the corrupt file.
		failFrame := func(t *testing.T, srv *serve.Server) {
			t.Helper()
			if err := srv.Submit(0, stream[evictAt]); err != nil {
				t.Fatal(err)
			}
			res := <-resultsOf(t, srv, 0)
			if res.Err == nil {
				t.Fatalf("lag %d: frame against a corrupt spill file scored %v with no error", lag, res.Score)
			}
			if res.Seq != evictAt || res.Score != 0 {
				t.Fatalf("lag %d: failed frame reported seq %d score %v, want seq %d and no score", lag, res.Seq, res.Score, evictAt)
			}
			if !evicted(t, srv) {
				t.Fatalf("lag %d: stream turned resident after a failed rehydration", lag)
			}
		}

		t.Run("stays-corrupt", func(t *testing.T) {
			srv, path, _, _ := start(t)
			for i := 0; i < 3; i++ {
				failFrame(t, srv)
			}
			stats, err := serve.Call(context.Background(), srv, 0, func(st *serve.Stream) (serve.Stats, error) { return st.Stats(), nil })
			if err != nil {
				t.Fatal(err)
			}
			if stats.LastErr == "" || stats.Frames != evictAt {
				t.Fatalf("lag %d: stats after failed rehydrations: %+v", lag, stats)
			}
			srv.Shutdown()
			left, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Fatalf("lag %d: Shutdown left %v in the spill dir", lag, left)
			}
		})

		t.Run("healed", func(t *testing.T) {
			srv, path, orig, head := start(t)
			failFrame(t, srv)
			if err := os.WriteFile(path, orig, 0o600); err != nil {
				t.Fatal(err)
			}
			tail := pumpPart(t, srv, 0, stream, evictAt, frames, refAt)
			if got := concatTraces(head, tail); !equalTraces(got, want) {
				t.Fatalf("lag %d: trajectory through a failed-then-healed rehydration diverged from the never-evicted one", lag)
			}
			gotStats, gotNodes, _ := drainAndStats(t, srv, 2)
			g, w := gotStats[0], wantStats[0]
			g.Evictions = w.Evictions
			if lag > 0 {
				// Counter-delta metering over-attributes when a background
				// round overlaps scoring, so op totals are not run-invariant.
				g.ScoringOps, g.AdaptOps, g.AdaptOpsPerRound, g.EnergyPerAdaptJ, g.AdaptLatencyS = w.ScoringOps, w.AdaptOps, w.AdaptOpsPerRound, w.EnergyPerAdaptJ, w.AdaptLatencyS
			}
			if g != w {
				t.Fatalf("lag %d: stats %+v, want %+v", lag, g, w)
			}
			if !reflect.DeepEqual(gotNodes[0], wantNodes[0]) {
				t.Fatalf("lag %d: node sets differ: %v vs %v", lag, gotNodes[0], wantNodes[0])
			}
		})
	}
}
