package shard_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

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
	"edgekg/internal/shard"
	"edgekg/internal/temporal"
)

const pixDim = 32

// buildBackbone is the small deployment fixture (the serve/netserve test
// fixture's twin): detector + frame generator, fully determined by seed.
func buildBackbone(t *testing.T, seed int64) (*core.Detector, *dataset.Generator) {
	t.Helper()
	ont := concept.Builtin()
	tok := bpe.Train(ont.Concepts(), 600)
	space, err := embed.NewSpace(tok, ont.Concepts(), embed.Config{Dim: 16, PixDim: pixDim, Seed: seed})
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

// newFleet stands up nshards fresh workers (identical backbone seed, so
// two fleets from the same seed are bit-identical) behind a router.
func newFleet(t *testing.T, seed int64, nshards, slots int) *shard.Router {
	t.Helper()
	backends := make([]shard.Backend, nshards)
	for i := 0; i < nshards; i++ {
		backbone, _ := buildBackbone(t, seed)
		cfg := serve.DefaultConfig()
		scfg := serve.DefaultStreamConfig()
		scfg.MonitorN = 8
		scfg.MonitorLag = 4
		scfg.AdaptEveryFrames = 8
		scfg.AdaptLagFrames = 2
		scfg.Adapt.Patience = 1
		cfg.Stream = scfg
		cfg.BaseSeed = 100
		srv, err := serve.NewServer(backbone, slots, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		h, err := netserve.NewHandler(srv, netserve.Options{FrameSize: pixDim})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		backends[i] = shard.NetBackend(netserve.NewClient(ts.URL), slots)
	}
	r, err := shard.New(backends, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// synthFrames precomputes each key's deterministic frame sequence so the
// Scenario.Frame callback is random-access and run-independent.
func synthFrames(t *testing.T, gen *dataset.Generator, keys []string, n int) map[string][][]float64 {
	t.Helper()
	out := make(map[string][][]float64, len(keys))
	for i, key := range keys {
		rng := rand.New(rand.NewSource(1000 + int64(i)))
		fs := make([][]float64, n)
		for j := range fs {
			cls := concept.Stealing
			if j >= n/2 {
				cls = concept.Robbery
			}
			fs[j] = append([]float64(nil), gen.Frame(rng, cls).Data()...)
		}
		out[key] = fs
	}
	return out
}

// TestRouterMigrationBitExact is the fleet-level acceptance test: 8
// concurrent streams over a 2-shard router, one stream checkpoint-
// migrated between shards mid-run — with an adaptation round in flight —
// and every key's score trace bit-identical to a fleet that never moved
// anything.
func TestRouterMigrationBitExact(t *testing.T) {
	const seed, nkeys, frames, migrateAt = 11, 8, 24, 17
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = "cam-" + string(rune('a'+i))
	}
	_, gen := buildBackbone(t, seed)
	fs := synthFrames(t, gen, keys, frames)
	sc := shard.Scenario{
		Keys:   keys,
		Frames: frames,
		Frame:  func(key string, seq int) []float64 { return fs[key][seq] },
	}
	ctx := context.Background()

	// Baseline fleet: no migration.
	base := newFleet(t, seed, 2, nkeys+1)
	baseRep, err := shard.Run(ctx, base, sc)
	if err != nil {
		t.Fatal(err)
	}
	if baseRep.OK != nkeys*frames || baseRep.Shed != 0 || baseRep.Failed != 0 {
		t.Fatalf("baseline run: %+v", baseRep)
	}

	// Fresh fleet: same seed, same scenario, but one key hops shards at
	// frame 17 — two frames into an adaptation round whose swap is still
	// pending, the hardest state to move.
	moved := newFleet(t, seed, 2, nkeys+1)
	rt, err := moved.Route(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	msc := sc
	msc.MigrateKey = keys[0]
	msc.MigrateAt = migrateAt
	msc.MigrateTo = 1 - rt.Shard
	movedRep, err := shard.Run(ctx, moved, msc)
	if err != nil {
		t.Fatal(err)
	}
	if movedRep.OK != nkeys*frames {
		t.Fatalf("migrated run: %+v", movedRep)
	}
	if got, err := moved.Route(keys[0]); err != nil || got.Shard != msc.MigrateTo {
		t.Fatalf("key %q on shard %d after migration, want %d (%v)", keys[0], got.Shard, msc.MigrateTo, err)
	}

	for _, key := range keys {
		a, b := baseRep.Traces[key], movedRep.Traces[key]
		if len(a) != frames || len(b) != frames {
			t.Fatalf("key %q traces %d/%d, want %d", key, len(a), len(b), frames)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("key %q frame %d: migrated score %v != baseline %v", key, i, b[i], a[i])
			}
		}
	}
	if baseRep.P50Ms <= 0 || baseRep.P99Ms < baseRep.P50Ms || baseRep.P999Ms < baseRep.P99Ms {
		t.Fatalf("latency percentiles malformed: p50=%v p99=%v p999=%v",
			baseRep.P50Ms, baseRep.P99Ms, baseRep.P999Ms)
	}
}
