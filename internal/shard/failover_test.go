package shard_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"edgekg/internal/netserve"
	"edgekg/internal/serve"
	"edgekg/internal/shard"
)

// faultFleet stands up nshards workers wired for crash drills: each
// worker's handler is bridged to its httptest server so a /v1/die request
// severs every connection abruptly, exactly as the production embedder
// (edgekg.NetListen) crashes on KillRequested.
func faultFleet(t *testing.T, seed int64, nshards, slots int, cfg shard.Config) *shard.Router {
	t.Helper()
	backends := make([]shard.Backend, nshards)
	for i := 0; i < nshards; i++ {
		backbone, _ := buildBackbone(t, seed)
		scfg := serve.DefaultConfig()
		stream := serve.DefaultStreamConfig()
		stream.MonitorN = 8
		stream.MonitorLag = 4
		stream.AdaptEveryFrames = 8
		stream.AdaptLagFrames = 2
		stream.Adapt.Patience = 1
		scfg.Stream = stream
		scfg.BaseSeed = 100
		srv, err := serve.NewServer(backbone, slots, scfg)
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
		go func() {
			<-h.KillRequested()
			ts.CloseClientConnections()
			ts.Close()
		}()
		backends[i] = shard.NetBackend(netserve.NewClient(ts.URL), slots)
	}
	r, err := shard.New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRouterFailoverBitExact is the fault-tolerance acceptance test: 8
// concurrent camera streams over a 2-shard fleet, one worker killed
// abruptly mid-run — with adaptation rounds pending (round triggered at
// frame 16, swap still two frames out at the kill point) — the health
// monitor detects the death, failover rehomes the dead shard's keys onto
// the survivor from cached snapshots and replays the frames scored since,
// the drivers retry through the outage, and every continued trajectory is
// bit-identical to an uninterrupted fleet's.
func TestRouterFailoverBitExact(t *testing.T) {
	const seed, nkeys, frames, killAt = 11, 8, 24, 17
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

	// Baseline fleet: nothing dies. SnapshotEvery is deliberately off —
	// the snapshot cache's raw barriers must not be needed for the
	// baseline to match, proving the cache itself is trajectory-neutral.
	base := newFleet(t, seed, 2, nkeys+1)
	baseRep, err := shard.Run(ctx, base, sc)
	if err != nil {
		t.Fatal(err)
	}
	if baseRep.OK != nkeys*frames || baseRep.Failed != 0 {
		t.Fatalf("baseline run: %+v", baseRep)
	}

	// Fault fleet: same seed, failover armed, one shard killed before
	// cam-a's frame 17.
	faulty := faultFleet(t, seed, 2, nkeys+1, shard.Config{SnapshotEvery: 8})
	rt0, err := faulty.Route(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	dead := rt0.Shard
	survivor := 1 - dead
	// The probe timeout comfortably exceeds what a loaded box can take to
	// answer /healthz, so only the killed worker is declared dead. Its
	// listener is closed, so its probes still fail at connect and the
	// timeout never stretches detection.
	monitor := shard.NewHealthMonitor(faulty, shard.HealthConfig{
		Interval:  20 * time.Millisecond,
		Timeout:   5 * time.Second,
		Threshold: 2,
	})
	monitor.Start()
	defer monitor.Stop()

	// Capture the survivor's pre-failover slot usage for the leak check.
	// Routes are pre-allocated by Run in key order; pre-route here to read
	// a stable figure.
	for _, k := range keys {
		if _, err := faulty.Route(k); err != nil {
			t.Fatal(err)
		}
	}
	survBefore := faulty.SlotsInUse(survivor)
	var deadKeys []string
	for _, k := range keys {
		if rt, _ := faulty.Route(k); rt.Shard == dead {
			deadKeys = append(deadKeys, k)
		}
	}
	if len(deadKeys) == 0 {
		t.Fatal("no keys on the to-be-killed shard; the drill is vacuous")
	}

	ksc := sc
	ksc.Kill = &shard.Kill{Shard: dead, At: killAt}
	killRep, err := shard.Run(ctx, faulty, ksc)
	if err != nil {
		t.Fatal(err)
	}
	if killRep.OK != nkeys*frames {
		t.Fatalf("killed run scored %d of %d frames: %+v", killRep.OK, nkeys*frames, killRep)
	}
	if killRep.Retried == 0 {
		t.Fatal("no submits retried through the outage — was the worker killed at all?")
	}

	// The detection/failover report.
	reports := monitor.Reports()
	if len(reports) != 1 {
		t.Fatalf("monitor ran %d failovers, want 1: %+v", len(reports), reports)
	}
	fo := reports[0]
	if fo.Shard != dead {
		t.Fatalf("failover report for shard %d, want %d", fo.Shard, dead)
	}
	if fo.Err != "" {
		t.Fatalf("failover reported errors: %s", fo.Err)
	}
	if fo.Detection <= 0 || fo.Recovery <= 0 {
		t.Fatalf("degenerate failover timings: %+v", fo)
	}
	if fo.FramesReplayed == 0 {
		t.Fatal("failover replayed nothing; the kill point should sit between snapshots")
	}
	if len(fo.Rehomed) != len(deadKeys) {
		t.Fatalf("rehomed %d keys, want %d (%v)", len(fo.Rehomed), len(deadKeys), fo.Rehomed)
	}

	// Every dead-shard key now lives on the survivor; no slot leaked: the
	// survivor gained exactly one slot per rehomed key.
	for _, k := range deadKeys {
		rt, err := faulty.Route(k)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Shard != survivor {
			t.Fatalf("key %q on shard %d after failover, want %d", k, rt.Shard, survivor)
		}
	}
	if got, want := faulty.SlotsInUse(survivor), survBefore+len(deadKeys); got != want {
		t.Fatalf("survivor has %d slots in use, want %d (slot leak)", got, want)
	}
	if !faulty.Down(dead) {
		t.Fatal("dead shard not marked down")
	}

	// The acceptance bar: every trajectory bit-exact against the
	// uninterrupted baseline — including the keys that crossed the crash.
	for _, key := range keys {
		a, b := baseRep.Traces[key], killRep.Traces[key]
		if len(a) != frames || len(b) != frames {
			t.Fatalf("key %q traces %d/%d, want %d", key, len(a), len(b), frames)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("key %q frame %d: failed-over score %v != baseline %v", key, i, b[i], a[i])
			}
		}
	}
}

// TestFailoverBeforeFirstFrames kills the worker at cam-a's first frame,
// before most keys have sent theirs. Run takes every key's initial
// snapshot before any key's goroutine starts, so each key on the dead
// shard is rehomed from it, and every trajectory still matches an
// uninterrupted fleet's. Without those snapshots a key that had not yet
// sent its first frame kept its dead route, and its submits failed with
// ErrShardDown until Run gave up.
func TestFailoverBeforeFirstFrames(t *testing.T) {
	const seed, nkeys, frames = 11, 8, 12
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
	baseRep, err := shard.Run(ctx, newFleet(t, seed, 2, nkeys+1), sc)
	if err != nil {
		t.Fatal(err)
	}

	faulty := faultFleet(t, seed, 2, nkeys+1, shard.Config{SnapshotEvery: 8})
	rt0, err := faulty.Route(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	monitor := shard.NewHealthMonitor(faulty, shard.HealthConfig{Interval: 20 * time.Millisecond, Timeout: 5 * time.Second, Threshold: 2})
	monitor.Start()
	defer monitor.Stop()
	ksc := sc
	ksc.Kill = &shard.Kill{Shard: rt0.Shard, At: 0}
	killRep, err := shard.Run(ctx, faulty, ksc)
	if err != nil {
		t.Fatal(err)
	}
	if killRep.OK != nkeys*frames {
		t.Fatalf("killed run scored %d of %d frames: %+v", killRep.OK, nkeys*frames, killRep)
	}
	if reports := monitor.Reports(); len(reports) != 1 || reports[0].Err != "" {
		t.Fatalf("want one clean failover, got %+v", reports)
	}
	for _, key := range keys {
		a, b := baseRep.Traces[key], killRep.Traces[key]
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("key %q frame %d: failed-over score %v != baseline %v", key, i, b[i], a[i])
			}
		}
	}
}

// TestFailoverRequiresArming pins the guard: without SnapshotEvery there
// is no cache to recover from, and Failover must refuse rather than
// silently lose streams.
func TestFailoverRequiresArming(t *testing.T) {
	r := newFleet(t, 3, 2, 2)
	if _, err := r.Failover(context.Background(), 0); err == nil {
		t.Fatal("Failover on an unarmed router: want error")
	}
}
