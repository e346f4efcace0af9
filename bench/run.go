package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"edgekg/internal/flops"
	"edgekg/internal/metrics"
	"edgekg/internal/serve"
	"edgekg/internal/shard"
)

// runOpts is one run's knobs.
type runOpts struct {
	seed    int64
	seconds int
	smoke   bool
	// clients is the closed-loop driver count: drivers for end-to-end
	// runs, 1 for the traced run.
	clients int
	// setups, when non-zero, overrides how many times the whole set-up is
	// performed (workload.setups).
	setups int
	// blocks, when non-zero, overrides the measured block count that
	// -seconds implies (the traced run drives a few blocks only).
	blocks int
	// model, when set, is a backbone already built at the workload's scale:
	// set-up deploys over it and setup_s no longer includes training (the
	// traced run's drives reuse one model; end-to-end runs never set it).
	model *model
	tr    *tracer
}

// checkResult is one output check's verdict.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// adaptCounts are the adaptation events a run's streams report; on the
// same frames they must repeat exactly.
type adaptCounts struct {
	Rounds, Triggered, Pruned, Created int
}

func (c *adaptCounts) add(o adaptCounts) {
	c.Rounds += o.Rounds
	c.Triggered += o.Triggered
	c.Pruned += o.Pruned
	c.Created += o.Created
}

// tally folds the cameras' stream statistics into their adaptation
// counts and mean resident bytes.
func tally(st []serve.Stats) (c adaptCounts, residentPerStream float64) {
	for _, s := range st {
		c.add(adaptCounts{s.AdaptRounds, s.TriggeredRounds, s.PrunedNodes, s.CreatedNodes})
		residentPerStream += float64(s.ResidentBytes) / float64(len(st))
	}
	return c, residentPerStream
}

// wlResult is everything one workload run produced.
type wlResult struct {
	Workload    string           `json:"workload"`
	Blocks      int              `json:"blocks"`
	BlockFrames int              `json:"block_frames"`
	Clients     int              `json:"clients"`
	Values      map[string]value `json:"metrics"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	// Shed counts frames refused by admission control (a subset of
	// Failed); RouterShed is the share the shard router dropped itself.
	Shed       int           `json:"shed"`
	RouterShed int64         `json:"router_shed"`
	Checks     []checkResult `json:"checks"`
	// SetHashes is the score-trace hash of each measured frame set and
	// Counts the adaptation events behind it.
	SetHashes []string      `json:"set_hashes"`
	Counts    []adaptCounts `json:"adapt_counts,omitempty"`
	// Tail latency is recorded, not gated: the highest percentile with at
	// least ten samples beyond it, over every measured frame.
	TailPct float64 `json:"latency_tail_percentile"`
	TailMs  float64 `json:"latency_tail_ms"`
	TailN   int     `json:"latency_tail_samples"`

	firstScores [][]float64 // scores of the first block (cross-path checks)
	firstSet    *frameSet
}

func (r *wlResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *wlResult) check(name string, ok bool, format string, args ...any) {
	c := checkResult{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// slotsOnly stands in for a worker when only slot arithmetic is needed.
type slotsOnly struct {
	shard.Backend
	n int
}

func (s slotsOnly) Slots() int { return s.n }

// plannedHomes asks a router over stand-in workers where each camera's
// key hashes, so the slot budget can be checked before anything deploys.
func plannedHomes(slots int) ([]int, error) {
	router, err := shard.New([]shard.Backend{slotsOnly{n: slots}, slotsOnly{n: slots}}, shard.Config{})
	if err != nil {
		return nil, err
	}
	homes := make([]int, cameras)
	for c := range homes {
		rt, err := router.Route(fmt.Sprintf("cam-%d", c))
		if err != nil {
			return nil, err
		}
		homes[c] = rt.Shard
	}
	return homes, nil
}

// setUp performs one complete set-up — substrate, KG generation,
// training, deployment, fleet bring-up — through the first scored frame,
// and returns how long that took.
func (w workload) setUp(o runOpts) (*model, *rig, time.Duration, error) {
	t0 := time.Now()
	m := o.model
	if m == nil {
		var err error
		if m, err = buildModel(w.scale(o.smoke)); err != nil {
			return nil, nil, 0, err
		}
	}
	snap := 0
	if w.churn {
		snap = snapshotEvery
	}
	r, err := w.deploy(m, snap, o.tr)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := r.probe(m); err != nil {
		r.close()
		return nil, nil, 0, err
	}
	return m, r, time.Since(t0), nil
}

// probe scores the bring-up frame on camera 0: a deployment is up once a
// frame has come back scored. Every deployment whose trajectory is later
// compared takes the same probe, so it never shows as a difference.
func (r *rig) probe(m *model) error {
	pix := m.env.Gen.Frame(rand.New(rand.NewSource(quickBackboneSeed)), mission)
	_, err := r.submit(context.Background(), 0, frame{pix: pix, data: pix.Data()})
	return err
}

// shiftWindows are the per-camera index ranges served_auc is taken over
// on a trend-shift feed: the second half of each post-shift phase, where
// an adapting detector has had time to follow the trend.
func shiftWindows(perCam int) [][2]int {
	a, b := perCam/3, 2*(perCam/3)
	return [][2]int{{a + (b-a)/2, b}, {b + (perCam-b)/2, perCam}}
}

// pooledAUC is metrics.AUC over the given index ranges of every camera.
func pooledAUC(fs *frameSet, scores [][]float64, windows [][2]int) (float64, error) {
	var s []float64
	var l []bool
	for c := range scores {
		for _, win := range windows {
			s = append(s, scores[c][win[0]:win[1]]...)
			l = append(l, fs.labels[c][win[0]:win[1]]...)
		}
	}
	return metrics.AUC(s, l)
}

func scoresValid(scores [][]float64) (bad int) {
	for _, cam := range scores {
		for _, s := range cam {
			if math.IsNaN(s) || s < 0 || s > 1 {
				bad++
			}
		}
	}
	return bad
}

func sameScores(a, b [][]float64, n int) (diff int) {
	for c := range a {
		for i := 0; i < n; i++ {
			if math.Float64bits(a[c][i]) != math.Float64bits(b[c][i]) {
				diff++
			}
		}
	}
	return diff
}

// runWorkload is one full run: set-up, one warm-up block, the measured
// blocks, the counted blocks, the end-of-run reads and the output checks.
func runWorkload(w workload, o runOpts) (*wlResult, error) {
	w, blocks := w.sized(o.seconds, o.smoke)
	if o.blocks > 0 {
		blocks = o.blocks
	}
	res := &wlResult{Workload: w.name, Blocks: blocks, BlockFrames: w.perCam * cameras, Clients: o.clients, Values: map[string]value{}}
	ctx := context.Background()

	if w.churn {
		homes, err := plannedHomes(w.slots)
		if err != nil {
			return nil, err
		}
		// warm-up + measured + counted blocks
		if err := w.checkSlots(homes, w.warmPerCam+(blocks+w.countedBlocks())*w.perCam); err != nil {
			return nil, err
		}
	}

	// Set-up, several times over: the larger half before the run (the last
	// of those deployments is the one measured) and the rest after it, so
	// that a slow stretch of the host shorter than the run cannot cover
	// them all.
	var m *model
	var r *rig
	var setupS []float64
	setups := w.setups()
	if o.setups > 0 {
		setups = o.setups
	}
	for k := 0; k < (setups+1)/2; k++ {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if m, r, d, err = w.setUp(o); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	if w.episodic {
		r.close()
		r = nil
	}
	defer func() {
		if r != nil {
			r.close()
		}
	}()

	warm, sets, err := w.genSets(m.env.Gen, o.seed)
	if err != nil {
		return nil, err
	}

	// serve drives one frame set. On a long-lived deployment that is one
	// block. An episodic workload deploys a fresh stack, serves the set in
	// w.parts consecutive blocks and tears the stack down; the first part's
	// clock starts before the deployment and the last one's stops after the
	// teardown, because a deployment in the field pays both once per trend
	// it lives through. Timing an episode part by part is what lets the
	// steady estimate find an undisturbed reading of every part even when
	// no whole episode ran undisturbed.
	type outcome struct {
		rec      *blockRec   // the whole set
		parts    []*blockRec // what was timed
		stats    adaptCounts
		resident float64
	}
	serve := func(fs *frameSet, base int) (outcome, error) {
		if !w.episodic {
			rec := r.runBlock(ctx, fs, base, o.clients, o.tr)
			return outcome{rec: rec, parts: []*blockRec{rec}}, nil
		}
		t, c := now(), cpuNs()
		rr, err := w.deploy(m, 0, o.tr)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{rec: &blockRec{scores: make([][]float64, cameras)}}
		per := fs.perCam() / w.parts
		for j := 0; j < w.parts; j++ {
			rec := rr.runBlock(ctx, fs.slice(j*per, (j+1)*per), j*per, o.clients, o.tr)
			if j == w.parts-1 {
				st, err := rr.streamStats()
				rr.close()
				if err != nil {
					return out, err
				}
				out.stats, out.resident = tally(st)
			}
			t1, c1 := now(), cpuNs()
			rec.wallNs, rec.cpuNs = t1-t, c1-c
			t, c = t1, c1
			out.parts = append(out.parts, rec)
			out.rec.merge(rec)
		}
		return out, nil
	}

	// Warm-up block.
	first := sets[0]
	if warm != nil {
		first = warm
	}
	base := 0
	var wo outcome
	warmOps, _ := flops.Count(func() { wo, err = serve(first, base) })
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	if wo.rec.firstErr != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, wo.rec.firstErr)
	}
	res.firstScores, res.firstSet = wo.rec.scores, first
	res.Attempted, res.Failed, res.Shed = wo.rec.frames, wo.rec.failed, wo.rec.shed
	badScores := scoresValid(wo.rec.scores)
	if !w.episodic {
		base += first.perCam()
	}

	// Measured phase.
	var nsPerFrame, latP50, cpuUs, allLat, migrate []float64
	setHash := make([]uint64, cycleSets)
	setSeen := make([]bool, cycleSets)
	setCounts := make([]adaptCounts, cycleSets)
	setScores := make([][][]float64, cycleSets)
	var residentEp []float64
	repeatOK, repeatDetail := true, ""
	var firstErr error
	var ms0, ms1 runtime.MemStats
	var wire0 int64
	var exp0n int
	var exp0b int64
	if r != nil {
		wire0 = r.wireBytes()
		exp0n, exp0b = r.exported()
	}
	runtime.ReadMemStats(&ms0)
	frames := 0
	for b := 0; b < blocks; b++ {
		k := b % cycleSets
		out, err := serve(sets[k], base)
		if err != nil {
			return nil, fmt.Errorf("%s: block %d: %w", w.name, b, err)
		}
		rec := out.rec
		if w.episodic {
			residentEp = append(residentEp, out.resident)
		} else {
			base += w.perCam
		}
		frames += rec.frames
		res.Failed += rec.failed
		res.Shed += rec.shed
		if firstErr == nil {
			firstErr = rec.firstErr
		}
		for _, p := range out.parts {
			nsPerFrame = append(nsPerFrame, float64(p.wallNs)/float64(p.frames))
			latP50 = append(latP50, p.latP50Ms())
			cpuUs = append(cpuUs, p.cpuUsPerFrame())
		}
		allLat = append(allLat, rec.latNs...)
		migrate = append(migrate, rec.migrateNs...)
		badScores += scoresValid(rec.scores)
		h := rec.traceHash()
		switch {
		case !setSeen[k]:
			setSeen[k], setHash[k], setCounts[k], setScores[k] = true, h, out.stats, rec.scores
		case !w.churn && (h != setHash[k] || out.stats != setCounts[k]):
			// Static streams score each frame on its own and episodes start
			// from an identical deployment, so a repeated set must repeat
			// exactly; state_churn's streams carry adapted state forward.
			repeatOK = false
			repeatDetail = fmt.Sprintf("block %d on set %d: trace %016x counts %+v, first seen %016x %+v", b, k, h, out.stats, setHash[k], setCounts[k])
		}
	}
	runtime.ReadMemStats(&ms1)
	res.Attempted += frames
	nf := float64(frames)
	// Blocks cycle over the sets and, within an episode, over its parts:
	// that many distinct pieces of work repeat through the run.
	groups := cycleSets * len(nsPerFrame) / blocks
	res.Values["frames_per_s"] = steadyRate("frames/s", nsPerFrame, groups)
	res.Values["frame_latency_p50_ms"] = undisturbed("ms", latP50, groups, false)
	res.Values["cpu_us_per_frame"] = undisturbed("us", cpuUs, groups, false)
	res.Values["allocs_per_frame"] = value{Unit: "count", Value: float64(ms1.Mallocs-ms0.Mallocs) / nf}
	res.Values["alloc_bytes_per_frame"] = value{Unit: "B", Value: float64(ms1.TotalAlloc-ms0.TotalAlloc) / nf}
	if w.fleet {
		res.Values["wire_bytes_per_frame"] = value{Unit: "B", Value: float64(r.wireBytes()-wire0) / nf}
	}
	if w.churn {
		n, by := r.exported()
		if n > exp0n {
			res.Values["snapshot_bytes_per_stream"] = value{Unit: "B", Value: float64(by-exp0b) / float64(n-exp0n)}
		}
		for i := range migrate {
			migrate[i] /= 1e6
		}
		// The median migration of the least disturbed stretch of the run.
		ms := summarize(migrate)
		res.Values["migrate_p50_ms"] = value{Unit: "ms", Value: steadyMedian(migrate), Over: &ms}
	}
	sorted := sortedCopy(allLat)
	if p := tailPercentile(len(sorted)); p > 0 {
		res.TailPct, res.TailMs, res.TailN = p, percentile(sorted, p)/1e6, len(sorted)
	}
	for k := range setHash {
		if setSeen[k] {
			res.SetHashes = append(res.SetHashes, fmt.Sprintf("%016x", setHash[k]))
			if w.episodic {
				res.Counts = append(res.Counts, setCounts[k])
			}
		}
	}

	// Separate counted blocks over every frame set: FLOPs per frame,
	// untimed. (Adaptation makes the count depend on the frames — a
	// triggered round costs about 80 frames' worth — so every set is
	// counted, and a long-lived deployment's sets twice. A warm-up episode
	// of its own is counted too: it is where state_churn's streams adapt,
	// and the settled blocks alone hold too few triggered rounds for their
	// number to repeat from seed to seed.)
	var cerr error
	countedFrames := 0
	ops, _ := flops.Count(func() {
		for k := 0; k < w.countedBlocks() && cerr == nil; k++ {
			var out outcome
			if out, cerr = serve(sets[k%cycleSets], base); cerr != nil {
				return
			}
			if !w.episodic {
				base += w.perCam
			}
			countedFrames += out.rec.frames
			res.Failed += out.rec.failed
			res.Shed += out.rec.shed
			if firstErr == nil {
				firstErr = out.rec.firstErr
			}
		}
	})
	if cerr != nil {
		return nil, fmt.Errorf("%s: counted block: %w", w.name, cerr)
	}
	res.Attempted += countedFrames
	if r != nil && r.router != nil {
		res.RouterShed = r.router.Shed()
	}
	if warm != nil {
		ops, countedFrames = ops+warmOps, countedFrames+warm.total()
	}
	res.Values["flops_per_frame"] = value{Unit: "count", Value: float64(ops) / float64(countedFrames)}
	res.Values["failed_share"] = value{Unit: "ratio", Value: float64(res.Failed) / float64(res.Attempted)}

	// End-of-run resident bytes.
	if w.episodic {
		res.Values["resident_bytes_per_stream"] = value{Unit: "B", Value: mean(residentEp[:min(len(residentEp), cycleSets)])}
	} else {
		st, err := r.streamStats()
		if err != nil {
			return nil, fmt.Errorf("%s: stream stats: %w", w.name, err)
		}
		c, resident := tally(st)
		res.Values["resident_bytes_per_stream"] = value{Unit: "B", Value: resident}
		if w.adaptive {
			res.Counts = []adaptCounts{c}
		}
	}

	// served_auc and the output checks.
	res.check("no_failed_frames", res.Failed == 0 && firstErr == nil, "%d of %d frames failed; first error: %v", res.Failed, res.Attempted, firstErr)
	res.check("scores_in_unit_interval", badScores == 0, "%d scores were NaN or outside [0,1]", badScores)
	var aucs []float64
	switch {
	case w.churn:
		a, err := pooledAUC(warm, res.firstScores, shiftWindows(warm.perCam()))
		if err != nil {
			return nil, err
		}
		aucs = append(aucs, a)
	default:
		windows := [][2]int{{0, w.perCam}}
		if w.shifts {
			windows = shiftWindows(w.perCam)
		}
		for k, sc := range setScores {
			if sc == nil {
				continue
			}
			a, err := pooledAUC(sets[k], sc, windows)
			if err != nil {
				return nil, err
			}
			aucs = append(aucs, a)
		}
	}
	res.Values["served_auc"] = value{Unit: "AUC", Value: mean(aucs)}
	if !w.churn {
		res.check("repeated_set_repeats_exactly", repeatOK, "%s", repeatDetail)
	}
	if w.shifts || w.churn {
		// Before the first shift the deployed detector faces the class it
		// was trained for.
		fs, sc := sets[0], setScores[0]
		if w.churn {
			fs, sc = warm, res.firstScores
		}
		a, err := pooledAUC(fs, sc, [][2]int{{0, fs.perCam() / 3}})
		if err != nil {
			return nil, err
		}
		res.check("first_phase_auc", a >= 0.9, "first-phase served AUC %.4f, want ≥ 0.9", a)
	}
	if w.churn {
		if err := res.checkChurnPrefix(w, m, warm, o); err != nil {
			return nil, err
		}
	}
	if w.fleet && !w.adaptive {
		if err := res.checkAgainstInProcess(m, o); err != nil {
			return nil, err
		}
	}

	// The remaining set-ups, with the measured deployment out of the way.
	if r != nil {
		r.close()
		r = nil
	}
	for len(setupS) < setups {
		_, rr, d, err := w.setUp(o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rr.close()
		setupS = append(setupS, d.Seconds())
	}
	res.Values["setup_s"] = undisturbed("s", setupS, 1, false)
	return res, nil
}

// checkChurnPrefix replays the head of the warm-up episode on a fleet
// with no migration and no failover snapshots: state movement must be
// invisible in the scores.
func (res *wlResult) checkChurnPrefix(w workload, m *model, warm *frameSet, o runOpts) error {
	n := min(256, warm.perCam())
	ref := w
	ref.churn, ref.migrateEvery, ref.slots = false, 0, cameras
	rr, err := ref.deploy(m, 0, nil)
	if err != nil {
		return err
	}
	defer rr.close()
	if err := rr.probe(m); err != nil {
		return err
	}
	head := &frameSet{frames: make([][]frame, cameras), labels: warm.labels}
	for c := range head.frames {
		head.frames[c] = warm.frames[c][:n]
	}
	rec := rr.runBlock(context.Background(), head, 0, o.clients, nil)
	if rec.firstErr != nil {
		return fmt.Errorf("state_churn reference fleet: %w", rec.firstErr)
	}
	diff := sameScores(res.firstScores, rec.scores, n)
	res.check("churn_prefix_matches_unmoved_fleet", diff == 0, "%d of %d scores differ from the fleet run without migration or snapshots", diff, n*cameras)
	return nil
}

// checkAgainstInProcess scores net_fleet's first block in-process: the
// network tier must not change a single bit of a static stream's scores.
func (res *wlResult) checkAgainstInProcess(m *model, o runOpts) error {
	local, _ := findWorkload("score_quick")
	rr, err := local.deploy(m, 0, nil)
	if err != nil {
		return err
	}
	defer rr.close()
	rec := rr.runBlock(context.Background(), res.firstSet, 0, o.clients, nil)
	if rec.firstErr != nil {
		return fmt.Errorf("in-process reference: %w", rec.firstErr)
	}
	n := res.firstSet.perCam()
	diff := sameScores(res.firstScores, rec.scores, n)
	res.check("fleet_scores_match_in_process", diff == 0, "%d of %d scores differ from the in-process path on the same frames", diff, n*cameras)
	return nil
}
