package main

// metricDef names one end-to-end metric: what a user of the system would
// see, the direction that is better, and the share of the baseline median
// by which it may worsen before compare() calls it a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
	// gated metrics are the ones BENCHMARK.json lists under end_to_end,
	// which must be defined and non-zero on every workload and steadier
	// than their bound across seeds. The others are reported with the
	// per-layer numbers of a traced run: four apply to some workloads only
	// (or are zero when all is well), and two — p50 latency and CPU per
	// frame — are, in a closed loop that saturates its core, images of
	// frames_per_s (the service time and the CPU time of a frame are both
	// 1 core ÷ rate), so gating them too would triple the exposure to the
	// host's noise and add no information.
	gated   bool
	applies func(w workload) bool
}

func always(workload) bool      { return true }
func onFleet(w workload) bool   { return w.fleet }
func onChurn(w workload) bool   { return w.churn }
func (m metricDef) lower() bool { return m.better == "lower" }

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true, applies: always},
	{name: "frames_per_s", unit: "frames/s", better: "higher", bound: 0.25, gated: true, applies: always},
	{name: "frame_latency_p50_ms", unit: "ms", better: "lower", bound: 0.25, applies: always},
	{name: "cpu_us_per_frame", unit: "us", better: "lower", bound: 0.25, applies: always},
	{name: "allocs_per_frame", unit: "count", better: "lower", bound: 0.02, gated: true, applies: always},
	{name: "alloc_bytes_per_frame", unit: "B", better: "lower", bound: 0.10, gated: true, applies: always},
	{name: "flops_per_frame", unit: "count", better: "lower", bound: 0.20, gated: true, applies: always},
	{name: "resident_bytes_per_stream", unit: "B", better: "lower", bound: 0.02, gated: true, applies: always},
	{name: "served_auc", unit: "AUC", better: "higher", bound: 0.10, gated: true, applies: always},
	{name: "wire_bytes_per_frame", unit: "B", better: "lower", bound: 0.05, applies: onFleet},
	{name: "snapshot_bytes_per_stream", unit: "B", better: "lower", bound: 0.05, applies: onChurn},
	{name: "migrate_p50_ms", unit: "ms", better: "lower", bound: 0.25, applies: onChurn},
	{name: "failed_share", unit: "ratio", better: "lower", bound: 0, applies: always},
}

func findMetric(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// value is one reported number. Timing metrics carry the block summary
// they are the median of.
type value struct {
	Unit  string   `json:"unit"`
	Value float64  `json:"value"`
	Over  *summary `json:"over_blocks,omitempty"`
}

// undisturbed is how a timing metric is reported on a shared box. The
// reference machine slows by up to 2x for seconds at a time when its host
// is busy (bench/README.md has the numbers), so the median over blocks
// says more about the neighbours than about the program. Slow-downs only
// ever add time, so the best block is the steady estimate: xs[i] is block
// i's reading, blocks cycle over `groups` frame sets, and the value is the
// best reading of each set averaged over the sets — every set counts, and
// a block is long enough to contain everything periodic (GC cycles,
// adaptation rounds, snapshot refreshes, migrations). The median and
// quartiles over all blocks ride along for the record.
func undisturbed(unit string, xs []float64, groups int, higher bool) value {
	s := summarize(xs)
	var best []float64
	for g := 0; g < groups && g < len(xs); g++ {
		b := xs[g]
		for i := g; i < len(xs); i += groups {
			if higher == (xs[i] > b) {
				b = xs[i]
			}
		}
		best = append(best, b)
	}
	return value{Unit: unit, Value: mean(best), Over: &s}
}

// steadyRate reports a rate from per-block times per item: the steady
// time per item (undisturbed, lower is better) inverted, so that pieces of
// work of different cost weigh by the time they take.
func steadyRate(unit string, nsPerItem []float64, groups int) value {
	t := undisturbed("", nsPerItem, groups, false)
	rates := make([]float64, len(nsPerItem))
	for i, ns := range nsPerItem {
		rates[i] = 1e9 / ns
	}
	s := summarize(rates)
	return value{Unit: unit, Value: 1e9 / t.Value, Over: &s}
}

// layerDef names one per-layer metric of the traced run. Layers are this
// repository's packages; autograd, nn and optim are measured through
// their callers gnn, temporal and core.
type layerDef struct{ name, unit, better string }

var layerDefs = []layerDef{
	// tensor / parallel: the kernels under everything.
	{"tensor.matmul_quick_us", "us", "lower"},
	{"tensor.matmul_full_us", "us", "lower"},
	{"tensor.matmul_full_gflops", "GFLOP/s", "higher"},
	{"parallel.for_dispatch_us", "us", "lower"},
	// One frame's scoring, stage by stage, at the workload's model scale.
	{"embed.encode_us", "us", "lower"},
	{"gnn.forward_us", "us", "lower"},
	{"gnn.forward_flops", "count", "lower"},
	{"temporal.forward_us", "us", "lower"},
	{"temporal.forward_flops", "count", "lower"},
	{"decision.probs_us", "us", "lower"},
	{"core.score_frame_us", "us", "lower"},
	{"core.score_frame_allocs", "count", "lower"},
	{"core.score_frame_flops", "count", "lower"},
	{"core.score_frame_f32_us", "us", "lower"},
	{"core.glue_self_us", "us", "lower"},
	{"core.score_video24_us", "us", "lower"},
	{"core.monitor_push_us", "us", "lower"},
	// Adaptation and training, quick scale.
	{"core.adapter_step_ms", "ms", "lower"},
	{"core.adapter_step_flops", "count", "lower"},
	{"core.adapter_step_allocs", "count", "lower"},
	{"core.adapter_idle_us", "us", "lower"},
	{"core.clone_cow_us", "us", "lower"},
	{"core.monitor_clone_us", "us", "lower"},
	{"core.train_step_ms", "ms", "lower"},
	{"kg.replace_node_us", "us", "lower"},
	{"kg.marshal_us", "us", "lower"},
	{"kggen.generate_ms", "ms", "lower"},
	// The socket-to-score chain, depth 1 (core.score_frame_us) to 6, and
	// each depth's self time.
	{"serve.process_us", "us", "lower"},
	{"serve.process_self_us", "us", "lower"},
	{"serve.roundtrip_us", "us", "lower"},
	{"serve.queue_self_us", "us", "lower"},
	{"netserve.handler_us", "us", "lower"},
	{"netserve.codec_self_us", "us", "lower"},
	{"netserve.client_rtt_us", "us", "lower"},
	{"netserve.transport_self_us", "us", "lower"},
	{"shard.submit_us", "us", "lower"},
	{"shard.route_self_us", "us", "lower"},
	{"netserve.request_bytes", "B", "lower"},
	{"netserve.reply_bytes", "B", "lower"},
	{"serve.frame_latency_p99_ms", "ms", "lower"},
	{"shard.frame_latency_p99_ms", "ms", "lower"},
	// Stream state written, moved and reloaded.
	{"serve.deploy_ms", "ms", "lower"},
	{"serve.export_ms", "ms", "lower"},
	{"serve.restore_ms", "ms", "lower"},
	{"serve.evict_ms", "ms", "lower"},
	{"serve.rehydrate_ms", "ms", "lower"},
	{"snapshot.encode_ms", "ms", "lower"},
	{"snapshot.decode_ms", "ms", "lower"},
	{"snapshot.stream_bytes", "B", "lower"},
	{"snapshot.save_ms", "ms", "lower"},
	{"snapshot.load_ms", "ms", "lower"},
	{"netserve.export_rtt_ms", "ms", "lower"},
	{"netserve.restore_rtt_ms", "ms", "lower"},
	{"shard.refresh_extra_us", "us", "lower"},
	// What the streams of an adapt_shift run did (counts repeat exactly)
	// and the same episodes with the KG held static.
	{"serve.adapt_rounds", "count", "lower"},
	{"serve.triggered_rounds", "count", "lower"},
	{"serve.pruned_nodes", "count", "lower"},
	{"serve.created_nodes", "count", "lower"},
	{"serve.adaptive_arm_frames_per_s", "frames/s", "higher"},
	{"serve.adaptive_arm_auc", "AUC", "higher"},
	{"serve.static_arm_frames_per_s", "frames/s", "higher"},
	{"serve.static_arm_auc", "AUC", "higher"},
	// Refusals, and what the harness itself costs.
	{"netserve.busy_429", "count", "lower"},
	{"shard.shed", "count", "lower"},
	{"flops.meter_overhead_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	// End-to-end metrics that BENCHMARK.json does not gate (see metricDef),
	// from the workload's own single-client drive; 0 where they do not
	// apply.
	{"frame_latency_p50_ms", "ms", "lower"},
	{"cpu_us_per_frame", "us", "lower"},
	{"wire_bytes_per_frame", "B", "lower"},
	{"snapshot_bytes_per_stream", "B", "lower"},
	{"migrate_p50_ms", "ms", "lower"},
	{"failed_share", "ratio", "lower"},
}

var layerNames = func() []string {
	names := make([]string, len(layerDefs))
	for i, d := range layerDefs {
		names[i] = d.name
	}
	return names
}()
