package serve

import (
	"bufio"
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"fesia/internal/core"
	"fesia/internal/planner"
	"fesia/internal/stats"
)

// TestExpositionPinned pins the full set of /metrics series names and expvar
// keys a 2-shard tier exposes with stats, the learned planner and tracing
// all on. Dashboards and alerts key on these names; any change to them must
// be deliberate and show up here.
func TestExpositionPinned(t *testing.T) {
	core.EnableStats(stats.New())
	defer core.EnableStats(nil)
	core.EnablePlanner(planner.New(planner.WithSampleEvery(1)))
	defer core.EnablePlanner(nil)

	tier, _ := traceTier(t, 2, Config{TraceSample: 1, SlowQuery: time.Hour})
	for i := 0; i < 32; i++ {
		for _, items := range [][]uint32{{1, 3}, {2, 5, 9}} {
			if _, err := tier.QueryCount(context.Background(), items...); err != nil {
				t.Fatalf("query %v: %v", items, err)
			}
		}
	}
	snap := tier.Stats()

	var buf bytes.Buffer
	if err := stats.WritePrometheus(&buf, &snap); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	// Every sample line's series identity (name plus label set), except the
	// families whose label values are data — kernel sizes, latency buckets,
	// trace IDs, planner cells, the ISA backend — which pin by name only.
	dynamic := []string{
		"fesia_build_info", "fesia_kernel_dispatch_total", "fesia_query_latency_seconds_bucket",
		"fesia_serve_latency_exemplar", "fesia_planner_cost_ns_per_unit",
	}
	var series []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		id := line[:strings.LastIndexByte(line, ' ')]
		if name, _, ok := strings.Cut(id, "{"); ok && slices.Contains(dynamic, name) {
			id = name
		}
		series = append(series, id)
	}
	slices.Sort(series)
	series = slices.Compact(series)
	wantSeries := []string{
		`fesia_batch_candidates_total`,
		`fesia_build_info`,
		`fesia_hash_probe_survivors_total`,
		`fesia_hash_probes_total`,
		`fesia_kernel_dispatch_total`,
		`fesia_planner_cost_ns_per_unit`,
		`fesia_planner_decisions_total{decision="array_dense",arm="probe_from_array"}`,
		`fesia_planner_decisions_total{decision="array_dense",arm="probe_from_dense"}`,
		`fesia_planner_decisions_total{decision="seg_dense",arm="probe_from_dense"}`,
		`fesia_planner_decisions_total{decision="seg_dense",arm="probe_from_seg"}`,
		`fesia_planner_decisions_total{decision="seg_seg",arm="hash"}`,
		`fesia_planner_decisions_total{decision="seg_seg",arm="merge"}`,
		`fesia_planner_explored_total`,
		`fesia_planner_info{mode="learned"}`,
		`fesia_planner_overrides_total`,
		`fesia_planner_refits_total`,
		`fesia_pool_do_done_total`,
		`fesia_pool_do_total`,
		`fesia_pool_inflight`,
		`fesia_pool_parts_total{mode="inline"}`,
		`fesia_pool_parts_total{mode="pooled"}`,
		`fesia_pool_task_panics_total`,
		`fesia_queries_total{strategy="batch"}`,
		`fesia_queries_total{strategy="cross"}`,
		`fesia_queries_total{strategy="hash"}`,
		`fesia_queries_total{strategy="kway"}`,
		`fesia_queries_total{strategy="merge"}`,
		`fesia_query_cancellations_total`,
		`fesia_query_latency_seconds_bucket`,
		`fesia_query_latency_seconds_count{strategy="batch"}`,
		`fesia_query_latency_seconds_count{strategy="cross"}`,
		`fesia_query_latency_seconds_count{strategy="hash"}`,
		`fesia_query_latency_seconds_count{strategy="kway"}`,
		`fesia_query_latency_seconds_count{strategy="merge"}`,
		`fesia_query_latency_seconds_count{strategy="serve"}`,
		`fesia_query_latency_seconds_sum{strategy="batch"}`,
		`fesia_query_latency_seconds_sum{strategy="cross"}`,
		`fesia_query_latency_seconds_sum{strategy="hash"}`,
		`fesia_query_latency_seconds_sum{strategy="kway"}`,
		`fesia_query_latency_seconds_sum{strategy="merge"}`,
		`fesia_query_latency_seconds_sum{strategy="serve"}`,
		`fesia_rep_dispatch_total{pair="array_array"}`,
		`fesia_rep_dispatch_total{pair="array_dense"}`,
		`fesia_rep_dispatch_total{pair="dense_dense"}`,
		`fesia_rep_dispatch_total{pair="seg_array"}`,
		`fesia_rep_dispatch_total{pair="seg_dense"}`,
		`fesia_rep_dispatch_total{pair="seg_seg"}`,
		`fesia_segment_pairs_total`,
		`fesia_segments_scanned_total`,
		`fesia_serve_deadline_expiries_total`,
		`fesia_serve_latency_exemplar`,
		`fesia_serve_queue_depth`,
		`fesia_serve_queue_events_total{event="enter"}`,
		`fesia_serve_queue_events_total{event="exit"}`,
		`fesia_serve_rejections_total{reason="queue_full"}`,
		`fesia_serve_rejections_total{reason="queue_wait"}`,
		`fesia_serve_requests_total{outcome="admitted"}`,
		`fesia_serve_requests_total{outcome="rejected"}`,
		`fesia_serve_requests_total{outcome="shed"}`,
		`fesia_serve_shard_errors_total{shard="0"}`,
		`fesia_serve_shard_errors_total{shard="1"}`,
		`fesia_serve_shard_inflight{shard="0"}`,
		`fesia_serve_shard_inflight{shard="1"}`,
		`fesia_serve_shard_latency_seconds_sum{shard="0"}`,
		`fesia_serve_shard_latency_seconds_sum{shard="1"}`,
		`fesia_serve_shard_p99_seconds{shard="0"}`,
		`fesia_serve_shard_p99_seconds{shard="1"}`,
		`fesia_serve_shard_queries_total{shard="0"}`,
		`fesia_serve_shard_queries_total{shard="1"}`,
		`fesia_serve_swaps_total{outcome="error"}`,
		`fesia_serve_swaps_total{outcome="ok"}`,
		`fesia_sets_built_total{rep="array"}`,
		`fesia_sets_built_total{rep="dense"}`,
		`fesia_sets_built_total{rep="segmented"}`,
		`fesia_snapshot_ops_total{op="read",outcome="error"}`,
		`fesia_snapshot_ops_total{op="read",outcome="ok"}`,
		`fesia_snapshot_ops_total{op="write",outcome="error"}`,
		`fesia_snapshot_ops_total{op="write",outcome="ok"}`,
		`fesia_trace_captured_total{reason="forced"}`,
		`fesia_trace_captured_total{reason="sampled"}`,
		`fesia_trace_captured_total{reason="slow"}`,
	}
	if !slices.Equal(series, wantSeries) {
		t.Errorf("/metrics series changed:\n got %q\nwant %q", series, wantSeries)
	}

	m := snap.Map()
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	rows, _ := m["serve_shards"].([]map[string]any)
	for _, r := range rows[:1] {
		for k := range r {
			keys = append(keys, "serve_shards[]."+k)
		}
	}
	slices.Sort(keys)
	wantKeys := []string{
		`batch_candidates`,
		`build_array`,
		`build_dense`,
		`build_segmented`,
		`dispatch_array_array`,
		`dispatch_array_dense`,
		`dispatch_dense_dense`,
		`dispatch_seg_array`,
		`dispatch_seg_dense`,
		`dispatch_seg_seg`,
		`hash_probe_survivors`,
		`hash_probes`,
		`kernel_dispatch`,
		`latency`,
		`plan_arraydense_from_array`,
		`plan_arraydense_from_dense`,
		`plan_explored`,
		`plan_overrides`,
		`plan_segdense_from_dense`,
		`plan_segdense_from_seg`,
		`plan_segseg_hash`,
		`plan_segseg_merge`,
		`pool_do`,
		`pool_do_done`,
		`pool_inflight`,
		`pool_parts_inline`,
		`pool_parts_pooled`,
		`pool_task_panics`,
		`queries_batch`,
		`queries_cross`,
		`queries_hash`,
		`queries_kway`,
		`queries_merge`,
		`query_cancellations`,
		`segment_pairs`,
		`segments_scanned`,
		`serve_admitted`,
		`serve_deadline_expiries`,
		`serve_exemplars`,
		`serve_queue_depth`,
		`serve_queue_enter`,
		`serve_queue_exit`,
		`serve_rejected`,
		`serve_rejected_queue_full`,
		`serve_rejected_queue_wait`,
		`serve_shards`,
		`serve_shards[].errors`,
		`serve_shards[].inflight`,
		`serve_shards[].mean_ns`,
		`serve_shards[].p99_ns`,
		`serve_shards[].queries`,
		`serve_shards[].shard`,
		`serve_shed`,
		`serve_swap_errors`,
		`serve_swaps`,
		`snapshot_read_errors`,
		`snapshot_reads`,
		`snapshot_write_errors`,
		`snapshot_writes`,
		`trace_forced`,
		`trace_sampled`,
		`trace_slow`,
	}
	if !slices.Equal(keys, wantKeys) {
		t.Errorf("expvar keys changed:\n got %q\nwant %q", keys, wantKeys)
	}
}
