package main

import (
	"io/fs"
	"path/filepath"
	"strings"
)

// metricDef is one line of BENCHMARK.json's end_to_end or per_layer
// list; bench_test.go holds the file to these tables.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// The six gated metrics, the same on every workload. Times are
// calibrated (see refUS); the three ratios are exact counts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.2},
	{"p50_us", "us", "lower", 0.2},
	{"pages_per_op", "pages", "lower", 0.02},
	{"write_bytes_per_user_byte", "ratio", "lower", 0.02},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.02},
}

var perLayer = []metricDef{
	// 1. Counter deltas over the window.
	{name: "storage.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "storage.pool_misses_per_op", unit: "count", better: "lower"},
	{name: "storage.pool_evictions_per_op", unit: "count", better: "lower"},
	{name: "storage.disk_reads_per_op", unit: "count", better: "lower"},
	{name: "storage.disk_writes_per_op", unit: "count", better: "lower"},
	{name: "storage.prefetch_wasted_per_op", unit: "count", better: "lower"},
	{name: "wal.bytes_per_op", unit: "bytes", better: "lower"},
	{name: "wal.appends_per_op", unit: "count", better: "lower"},
	{name: "wal.syncs_per_op", unit: "count", better: "lower"},
	{name: "wal.records_per_group", unit: "count", better: "higher"},
	{name: "executor.tuples_read_per_row", unit: "count", better: "lower"},
	{name: "executor.seqscan_share", unit: "ratio", better: "lower"},
	{name: "executor.lock_wait_us_per_op", unit: "us", better: "lower"},
	{name: "server.queries_per_op", unit: "count", better: "lower"},
	// 2. The layer ladder.
	{name: "ladder.client_exec_us", unit: "us", better: "lower"},
	{name: "ladder.session_exec_us", unit: "us", better: "lower"},
	{name: "ladder.table_select_us", unit: "us", better: "lower"},
	{name: "ladder.plan_select_us", unit: "us", better: "lower"},
	{name: "ladder.select_indexed_us", unit: "us", better: "lower"},
	{name: "ladder.index_scan_us", unit: "us", better: "lower"},
	{name: "ladder.heap_get_us", unit: "us", better: "lower"},
	{name: "ladder.pool_fetch_us", unit: "us", better: "lower"},
	{name: "ladder.table_insert_us", unit: "us", better: "lower"},
	{name: "ladder.wal_group_commit_us", unit: "us", better: "lower"},
	{name: "self.server_us", unit: "us", better: "lower"},
	{name: "self.sqlmini_us", unit: "us", better: "lower"},
	{name: "self.planner_us", unit: "us", better: "lower"},
	{name: "self.executor_us", unit: "us", better: "lower"},
	{name: "self.index_us", unit: "us", better: "lower"},
	{name: "self.heap_us", unit: "us", better: "lower"},
	{name: "self.storage_us", unit: "us", better: "lower"},
	{name: "self.wal_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	// 3. Process, kinds, set-up, space, recovery, raw.
	{name: "proc.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.heap_mb_after_setup", unit: "MB", better: "lower"},
	{name: "kind.exact_p50_us", unit: "us", better: "lower"},
	{name: "kind.prefix_p50_us", unit: "us", better: "lower"},
	{name: "kind.box_p50_us", unit: "us", better: "lower"},
	{name: "kind.knn_p50_us", unit: "us", better: "lower"},
	{name: "kind.insert_p50_us", unit: "us", better: "lower"},
	{name: "kind.update_p50_us", unit: "us", better: "lower"},
	{name: "kind.delete_p50_us", unit: "us", better: "lower"},
	{name: "kind.commit_p50_us", unit: "us", better: "lower"},
	{name: "kind.vacuum_ms", unit: "ms", better: "lower"},
	{name: "kind.analyze_ms", unit: "ms", better: "lower"},
	{name: "kind.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "tail.p99_us", unit: "us", better: "lower"},
	{name: "ops_per_s_mean", unit: "1/s", better: "higher"},
	{name: "setup.load_words_s", unit: "s", better: "lower"},
	{name: "setup.load_pts_s", unit: "s", better: "lower"},
	{name: "setup.load_fresh_s", unit: "s", better: "lower"},
	{name: "setup.analyze_s", unit: "s", better: "lower"},
	{name: "setup.checkpoint_s", unit: "s", better: "lower"},
	{name: "setup.reopen_s", unit: "s", better: "lower"},
	{name: "setup.warmup_s", unit: "s", better: "lower"},
	{name: "space.heap_bytes", unit: "bytes", better: "lower"},
	{name: "space.index_bytes", unit: "bytes", better: "lower"},
	{name: "space.wal_bytes", unit: "bytes", better: "lower"},
	{name: "space.catalog_bytes", unit: "bytes", better: "lower"},
	{name: "space.user_bytes", unit: "bytes", better: "lower"},
	{name: "recovery.reopen_ms", unit: "ms", better: "lower"},
	{name: "raw.ops_per_s", unit: "1/s", better: "higher"},
	{name: "raw.p50_us", unit: "us", better: "lower"},
	{name: "raw.setup_s", unit: "s", better: "lower"},
	{name: "ref.us", unit: "us", better: "lower"},
	{name: "ref.spread", unit: "ratio", better: "lower"},
}

// values maps a metric name to its measured value.
type values map[string]float64

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics derives the per-layer counter ratios from the server's
// counters before and after the window.
func counterMetrics(v values, ws *windowStats) {
	d := func(name string) float64 { return float64(ws.after[name] - ws.before[name]) }
	ops := float64(ws.statements)
	v["pages_per_op"] = d("pool_accesses_total") / ops
	v["storage.pool_hit_ratio"] = ratio(d("pool_hits_total"), d("pool_accesses_total"))
	v["storage.pool_misses_per_op"] = d("pool_misses_total") / ops
	v["storage.pool_evictions_per_op"] = d("pool_evictions_total") / ops
	v["storage.disk_reads_per_op"] = d("disk_reads_total") / ops
	v["storage.disk_writes_per_op"] = d("disk_writes_total") / ops
	v["storage.prefetch_wasted_per_op"] = d("pool_prefetch_wasted_total") / ops
	v["wal.bytes_per_op"] = d("wal_appended_bytes_total") / ops
	v["wal.appends_per_op"] = d("wal_appends_total") / ops
	v["wal.syncs_per_op"] = d("wal_syncs_total") / ops
	v["wal.records_per_group"] = ratio(d("wal_group_records_total"), d("wal_group_commits_total"))
	v["executor.tuples_read_per_row"] = ratio(d("exec_tuples_read_total"), d("exec_rows_returned_total"))
	plans := d("exec_plan_seqscan_total") + d("exec_plan_indexscan_total") + d("exec_plan_nnscan_total")
	v["executor.seqscan_share"] = ratio(d("exec_plan_seqscan_total"), plans)
	v["executor.lock_wait_us_per_op"] = d("exec_lock_wait_ns_total") / 1e3 / ops
	v["server.queries_per_op"] = d("server_queries_total") / ops
}

// windowMetrics derives the timing metrics from the window.
func windowMetrics(v values, w *workload, ws *windowStats) {
	v["ops_per_s"] = 1e6 / median(ws.sliceTypical)
	v["p50_us"] = median(ws.kindP50[w.primary])
	v["raw.ops_per_s"] = 1e6 / median(ws.rawTypical)
	v["raw.p50_us"] = median(ws.rawP50)
	v["ops_per_s_mean"] = 1e6 * float64(ws.statements) / ws.calTotalUS
	v["tail.p99_us"] = quantile(ws.all, 0.99)
	for _, k := range []kind{kExact, kPrefix, kBox, kKNN, kInsert, kUpdate, kDelete} {
		v["kind."+kindNames[k]+"_p50_us"] = median(ws.kindP50[k])
	}
	v["kind.commit_p50_us"] = median(ws.kindAll[kCommit])
	v["kind.vacuum_ms"] = mean(ws.kindAll[kVacuum]) / 1e3
	v["kind.analyze_ms"] = mean(ws.kindAll[kAnalyze]) / 1e3
	v["kind.checkpoint_ms"] = mean(ws.kindAll[kCheckpoint]) / 1e3
	v["ref.us"] = median(ws.blocks)
	v["ref.spread"] = ratio(quantile(ws.blocks, 0.9), quantile(ws.blocks, 0.1))

	ops := float64(ws.statements)
	v["proc.cpu_us_per_op"] = ws.cpuUS / ops
	v["proc.alloc_bytes_per_op"] = float64(ws.allocBytes) / ops
	v["proc.allocs_per_op"] = float64(ws.allocs) / ops
	v["proc.gc_cycles"] = float64(ws.gcCycles)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// spaceMetrics sizes every file of the data directory by what it holds.
func spaceMetrics(v values, dir string, m *model) error {
	var heap, index, walB, other int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".tbl"):
			heap += info.Size()
		case strings.HasSuffix(path, ".idx"):
			index += info.Size()
		case filepath.Base(filepath.Dir(path)) == "wal":
			walB += info.Size()
		default:
			other += info.Size()
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["space.heap_bytes"] = float64(heap)
	v["space.index_bytes"] = float64(index)
	v["space.wal_bytes"] = float64(walB)
	v["space.catalog_bytes"] = float64(other)
	v["space.user_bytes"] = float64(m.liveBytes)
	v["disk_bytes_per_user_byte"] = float64(heap+index+walB+other) / float64(m.liveBytes)
	return nil
}
