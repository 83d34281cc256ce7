package bench

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Cold-cache I/O benchmark (BENCH_9.json): the buffer pool is sized far
// below the table and every page access carries a simulated device
// latency.
//
//   - point lookups, 16 workers: misses on one shard overlap their disk
//     reads through the in-flight table. (The committed BENCH_9.json
//     also records the retired read-under-the-shard-mutex path this
//     replaced, 5.1× slower; that row is history, not a baseline.)
//   - full-table scans: readahead off vs on (prefetcher pipelines the
//     next window of pages while the current one is decoded).
//   - CHECKPOINT after a dirty burst: background writer off vs on (the
//     trickle during think time shrinks the flush the checkpoint pays).
const (
	coldPoolPages     = 32
	coldReadDelay     = 200 * time.Microsecond
	coldWriteDelay    = 200 * time.Microsecond
	coldLookupWorkers = 16
)

// slowDisk is the device model of the measured runs: every data file's
// reads and writes carry the given simulated latency.
func slowDisk(read, write time.Duration) func(string, storage.DiskManager) storage.DiskManager {
	return func(_ string, dm storage.DiskManager) storage.DiskManager {
		return storage.WithLatency(dm, read, write)
	}
}

// buildColdDB creates and populates the on-disk database the cold runs
// reopen. Built with a roomy pool and no simulated latency — only the
// measured runs pay the device model. Stats are persisted by ANALYZE so
// cold reopens plan index scans without resampling the heap.
func buildColdDB(dir string, rows int) {
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncLazy})
	if err != nil {
		panic(err)
	}
	words, err := db.CreateTable("cold_words", []executor.Column{
		{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
	})
	if err != nil {
		panic(err)
	}
	if _, err := db.CreateIndex("cold_words_trie", "cold_words", "name", "spgist", "spgist_trie"); err != nil {
		panic(err)
	}
	batch := make([]catalog.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, catalog.Tuple{
			catalog.NewText(fmt.Sprintf("word%07d", i)), catalog.NewInt(int64(i)),
		})
	}
	if _, err := words.InsertBatch(batch); err != nil {
		panic(err)
	}
	if err := words.Analyze(); err != nil {
		panic(err)
	}
	if err := db.Checkpoint(); err != nil {
		panic(err)
	}
	if err := db.Close(); err != nil {
		panic(err)
	}
}

// coldPointLookups reopens the database cold (pool ≪ table, simulated
// read latency) and hammers exact-match index lookups from concurrent
// workers.
func coldPointLookups(cfg Config, dir string, rows int) []time.Duration {
	db, err := executor.Open(executor.Options{
		Dir: dir, WAL: true, WALSync: wal.SyncLazy,
		PoolPages:      coldPoolPages,
		DiskFaults:     slowDisk(coldReadDelay, 0),
		ReadaheadPages: -1, // isolate the in-flight table from readahead
	})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	words, err := db.Table("cold_words")
	if err != nil {
		panic(err)
	}
	perWorker := cfg.Queries / 2
	if perWorker < 20 {
		perWorker = 20
	}
	parts := make([][]time.Duration, coldLookupWorkers)
	var wg sync.WaitGroup
	for w := 0; w < coldLookupWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			parts[w] = timePerOp(perWorker, func(i int) {
				pred := &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText(fmt.Sprintf("word%07d", rng.Intn(rows)))}
				if _, err := words.Select(pred, func(executor.Row) bool { return true }); err != nil {
					panic(err)
				}
			})
		}(w)
	}
	wg.Wait()
	var all []time.Duration
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// coldScans reopens the database cold and times full-table heap scans,
// with the scan readahead window on or off.
func coldScans(cfg Config, dir string, readahead bool) []time.Duration {
	ra := -1
	if readahead {
		ra = executor.DefaultReadaheadPages
	}
	db, err := executor.Open(executor.Options{
		Dir: dir, WAL: true, WALSync: wal.SyncLazy,
		PoolPages:      coldPoolPages,
		DiskFaults:     slowDisk(coldReadDelay, 0),
		ReadaheadPages: ra,
	})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	words, err := db.Table("cold_words")
	if err != nil {
		panic(err)
	}
	scans := cfg.Queries / 25
	if scans < 6 {
		scans = 6
	}
	return timePerOp(scans, func(i int) {
		n := 0
		if _, err := words.Select(nil, func(executor.Row) bool { n++; return true }); err != nil {
			panic(err)
		}
	})
}

// coldCheckpoints measures CHECKPOINT duration after a burst of inserts
// dirties the pool, with the background writer off or trickling during
// the think-time pause between the burst and the checkpoint. The pause
// is identical in both runs — the only difference is whether anyone
// uses it.
func coldCheckpoints(cfg Config, bgwriter bool) []time.Duration {
	dir, err := os.MkdirTemp("", "spgist-coldckpt-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	opts := executor.Options{
		Dir: dir, WAL: true, WALSync: wal.SyncLazy,
		PoolPages:  512,
		DiskFaults: slowDisk(0, coldWriteDelay),
	}
	if bgwriter {
		opts.BGWriterInterval = 3 * time.Millisecond
		opts.BGWriterMaxPages = 64
	}
	db, err := executor.Open(opts)
	if err != nil {
		panic(err)
	}
	defer db.Close()
	t, err := db.CreateTable("cold_ckpt", []executor.Column{
		{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
	})
	if err != nil {
		panic(err)
	}
	const rounds = 4
	burst := cfg.sizes([]int{8000})[0]
	next := 0
	// Only the CHECKPOINT itself is timed; the burst and the pause are
	// the identical workload both configurations run.
	out := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		batch := make([]catalog.Tuple, 0, burst)
		for j := 0; j < burst; j++ {
			batch = append(batch, catalog.Tuple{
				catalog.NewText(fmt.Sprintf("row%08d", next)), catalog.NewInt(int64(next)),
			})
			next++
		}
		if _, err := t.InsertBatch(batch); err != nil {
			panic(err)
		}
		time.Sleep(150 * time.Millisecond) // think time the trickle can use
		start := time.Now()
		if err := db.Checkpoint(); err != nil {
			panic(err)
		}
		out = append(out, time.Since(start))
	}
	return out
}

// RunColdCacheReport produces the BENCH_9.json payload: cold-cache
// point-lookup throughput and p99 through the in-flight read table,
// full-scan latency with
// readahead off vs on, and CHECKPOINT duration with the background
// writer off vs on.
func RunColdCacheReport(cfg Config) (*LatencyReport, []Figure) {
	cfg = cfg.normalized()
	rows := cfg.sizes([]int{20000})[0]

	dir, err := os.MkdirTemp("", "spgist-coldcache-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	buildColdDB(dir, rows)

	asyncLookups := coldPointLookups(cfg, dir, rows)
	scanOff := coldScans(cfg, dir, false)
	scanOn := coldScans(cfg, dir, true)
	ckptOff := coldCheckpoints(cfg, false)
	ckptOn := coldCheckpoints(cfg, true)

	report := &LatencyReport{
		PR: 9,
		Description: fmt.Sprintf(
			"cold-cache async I/O: %d workers of exact-match lookups over a %d-row trie-indexed table through a %d-page pool with %v simulated read latency (misses overlapped through the in-flight read table), full-table scans with readahead off/on, and CHECKPOINT after a dirty burst with the background writer off/on (%v simulated write latency)",
			coldLookupWorkers, rows, coldPoolPages, coldReadDelay, coldWriteDelay),
		Command: "spgist-bench -exp coldcache -out BENCH_9.json",
		Environment: map[string]string{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"pkg":    "repro/internal/bench",
			"cpu":    fmt.Sprintf("%d logical CPUs", runtime.NumCPU()),
		},
		Workloads: []LatencyRow{
			latencyRow("cold_lookup_inflight", asyncLookups),
			latencyRow("cold_scan_readahead_off", scanOff),
			latencyRow("cold_scan_readahead_on", scanOn),
			latencyRow("checkpoint_bgwriter_off", ckptOff),
			latencyRow("checkpoint_bgwriter_on", ckptOn),
		},
	}

	fig := Figure{
		ID:     "coldcache",
		Title:  "Cold-cache async I/O: overlapped reads, readahead, background writer",
		XLabel: "workload#",
		YLabel: "latency (ms)",
	}
	p50 := Series{Name: "p50 ms"}
	p99 := Series{Name: "p99 ms"}
	ops := Series{Name: "ops/s"}
	for i, row := range report.Workloads {
		x := float64(i)
		p50.X, p50.Y = append(p50.X, x), append(p50.Y, float64(row.P50Ns)/1e6)
		p99.X, p99.Y = append(p99.X, x), append(p99.Y, float64(row.P99Ns)/1e6)
		ops.X, ops.Y = append(ops.X, x), append(ops.Y, row.OpsPerSec)
		fig.Notes = append(fig.Notes, fmt.Sprintf("workload %d = %s (%d ops, %.0f ops/s)", i, row.Name, row.Ops, row.OpsPerSec))
	}
	fig.Series = []Series{p50, p99, ops}
	return report, []Figure{fig}
}

// RunColdCache adapts RunColdCacheReport to the experiment registry.
func RunColdCache(cfg Config) []Figure {
	_, figs := RunColdCacheReport(cfg)
	return figs
}
