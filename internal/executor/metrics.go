package executor

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// execMetrics holds the executor's cumulative counters — the pg_stat
// layer of this engine. Every field is registered in one obs.Registry
// at Open and bumped directly (one atomic add) on its path; the
// storage, disk, and WAL counters, which live in their own components,
// join the registry's readout through a cold sampler callback instead
// of a second hot-path increment.
type execMetrics struct {
	reg *obs.Registry

	stmtSelect *obs.Counter
	stmtNN     *obs.Counter
	stmtInsert *obs.Counter
	stmtDelete *obs.Counter
	stmtUpdate *obs.Counter

	txnBegin    *obs.Counter
	txnCommit   *obs.Counter
	txnRollback *obs.Counter

	rowsReturned   *obs.Counter
	tuplesRead     *obs.Counter
	tuplesInserted *obs.Counter
	tuplesDeleted  *obs.Counter
	tuplesUpdated  *obs.Counter
	tuplesVacuumed *obs.Counter

	planSeqScan   *obs.Counter
	planIndexScan *obs.Counter
	planNNScan    *obs.Counter

	lockWaitNs *obs.Counter

	// planQError is the estimate/actual row-count ratio of every
	// executed predicate plan; statsRefresh counts ensureStats's lazy
	// re-samples.
	planQError   *obs.Histogram
	statsRefresh *obs.Counter
}

func newExecMetrics() *execMetrics {
	reg := obs.NewRegistry()
	return &execMetrics{
		reg:            reg,
		stmtSelect:     reg.Counter("exec_select_total"),
		stmtNN:         reg.Counter("exec_select_nn_total"),
		stmtInsert:     reg.Counter("exec_insert_total"),
		stmtDelete:     reg.Counter("exec_delete_total"),
		stmtUpdate:     reg.Counter("exec_update_total"),
		txnBegin:       reg.Counter("exec_txn_begin_total"),
		txnCommit:      reg.Counter("exec_txn_commit_total"),
		txnRollback:    reg.Counter("exec_txn_rollback_total"),
		rowsReturned:   reg.Counter("exec_rows_returned_total"),
		tuplesRead:     reg.Counter("exec_tuples_read_total"),
		tuplesInserted: reg.Counter("exec_tuples_inserted_total"),
		tuplesDeleted:  reg.Counter("exec_tuples_deleted_total"),
		tuplesUpdated:  reg.Counter("exec_tuples_updated_total"),
		tuplesVacuumed: reg.Counter("exec_tuples_vacuumed_total"),
		planSeqScan:    reg.Counter("exec_plan_seqscan_total"),
		planIndexScan:  reg.Counter("exec_plan_indexscan_total"),
		planNNScan:     reg.Counter("exec_plan_nnscan_total"),
		lockWaitNs:     reg.Counter("exec_lock_wait_ns_total"),
		planQError:     reg.RatioHistogram("exec_plan_qerror"),
		statsRefresh:   reg.Counter("exec_stats_refresh_total"),
	}
}

// Obs exposes the database's metrics registry: the executor's own
// counters plus, via a sampler, the buffer-pool, disk, and WAL counters.
// SHOW STATS and the server's STATS verb render it.
// Do not call Render/Each while holding ShareLock — the storage sampler
// takes the shared statement lock itself.
func (db *DB) Obs() *obs.Registry { return db.met.reg }

// sampleStorage contributes the storage-layer counters to the registry
// readout: the buffer pool's size and traffic (every relation file it has
// held, the catalog and dropped ones included), physical disk I/O, and the
// write-ahead log's activity.
func (db *DB) sampleStorage(emit func(name string, value int64)) {
	db.stmtMu.RLock()
	faultDMs := append([]*storage.FaultDiskManager(nil), db.faultDMs...)
	w := db.wal
	db.stmtMu.RUnlock()

	ps := db.pool.Stats()
	reads, writes, allocs := db.pool.DiskStats()
	emit("pool_frames", int64(db.pool.Frames()))
	emit("pool_open", int64(len(db.pool.Relations())))
	emit("pool_accesses_total", ps.Accesses)
	emit("pool_hits_total", ps.Hits)
	emit("pool_misses_total", ps.Misses)
	emit("pool_evictions_total", ps.Evictions)
	emit("pool_dirty_writes_total", ps.DirtyWrites)
	emit("pool_inflight_joins_total", ps.InflightJoins)
	emit("disk_reads_total", reads)
	emit("disk_writes_total", writes)
	emit("disk_allocs_total", allocs)
	if len(faultDMs) > 0 {
		var fc storage.FaultCounters
		for _, fdm := range faultDMs {
			c := fdm.Counters()
			fc.Transient += c.Transient
			fc.Permanent += c.Permanent
			fc.NoSpace += c.NoSpace
			fc.ShortReads += c.ShortReads
			fc.TornWrites += c.TornWrites
		}
		emit("faults_transient_total", fc.Transient)
		emit("faults_permanent_total", fc.Permanent)
		emit("faults_nospace_total", fc.NoSpace)
		emit("faults_short_reads_total", fc.ShortReads)
		emit("faults_torn_writes_total", fc.TornWrites)
	}
	if w != nil {
		s := w.Stats()
		emit("wal_appends_total", s.Appends)
		emit("wal_appended_bytes_total", s.AppendedBytes)
		emit("wal_syncs_total", s.Syncs)
		emit("wal_sync_waits_total", s.SyncWaits)
		emit("wal_rotations_total", s.Rotations)
		emit("wal_checkpoints_total", s.Checkpoints)
		emit("wal_group_commits_total", s.GroupCommits)
		emit("wal_group_records_total", s.GroupRecords)
		emit("wal_segment_recycles_total", s.Recycles)
		// What the log is made of: the records appended and their bytes
		// had no frame been deflated, split by record type (the columns
		// sum to wal_appends_total and wal_frame_raw_bytes_total; a
		// frame's header is charged to its last record, a statement's
		// commit marker).
		for typ := wal.RecordType(1); typ < wal.NumRecordTypes; typ++ {
			if typ.String() == "unknown" { // types 2, 3, 7-10, 12 and 16 are retired
				continue
			}
			by := s.ByType[typ]
			emit(fmt.Sprintf("wal_appended_records_by_type{type=%q}", typ), by.Records)
			emit(fmt.Sprintf("wal_appended_bytes_by_type{type=%q}", typ), by.Bytes)
		}
		// The page-image bytes had no image been deflated: over
		// wal_appended_bytes_by_type{type="page-image"}, the compression
		// ratio.
		emit("wal_page_image_raw_bytes_total", s.PageImageRawBytes)
		// The frames' bytes had none been deflated: over
		// wal_appended_bytes_total, what the segment files grow by, the
		// frames' compression ratio.
		emit("wal_frame_raw_bytes_total", s.FrameRawBytes)
	}
}

// resetStorageStats is the registry's reset hook (SHOW STATS RESET):
// the storage-layer counters reach the readout through sampleStorage's
// component atomics, so resetting the registry's own metrics alone
// would leave them running. Takes the shared statement lock, like the
// sampler — do not call while holding ShareLock.
func (db *DB) resetStorageStats() {
	db.stmtMu.RLock()
	w := db.wal
	db.stmtMu.RUnlock()
	db.pool.ResetStats()
	if w != nil {
		w.ResetStats()
	}
	db.waits.Reset()
}

// PoolStats sums the buffer-pool counters over every relation file the
// database has held. The slow-query log and tests use it for before/after
// deltas.
func (db *DB) PoolStats() storage.PoolStats { return db.pool.Stats() }

// TableStat is one name/value line of the per-table SHOW STATS output;
// Text, when set, is the value of a non-numeric line.
type TableStat struct {
	Name  string
	Value int64
	Text  string
}

// StatsInfo is the provenance of the planner statistics a table plans
// with right now — what `SHOW STATS <table>` and spgist-cli's \d print.
type StatsInfo struct {
	Source     StatsSource
	Rows       int64 // live rows when they were collected
	SampleRows int64 // rows the collecting sample examined
	Churn      int64 // rows inserted + deleted since (this session's counter)
	StalePct   int64 // how much of the analyzed table has churned, 0..100
}

// StatsInfo reads the statistics provenance under the shared statement
// lock.
func (t *Table) StatsInfo() (StatsInfo, error) {
	if err := t.lockRead(); err != nil {
		return StatsInfo{}, err
	}
	defer t.unlockRead()
	return t.statsInfoLocked(), nil
}

func (t *Table) statsInfoLocked() StatsInfo {
	versions := t.Heap.Count()
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	si := StatsInfo{Source: t.statsSource, Rows: t.statsRows, SampleRows: t.sampleRows, Churn: t.churn}
	if t.statsSource != StatsNone {
		si.StalePct = int64(100 * t.staleFracLocked(versions))
	}
	return si
}

// Stats reads this table's pg_stat-style numbers under the shared
// statement lock: live rows, heap pages and the free bytes the heap's
// free-space map holds, where the planner's statistics
// came from and how stale they are, and per-index size and scan
// counters.
func (t *Table) Stats() ([]TableStat, error) {
	if err := t.lockRead(); err != nil {
		return nil, err
	}
	defer t.unlockRead()
	si := t.statsInfoLocked()
	analyzed := int64(0)
	if si.Source != StatsNone {
		analyzed = 1
	}
	out := []TableStat{
		{Name: "rows", Value: t.visibleCountLocked()},
		{Name: "heap_versions", Value: t.Heap.Count()},
		{Name: "heap_pages", Value: int64(t.Heap.NumPages())},
		{Name: "heap_free_bytes", Value: t.Heap.FreeBytes()},
		{Name: "churn_since_analyze", Value: si.Churn},
		{Name: "analyzed", Value: analyzed},
		{Name: "stats_source", Text: si.Source.String()},
		{Name: "stats_rows", Value: si.Rows},
		{Name: "stats_sample_rows", Value: si.SampleRows},
		{Name: "stats_stale_pct", Value: si.StalePct},
	}
	for _, ix := range t.Indexes {
		out = append(out,
			TableStat{Name: "index_" + ix.Name + "_pages", Value: int64(ix.pool.DM().NumPages())},
			TableStat{Name: "index_" + ix.Name + "_size_bytes", Value: ix.pool.SizeBytes()},
			TableStat{Name: "index_" + ix.Name + "_scans_total", Value: ix.scans.Load()},
		)
	}
	return out, nil
}

// RowCountShared reads the snapshot-visible live row count while the
// caller already holds ShareLock: it takes only this table's physical
// latch, because RowCount would re-enter the shared statement lock,
// which sync.RWMutex forbids while a writer is queued. Unlike the raw
// heap record count, dead versions — committed deletes not yet
// vacuumed, rolled-back inserts, another transaction's uncommitted
// rows — are excluded. Returns 0 for a dropped table.
func (t *Table) RowCountShared() int64 {
	rlockTimed(&t.phys, t.db.met.lockWaitNs, t.db.waits, obs.WaitLockTable)
	defer t.phys.RUnlock()
	if t.checkAttached() != nil {
		return 0
	}
	return t.visibleCountLocked()
}

// visibleCountLocked counts the heap versions visible to a fresh
// snapshot. Caller holds t.phys (shared or exclusive).
func (t *Table) visibleCountLocked() int64 {
	snap := t.db.tm.snapshot(nil)
	defer t.db.tm.release(snap)
	var n int64
	t.Heap.ScanVersions(func(_ heap.RID, h heap.TupleHeader, _ []byte) bool {
		if snap.Visible(h) {
			n++
		}
		return true
	})
	return n
}

// rlockTimed takes mu's read lock, charging any wait to c and recording
// it as a wait event (cumulative counts plus the blocked session's live
// state). The uncontended fast path (TryRLock succeeds) reads no clock.
func rlockTimed(mu *sync.RWMutex, c *obs.Counter, ws *obs.WaitSet, ev obs.WaitEvent) {
	if mu.TryRLock() {
		return
	}
	m := ws.Begin(ev)
	mu.RLock()
	c.Add(ws.End(m))
}

// lockTimed is rlockTimed for the write lock.
func lockTimed(mu *sync.RWMutex, c *obs.Counter, ws *obs.WaitSet, ev obs.WaitEvent) {
	if mu.TryLock() {
		return
	}
	m := ws.Begin(ev)
	mu.Lock()
	c.Add(ws.End(m))
}

// RunStats captures the actual execution counters of one analyzed
// statement — what EXPLAIN ANALYZE reports next to the planner's
// estimates. Buffer counters are deltas over this table's files (heap
// plus indexes), so concurrent statements on other tables do not
// pollute them; concurrent work on the *same* table is excluded by the
// statement lock the analyzed run holds.
type RunStats struct {
	Rows       int64 // rows emitted after recheck/filter
	Scanned    int64 // tuples read before filtering
	Elapsed    time.Duration
	PoolHits   int64
	PoolMisses int64
	WALBytes   int64
	// IndexPages is the count of distinct index pages the scan visited,
	// from the index file's page trace in the buffer pool; -1 when the plan
	// did not go through an index.
	IndexPages int
}

// tablePoolStats sums the pool counters of this table's own files.
// Caller holds the statement lock.
func (t *Table) tablePoolStats() (hits, misses int64) {
	s := t.Heap.Pool().Stats()
	hits, misses = s.Hits, s.Misses
	for _, ix := range t.Indexes {
		is := ix.pool.Stats()
		hits += is.Hits
		misses += is.Misses
	}
	return hits, misses
}

// analyzed runs one read statement for EXPLAIN ANALYZE — the measuring
// wrapper of both statement kinds. plan chooses the access path and
// exec runs it, inside one lock window and through tx's snapshot like
// the plain forms (index: the plan may read an index); the pool, WAL and
// wall-time deltas are taken and the index page trace is armed inside
// that window, around exec alone. The statement really executes, so it
// counts once in stmts.
func (t *Table) analyzed(tx *Txn, index bool, stmts *obs.Counter,
	plan func() (*Plan, error),
	exec func(*Snapshot, *Plan) (scanned, emitted int64, err error),
) (*Plan, *RunStats, error) {
	snap, err := t.beginRead(tx, index)
	if err != nil {
		return nil, nil, err
	}
	defer t.endRead(snap)
	stmts.Inc()
	p, err := plan()
	if err != nil {
		return nil, nil, err
	}
	rs := &RunStats{IndexPages: -1}
	hitsBefore, missesBefore := t.tablePoolStats()
	var walBefore int64
	if w := t.db.wal; w != nil {
		walBefore = w.Stats().AppendedBytes
	}
	if p.Index != nil {
		p.Index.pool.StartPageTrace()
	}
	start := time.Now()
	rs.Scanned, rs.Rows, err = exec(snap, p)
	rs.Elapsed = time.Since(start)
	if p.Index != nil {
		// PageTraceCount also stops the trace, so the per-page tracing
		// cost ends with this statement.
		rs.IndexPages = p.Index.pool.PageTraceCount()
		p.Index.pagesVisited.Add(int64(rs.IndexPages))
	}
	hitsAfter, missesAfter := t.tablePoolStats()
	rs.PoolHits = hitsAfter - hitsBefore
	rs.PoolMisses = missesAfter - missesBefore
	if w := t.db.wal; w != nil {
		rs.WALBytes = w.Stats().AppendedBytes - walBefore
	}
	if err != nil {
		return nil, nil, err
	}
	return p, rs, nil
}

// SelectAnalyzed is SelectTx instrumented for EXPLAIN ANALYZE: wall
// time, tuple counts, buffer hit/miss deltas, WAL byte deltas, and — for
// index scans — the distinct index pages visited via PageTrace.
func (t *Table) SelectAnalyzed(tx *Txn, pred *Pred, emit func(Row) bool) (*Plan, *RunStats, error) {
	return t.analyzed(tx, t.indexable(pred), t.db.met.stmtSelect,
		func() (*Plan, error) { return t.planSelect(pred) },
		func(snap *Snapshot, plan *Plan) (int64, int64, error) { return t.run(snap, plan, emit) })
}

// SelectNNAnalyzed is SelectNNTx instrumented the same way; Scanned is
// every heap version the search fetched, dead ones included.
func (t *Table) SelectNNAnalyzed(tx *Txn, colName string, arg catalog.Datum, k int) ([]NNResult, *Plan, *RunStats, error) {
	ci, err := t.colIndex(colName)
	if err != nil {
		return nil, nil, nil, err
	}
	var out []NNResult
	plan, rs, err := t.analyzed(tx, true, t.db.met.stmtNN,
		func() (*Plan, error) { return t.planNN(ci, arg, k) },
		func(snap *Snapshot, plan *Plan) (read, rows int64, err error) {
			out, read, err = t.runNN(snap, plan, ci, arg, k)
			return read, int64(len(out)), err
		})
	if err != nil {
		return nil, nil, nil, err
	}
	return out, plan, rs, nil
}
