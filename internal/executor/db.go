// Package executor is the miniature query engine of this reproduction:
// heap tables, index maintenance across the access methods of package am,
// a PostgreSQL-style cost-based choice between sequential and index scans
// (planner.go), and incremental nearest-neighbor cursors. It plays the
// role of the PostgreSQL executor and planner that the paper's SP-GiST
// realization plugs into.
package executor

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/syscat"
	"repro/internal/wal"
)

// Column describes one table column.
type Column struct {
	Name string
	Type catalog.Type
}

// IndexInfo is one index over a table column.
type IndexInfo struct {
	Name    string
	Column  int // ordinal in the table schema
	OpClass *catalog.OperatorClass
	Idx     am.Index

	pool *storage.BufferPool // the index file in the database's pool
	file string              // data file base name, from the system catalog

	// Per-opclass counters, cached here so the scan path pays one
	// atomic add instead of a registry lookup.
	scans        *obs.Counter // index scans through this opclass
	pagesVisited *obs.Counter // distinct pages seen by traced (analyzed) scans
}

// File returns the index's data file base name (catalog introspection).
func (ix *IndexInfo) File() string { return ix.file }

// Pool returns the index file's handle in the database's buffer pool: its
// size and the page trace of its scans are the pool's, not the access
// method's.
func (ix *IndexInfo) Pool() *storage.BufferPool { return ix.pool }

// Table is a heap file plus its schema and indexes.
type Table struct {
	Name    string
	Columns []Column
	Heap    *heap.File
	Indexes []*IndexInfo

	names []string // Columns' names, see ColumnNames

	oid  uint64 // catalog OID
	file string // heap file base name, from the system catalog

	// Planner statistics (the shapes live in catalog.ColumnStats; the
	// executor's ANALYZE in analyze.go fills them from a block sample).
	// Persisted statistics are loaded from the system catalog at Open;
	// otherwise — and whenever the table has churned past what they
	// describe — ensureStats samples lazily on the next predicate plan.
	// Like PostgreSQL statistics they go stale as rows change — churn
	// counts the inserts+deletes since they were collected so the
	// planner can discount them. statsMu guards all of it: the planner
	// reads on the unlocked query path while ANALYZE / CREATE INDEX
	// (under the statement lock) refresh it.
	statsMu       sync.Mutex
	colStats      []catalog.ColumnStats
	statsRows     int64       // live row count when colStats was collected
	statsVersions int64       // heap version count then (the drift baseline)
	sampleRows    int64       // rows the collecting sample examined
	statsSource   StatsSource // StatsNone until some are collected
	churn         int64
	// refreshAfter backs the lazy sample off after a failure: no retry
	// until that many rows have churned.
	refreshAfter int64
	// refreshing admits one lazy refresher at a time; a planner that
	// loses the race plans with the statistics it has.
	refreshing atomic.Bool

	// mu is the per-table *logical* write lock, the second level of the
	// lock hierarchy (below db.stmtMu, which every statement holds at
	// least shared). A transaction — implicit or explicit — acquires it
	// through TxnManager.lockTable on first touch and keeps it until
	// COMMIT/ROLLBACK, so two write transactions on one table never
	// interleave, while writers on *different* tables overlap and meet
	// in the write-ahead log's group-commit fsync. Readers never take
	// it: they hold phys shared and filter versions through a snapshot.
	// DDL needs no table locks either — it takes db.stmtMu exclusive,
	// which excludes every statement at once (and refuses tables whose
	// mu an open transaction owns; see TxnManager.lockedBy).
	mu tableLock

	// phys is the physical page latch, the third level: readers hold it
	// shared for their whole plan+scan window, a writing transaction
	// takes it exclusive only around actual page mutation — so a SELECT
	// proceeds while a write transaction on the same table is open, and
	// a scan never observes a torn page or a half-applied statement's
	// in-flight slot writes. Always acquired after mu, never before.
	phys sync.RWMutex

	batch indexBatch // of mu's owner; only it touches the batch

	db *DB
}

// lockRead takes the locks of a read statement against t — the shared
// catalog/DDL lock plus t's shared physical latch — and checks that t is
// still attached. A writer transaction on the same table blocks this
// only while it is actually mutating pages, never for its full
// transaction. Waits are charged to the lock-wait counter; the
// uncontended path reads no clock. On error nothing is held; otherwise
// release with unlockRead. Statements that read rows for a caller go on
// to take its transaction's snapshot (beginRead); EXPLAIN and the
// statistics readouts stop here.
func (t *Table) lockRead() error {
	rlockTimed(&t.db.stmtMu, t.db.met.lockWaitNs, t.db.waits, obs.WaitLockCatalog)
	rlockTimed(&t.phys, t.db.met.lockWaitNs, t.db.waits, obs.WaitLockTable)
	if err := t.checkAttached(); err != nil {
		t.unlockRead()
		return err
	}
	return nil
}

func (t *Table) unlockRead() {
	t.phys.RUnlock()
	t.db.stmtMu.RUnlock()
}

// ensureStats keeps the planner's statistics describing the table that
// exists: when there are none (a reattached table never ANALYZEd —
// sampling every table at Open would make reopening O(total rows)) or
// when the rows churned since they were collected amount to the whole
// analyzed table (StaleFrac 1: CREATE INDEX sampled an empty table that
// was then loaded, or a full turnover since the last ANALYZE), it takes
// a fresh in-memory block sample before planning. A refresh needs churn
// ≥ the analyzed size, so a growing table re-samples at doublings and a
// table under balanced churn once per turnover — amortised well under
// one sampled row per changed row, with no threshold or timer. "Size"
// is the larger of the live rows and the heap versions the sample had
// to walk: an open transaction's rows are in the heap but in no fresh
// snapshot, so a bulk load that plans as it goes would otherwise hold
// the live count at zero and re-sample on every statement. Only one
// refresher runs per table and nobody waits for it: a concurrent
// planner uses the blended statistics it has, which the cost model's
// page-fetch estimate keeps off the Seq Scan cliff. Nothing is
// persisted — only the explicit ANALYZE statement writes the catalog.
func (t *Table) ensureStats() {
	if !t.statsFullyStale() || !t.refreshing.CompareAndSwap(false, true) {
		return
	}
	defer t.refreshing.Store(false)
	if !t.statsFullyStale() {
		return // the previous refresher finished between the two checks
	}
	t.db.met.statsRefresh.Inc()
	var err error
	if hook := t.db.statsRefreshHook; hook != nil {
		err = hook(t)
	}
	if err == nil {
		err = t.analyzeInMemory()
	}
	if err != nil {
		// Best effort: the planner falls back to what it has (defaults
		// when that is nothing). Do not retry on every plan — wait until
		// the churn has doubled.
		versions := t.Heap.Count()
		t.statsMu.Lock()
		t.refreshAfter = 2 * max(t.staleRowsLocked(versions), 1)
		t.statsMu.Unlock()
	}
}

// statsFullyStale reports whether the statistics describe none of the
// current table (or do not exist) and a lazy sample is due.
func (t *Table) statsFullyStale() bool {
	versions := t.Heap.Count()
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	stale := t.staleRowsLocked(versions)
	if stale < t.refreshAfter {
		return false
	}
	if t.statsSource == StatsNone {
		return true
	}
	return stale > 0 && stale >= max(t.statsRows, t.statsVersions)
}

// OID returns the table's catalog OID.
func (t *Table) OID() uint64 { return t.oid }

// File returns the table's heap file base name (catalog introspection).
func (t *Table) File() string { return t.file }

// bumpChurn counts n rows inserted or deleted since the last ANALYZE.
func (t *Table) bumpChurn(n int) {
	t.statsMu.Lock()
	t.churn += int64(n)
	t.statsMu.Unlock()
}

// catalogFile is the base name of the system catalog's own heap file. It
// deliberately shares no extension with relation files (rel<oid>.tbl,
// rel<oid>.idx) so the orphan sweep can never touch it.
const catalogFile = "syscat.dat"

// DB is a database: a set of tables and indexes over one directory (or
// over memory when dir is empty), described by a persistent system
// catalog stored alongside the data files.
type DB struct {
	mu        sync.Mutex
	dir       string
	pageSize  int
	poolPages int
	tables    map[string]*Table
	pool      *storage.Pool // every relation file's frames; created at Open
	wal       *wal.Writer
	recovered RecoveryStats
	// unresolved is the heap pass's rule after a redo that met data
	// records (heap.Unresolved), nil when Open needs no heap pass.
	unresolved func(xid uint64) bool
	crashed    bool
	// appendScratch lends appendPools its buffers (*appendScratch).
	appendScratch sync.Pool

	cat     *syscat.Catalog
	catPool *storage.BufferPool // the catalog heap's own pool
	rebuilt []string            // indexes Open built again (RebuiltIndexes)
	faults  FaultInjection
	// statsRefreshHook, when set (in-package tests only), runs inside
	// every lazy statistics refresh before the sample; an error fails it.
	statsRefreshHook func(*Table) error

	// tm is the transaction layer (txn.go): xid allocation, snapshots,
	// the active-transaction set, and table-lock ownership. Always
	// non-nil after Open.
	tm *TxnManager
	// lockTimeout bounds how long a DML statement polls for a table
	// lock owned by another open transaction (Options.LockTimeout).
	lockTimeout time.Duration

	// met is the pg_stat layer: always non-nil, created at Open. See
	// metrics.go.
	met *execMetrics

	// waits and activity are the wait-event and live-session layer
	// (pg_stat_activity): both always non-nil, created at Open, shared
	// by every component that can block — the statement locks here, the
	// buffer pool's mutex and miss I/O, the WAL writer's group
	// commit. Immutable after Open.
	waits    *obs.WaitSet
	activity *obs.Activity

	// traceDir, when non-empty, makes every statement emit its span
	// timeline as a Chrome trace-event JSON file there; immutable after
	// Open.
	traceDir string

	// slowQueryThreshold/slowQueryLog configure the slow-query log (see
	// Options); immutable after Open.
	slowQueryThreshold time.Duration
	slowQueryLog       io.Writer

	// degraded, once set, marks the database read-only: the write-ahead
	// log hit ENOSPC or a permanent device error and can accept no more
	// records, or a failed DDL statement's catalog revert could not read
	// a page back. See degraded.go. Lock-free: read on every DML prologue.
	degraded degradedPtr

	// diskFaults is the fault-injection wrap applied to every data
	// file's disk manager (Options.DiskFaults); faultDMs retains the
	// FaultDiskManagers it produced so their injection counters can be
	// sampled into SHOW STATS. Appended to only under the exclusive
	// statement lock.
	diskFaults func(fileName string, dm storage.DiskManager) storage.DiskManager
	faultDMs   []*storage.FaultDiskManager

	// stmtMu is the catalog/DDL lock, the top of the three-level lock
	// hierarchy (stmtMu, then a table's logical write lock Table.mu, then
	// its page latch Table.phys):
	//
	//   - shared (RLock): every table statement — SELECT, EXPLAIN,
	//     nearest-neighbor scans, RID lookups, INSERT, UPDATE, DELETE,
	//     COMMIT, ROLLBACK. Readers take no Table.mu: they hold phys
	//     shared and filter versions through a snapshot (MVCC), so they
	//     proceed beside a write transaction on the same table. Writers
	//     own Table.mu until their transaction ends and take phys only
	//     around page mutation; writers on different tables overlap and
	//     share the log's group-commit fsync.
	//   - exclusive (Lock): DDL, VACUUM, ANALYZE, CHECKPOINT, Close,
	//     Crash — what changes the schema, the shared catalog state or the
	//     log's segments excludes every statement at once.
	//
	// A statement's records are deferred and appended as one group with
	// its marker (wal.AppendGroupCommit), so a marker covers only whole
	// statements. stmtMu is acquired before Table.mu and db.mu, never
	// while held: Go's RWMutex is not reentrant, so internal paths use
	// the *Locked variants.
	stmtMu sync.RWMutex
}

// faultErr marks an error raised through FaultInjection: a simulated
// crash point. A DDL statement that fails with it reverts neither its
// catalog pages nor its files (endDDL): the test is about to Crash() the
// database, and reverting would destroy exactly the state the crash is
// meant to leave behind.
type faultErr struct{ error }

func (e faultErr) Unwrap() error { return e.error }

func isFault(err error) bool {
	var f faultErr
	return errors.As(err, &f)
}

// FaultInjection provides test-only crash points inside DDL statements.
// When a hook returns an error the statement aborts with its catalog
// records appended but uncommitted — the state an OS crash at that
// instant would leave in the log. The database must then be discarded
// with Crash(); continuing to use it is undefined.
type FaultInjection struct {
	// DuringIndexBuild runs after each batch of rows CREATE INDEX
	// back-fills, with the number of rows back-filled so far.
	DuringIndexBuild func(rowsDone int) error
	// BeforeDDLCommit runs immediately before a DDL statement's commit
	// marker would be appended. stmt names the statement, e.g.
	// "CREATE TABLE t".
	BeforeDDLCommit func(stmt string) error
	// BeforeDMLCommit runs inside a DML statement before any of its
	// records reach the log (what it applied exists only in memory) — a
	// crash here must recover with none of the statement visible. stmt
	// names it, e.g. "INSERT t 1000".
	BeforeDMLCommit func(stmt string) error
	// BetweenDMLChunks runs inside a DML statement of several chunks
	// after each appended chunk but the last (chunksDone counts them). A
	// crash here must recover with *none* of the statement visible: the
	// chunks carry one uncommitted xid, which the heap's pass hides.
	BetweenDMLChunks func(stmt string, chunksDone int) error
	// PanicOn makes FaultPanicCheck panic on any statement containing
	// the substring — the hook behind the server's per-session panic
	// recovery test.
	PanicOn string
}

// FaultPanicCheck panics when fault injection arms PanicOn and stmt
// contains it. The SQL session layer calls it at statement start, so a
// deliberately poisoned statement blows up inside a single session's
// execution path — exactly where an unexpected executor bug would.
func (db *DB) FaultPanicCheck(stmt string) {
	if p := db.faults.PanicOn; p != "" && strings.Contains(stmt, p) {
		panic(fmt.Sprintf("executor: injected panic on statement %q", stmt))
	}
}

// Options configure a database.
type Options struct {
	// Dir is the storage directory; empty means in-memory. An on-disk
	// database is write-ahead logged: on open, the log left by a previous
	// run is replayed into the data files before they are attached.
	Dir string
	// PageSize defaults to storage.DefaultPageSize.
	PageSize int
	// PoolPages is the buffer pool size, shared by every file; defaults to 1024.
	PoolPages int
	// WAL is ignored, except that Open refuses it without Dir: logging
	// follows Dir.
	//
	// Deprecated: the benchmark harness still sets it; the harness change
	// of ROADMAP item M-1 stops doing so and deletes the field.
	WAL bool
	// WALSync controls commit durability; defaults to wal.SyncCommit.
	WALSync wal.SyncMode
	// Faults injects test-only crash points into DDL statements.
	Faults FaultInjection
	// DiskFaults, when set, wraps every data file's disk manager when
	// the file is opened — the I/O fault-injection hook. Return
	// storage.WithFaults(dm, seed) (configured with probabilities and
	// schedules) to inject errors into that file's reads and writes,
	// storage.WithLatency(dm, r, w) to simulate a slow device, or dm
	// unchanged to leave the file alone. Test and torture-suite use.
	DiskFaults func(fileName string, dm storage.DiskManager) storage.DiskManager
	// LockTimeout bounds how long a DML statement waits for a table
	// write lock held by another open transaction before failing;
	// defaults to DefaultLockTimeout.
	LockTimeout time.Duration
	// SlowQueryThreshold enables the slow-query log: a SQL statement
	// whose execution exceeds it is written to SlowQueryLog with its
	// text, duration, and buffer counters. Zero (the default) disables
	// the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines; defaults to os.Stderr.
	SlowQueryLog io.Writer
	// TraceDir, when non-empty, writes every SQL statement's span
	// timeline (parse, plan, execute, index descents, page reads, WAL
	// waits) as one Chrome trace-event JSON file per statement into the
	// directory — the always-on variant of EXPLAIN (TRACE). Tracing is
	// armed per statement; with TraceDir empty (the default) the
	// instrumentation costs one atomic load per potential span site.
	TraceDir string
}

// Open creates or opens a database. An on-disk database (Dir set) is
// always write-ahead logged and an in-memory one never is. The persistent
// system catalog is bootstrapped first (replaying the write-ahead log into
// it and the data files), then every cataloged table and index is
// reattached — callers never re-declare their schema. An index whose file
// is missing is built again from the heap before Open returns; see
// RebuiltIndexes.
func Open(opts Options) (*DB, error) {
	if opts.WAL && opts.Dir == "" {
		return nil, fmt.Errorf("executor: write-ahead logging requires an on-disk database (Options.Dir)")
	}
	if opts.PageSize <= 0 {
		opts.PageSize = storage.DefaultPageSize
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 1024
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = DefaultLockTimeout
	}
	activity := obs.NewActivity()
	db := &DB{
		dir:                opts.Dir,
		pageSize:           opts.PageSize,
		poolPages:          opts.PoolPages,
		tables:             make(map[string]*Table),
		faults:             opts.Faults,
		diskFaults:         opts.DiskFaults,
		lockTimeout:        opts.LockTimeout,
		met:                newExecMetrics(),
		activity:           activity,
		waits:              obs.NewWaitSet(activity),
		slowQueryThreshold: opts.SlowQueryThreshold,
		slowQueryLog:       opts.SlowQueryLog,
		traceDir:           opts.TraceDir,
	}
	db.pool = storage.NewPool(opts.PageSize, opts.PoolPages)
	db.pool.AttachObs(db.waits)
	if db.slowQueryLog == nil {
		db.slowQueryLog = os.Stderr
	}
	if db.traceDir != "" {
		if err := os.MkdirAll(db.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	db.met.reg.Sample(db.sampleStorage)
	db.waits.Register(db.met.reg)
	db.met.reg.OnReset(db.resetStorageStats)
	var needCheckpoint bool
	if opts.Dir != "" {
		walDir := filepath.Join(opts.Dir, "wal")
		// Redo pass: bring the data files up to the end of the log left
		// by the previous run before anything reattaches them. It runs in
		// a pool of its own with the database's budget, which keeps its
		// I/O out of db.pool's disk counters.
		st, err := storage.RecoverDir(opts.Dir, walDir, opts.PageSize, opts.PoolPages)
		if err != nil {
			return nil, err
		}
		db.recovered.RecoveryStats = st
		redone := st.PageImages+st.SlotPuts+st.SlotPatches+st.SlotDeletes+st.SkippedByLSN > 0
		// An older build's checkpoint carries no transaction state, so
		// the records behind it cannot be judged: the committed
		// transactions before it would read as unresolved.
		olderCheckpoint := st.Checkpoints > 0 && st.LastCheckpoint.NextXid == 0
		if olderCheckpoint && redone {
			return nil, fmt.Errorf("executor: the log of %s holds records behind a checkpoint an older build wrote without transaction state; recover and close the database with that build first", opts.Dir)
		}
		if redone {
			db.unresolved = heap.Unresolved(st.Committed, st.LastCheckpoint)
		}
		// The writer appends where redo found the kept log to end,
		// without reading the log again.
		w, err := wal.OpenWriterAt(walDir, wal.Options{Mode: opts.WALSync}, st.End)
		if err != nil {
			return nil, err
		}
		db.wal = w
		w.AttachObs(db.waits)
		if w.CommittedLSN() == 0 {
			// A fresh log over existing files (its directory was removed,
			// or an older build wrote them without one) numbers its
			// records past their pages' LSNs, since redo passes a record
			// no newer than its page, and past LSN 1 in any case: a log
			// that does not start at 1 says, from then on, that it does
			// not reach back to the database's creation.
			top, found, err := maxPageLSN(opts.Dir, opts.PageSize)
			if err == nil && found {
				err = w.StartAfter(wal.LSN(max(top, 1)))
			}
			if err != nil {
				db.discardAll()
				return nil, err
			}
			// A fresh log (a new database, or one an older build wrote
			// without a log) has no commit marker yet, and both the
			// buffer pool's no-steal rule and recovery's
			// uncommitted-tail discard are relative to the last marker.
			// Plant an initial one so statement atomicity holds from the
			// very first record — the single place that guarantees the
			// precondition BufferPool.AttachWAL enforces.
			if err := db.commitWAL(nil); err != nil {
				db.discardAll()
				return nil, err
			}
		}
		// A crash judges the xids the log has no commit record for by
		// its last checkpoint's state, so a log that does not reach back
		// to the database's creation must carry one with state before
		// any DML logs. Judged from the log itself, not from whether this
		// Open began it: an earlier Open that failed or crashed after
		// beginning it left it without one.
		needCheckpoint = olderCheckpoint || st.Checkpoints == 0 && w.CheckpointLSN() > 0
		db.pool.AttachWAL(w)
	}
	if err := db.bootstrapCatalog(); err != nil {
		db.discardAll()
		return nil, err
	}
	// The transaction manager seeds its xid counter from the catalog's
	// persisted high-water mark, so it comes up only after the catalog.
	db.tm = newTxnManager(db)
	if err := db.loadSchema(); err != nil {
		db.discardAll()
		return nil, err
	}
	// The heap passes' repairs, appended as they went, commit together.
	if r := db.recovered; r.AbortFixups+r.XmaxFixups > 0 {
		if err := db.commitWAL(nil); err != nil {
			db.discardAll()
			return nil, err
		}
	}
	// Every xid on disk is resolved by now.
	if needCheckpoint {
		if err := db.checkpointLocked(); err != nil {
			db.discardAll()
			return nil, err
		}
	}
	return db, nil
}

// maxPageLSN returns the highest LSN on the pages of the relation files
// and the catalog in dir — what a fresh log over them must number past —
// and whether it found any page. A page that fails its checksum was torn,
// its header unreliable, and is passed over.
func maxPageLSN(dir string, pageSize int) (top uint64, found bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, false, err
	}
	buf := make([]byte, 64*pageSize)
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || name != catalogFile && !strings.HasSuffix(name, ".tbl") && !strings.HasSuffix(name, ".idx") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return 0, false, err
		}
		for off := int64(0); ; off += int64(len(buf)) {
			n, err := f.ReadAt(buf, off)
			for p := 0; p+pageSize <= n; p += pageSize {
				page := buf[p : p+pageSize]
				if _, _, ok := storage.VerifyPageChecksum(page); ok {
					top, found = max(top, storage.PageLSN(page)), true
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return 0, false, err
			}
		}
		f.Close()
	}
	return top, found, nil
}

// discardAll tears the database down without flushing anything: the log
// closes first (its appended records become durable for the next open's
// recovery to judge), the pool drops every frame, and the in-memory
// references clear. Discard, never flush: the callers — a failed Open,
// Crash — may hold uncommitted dirty frames, and writing them in place
// would break the no-steal discipline; the next open must see exactly
// the last committed state.
func (db *DB) discardAll() error {
	var firstErr error
	if db.wal != nil {
		if err := db.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		db.wal = nil
	}
	if err := db.pool.Crash(); err != nil && firstErr == nil {
		firstErr = err
	}
	db.tables = make(map[string]*Table)
	db.cat = nil
	db.catPool = nil
	return firstErr
}

// bootstrapCatalog opens (creating if necessary) the system catalog's
// own heap file and loads its records.
func (db *DB) bootstrapCatalog() error {
	if db.dir != "" {
		// A crash between the catalog file's creation and its first
		// commit leaves a file of zeroed pages: the pages were allocated
		// eagerly, but their contents lived only in frames the crash
		// discarded and in log records the recovery pass rejected as an
		// uncommitted tail. An entirely-zero catalog file is always such
		// a contentless husk (any committed catalog has a non-zero meta
		// page), but it is indistinguishable from corruption to
		// heap.Open, so detect and remove it here. The legacy-files
		// check below still refuses the directory if data files exist
		// alongside it.
		path := filepath.Join(db.dir, catalogFile)
		if zeroed, err := fileIsAllZeros(path); err != nil {
			return fmt.Errorf("executor: probe system catalog: %w", err)
		} else if zeroed {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("executor: remove zeroed system catalog: %w", err)
			}
		}
	}
	if db.dir != "" {
		// Bootstrapping a *fresh* catalog over a directory that already
		// holds name-based relation files means the directory predates
		// the persistent catalog (relations used to be named
		// <table>.tbl / <index>.idx and reattached by re-declaration).
		// Silently presenting an empty schema would strand that data, so
		// refuse loudly instead.
		if st, err := os.Stat(filepath.Join(db.dir, catalogFile)); os.IsNotExist(err) || (err == nil && st.Size() == 0) {
			if legacy, err := db.legacyRelationFiles(); err != nil {
				return err
			} else if len(legacy) > 0 {
				return fmt.Errorf("executor: %s holds relation files %v but no system catalog — it predates the persistent catalog, or an older build crashed it without a write-ahead log before the catalog reached disk; the schema cannot be reconstructed, recreate the database (or load pre-catalog files with the release that wrote them)", db.dir, legacy)
			}
		}
	}
	bp, existed, err := db.newPool(catalogFile)
	if err != nil {
		return err
	}
	var hf *heap.File
	if existed {
		if hf, err = heap.Open(bp); err != nil {
			return fmt.Errorf("executor: system catalog %s is unreadable: %w", catalogFile, err)
		}
		if err := db.recountAfterRedo(hf); err != nil {
			return err
		}
	} else if hf, err = heap.Create(bp); err != nil {
		return err
	}
	cat, err := syscat.New(hf, !existed, nil)
	if err != nil {
		return err
	}
	db.cat = cat
	db.catPool = bp
	if !existed {
		// Commit the catalog's creation so the first DDL statement's
		// marker does not retroactively cover it.
		return db.commitWAL(nil)
	}
	return nil
}

// legacyRelationFiles lists every data file in a directory that has no
// system catalog. Any .tbl/.idx file qualifies — including rel<oid>-
// shaped names, because a pre-catalog table could have been *named*
// "rel5". A logged catalog-era rel file cannot exist here (the catalog's
// creation commits before the first CREATE TABLE runs); an older build
// that wrote without a log could leave one. In every case the schema is
// unreconstructable, and refusing loudly beats sweeping or stranding the
// files.
func (db *DB) legacyRelationFiles() ([]string, error) {
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return nil, err
	}
	var legacy []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if !strings.HasSuffix(name, ".tbl") && !strings.HasSuffix(name, ".idx") {
			continue
		}
		// An entirely-zero data file is a contentless husk whatever era
		// wrote it (any real heap or index file has a non-zero meta
		// page) — e.g. a lazily-synced session crashed before its first
		// fsync. Remove it rather than refuse forever over it.
		path := filepath.Join(db.dir, name)
		if zeroed, err := fileIsAllZeros(path); err != nil {
			return nil, err
		} else if zeroed {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("executor: remove zeroed relation file %s: %w", name, err)
			}
			continue
		}
		legacy = append(legacy, name)
	}
	return legacy, nil
}

// fileIsAllZeros reports whether path exists and contains only zero
// bytes. A missing file reports false with no error.
func fileIsAllZeros(path string) (bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	for {
		n, err := f.Read(buf)
		for _, b := range buf[:n] {
			if b != 0 {
				return false, nil
			}
		}
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// recountAfterRedo runs the heap's pass over hf after a redo that met
// data records (heap.File.Recount): its counters are taken from its pages,
// some of which may hold statements that never reached the commit point
// where those are saved, and the tuples of transactions the crash left
// unresolved are repaired. A repaired page is a chunkLen unit: the repairs
// append after each chunk and at the end, leaving the next heap the pool.
func (db *DB) recountAfterRedo(hf *heap.File) error {
	if db.unresolved == nil {
		return nil
	}
	pages := int(hf.NumPages())
	chunk := db.chunkLen(pages, 1, func(int, int) (int, int, int) { return pages, 1, 0 })
	fx, err := hf.Recount(db.unresolved, chunk, func() error {
		return db.appendPools([]*storage.BufferPool{hf.Pool()}, 0)
	})
	db.recovered.AbortFixups += fx.Aborted
	db.recovered.XmaxFixups += fx.XmaxCleared
	return err
}

// loadSchema reattaches every cataloged relation: orphaned data files
// from DDL that never committed are swept, tables are opened, indexes are
// reattached, and an index whose file is missing is built again from its
// heap.
func (db *DB) loadSchema() error {
	if db.dir != "" {
		if err := db.sweepOrphans(); err != nil {
			return err
		}
	}
	for _, te := range db.cat.Tables() {
		bp, existed, err := db.newPool(te.File)
		if err != nil {
			return err
		}
		if !existed {
			return fmt.Errorf("executor: catalog lists table %q but its file %s is missing", te.Name, te.File)
		}
		hf, err := heap.Open(bp)
		if err != nil {
			return fmt.Errorf("executor: table %q (%s): %w", te.Name, te.File, err)
		}
		if err := db.recountAfterRedo(hf); err != nil {
			return fmt.Errorf("executor: table %q (%s): %w", te.Name, te.File, err)
		}
		cols := make([]Column, len(te.Cols))
		for i, c := range te.Cols {
			cols[i] = Column{Name: c.Name, Type: c.Type}
		}
		t := &Table{
			Name:    te.Name,
			Columns: cols,
			Heap:    hf,
			names:   columnNames(cols),
			oid:     te.OID,
			file:    te.File,
			mu:      newTableLock(),
			db:      db,
		}
		// Persisted planner statistics load with the schema — O(catalog),
		// not O(rows) — so the first plan after a reopen never scans the
		// heap. Tables never ANALYZEd keep the lazy sampling path.
		if s, ok := db.cat.GetStats(te.OID); ok && len(s.Cols) == len(cols) {
			t.colStats = s.Cols
			t.statsRows = s.Rows
			t.statsVersions = s.Rows
			t.sampleRows = s.SampleRows
			t.statsSource = StatsFromAnalyze
			// Seed the churn counter with the persisted value (folded in
			// by the last clean Close), so staleness discounting keeps
			// counting from where the previous session left off.
			t.churn = s.Churn
		}
		db.tables[te.Name] = t
	}
	byOID := make(map[uint64]*Table, len(db.tables))
	for _, t := range db.tables {
		byOID[t.oid] = t
	}
	for _, ie := range db.cat.Indexes() {
		t := byOID[ie.TableOID]
		if t == nil {
			return fmt.Errorf("executor: catalog index %q references unknown table OID %d", ie.Name, ie.TableOID)
		}
		oc, err := catalog.ResolveOpClass(ie.Method, ie.OpClass, t.Columns[ie.Column].Type)
		if err != nil {
			return fmt.Errorf("executor: catalog index %q: %w", ie.Name, err)
		}
		if st, err := os.Stat(filepath.Join(db.dir, ie.File)); err == nil && st.Size() > 0 {
			bp, _, err := db.newPool(ie.File)
			if err != nil {
				return err
			}
			idx, err := am.New(oc.Name, bp, false)
			if err != nil {
				return fmt.Errorf("executor: index %q (%s): %w", ie.Name, ie.File, err)
			}
			db.attachIndex(t, ie.Name, ie.Column, oc, idx, bp, ie.File)
			continue
		}
		// The file is missing (e.g. deleted by hand): build it again. A
		// crash in the build leaves the entry as it was, and the next
		// open builds it again.
		idx, bp, err := db.buildIndexFile(t, ie.Column, oc, ie.File)
		if err != nil {
			return fmt.Errorf("executor: rebuild index %q: %w", ie.Name, err)
		}
		db.attachIndex(t, ie.Name, ie.Column, oc, idx, bp, ie.File)
		db.rebuilt = append(db.rebuilt, ie.Name)
	}
	return nil
}

// sweepOrphans removes relation files (rel<oid>.tbl / rel<oid>.idx, and
// an index build's rel<oid>.idx.build) that no catalog entry references.
// Such files are leftovers of DDL whose commit never made it into the log
// — the file was created or built eagerly, the catalog entry was discarded
// with the uncommitted log tail — or of a DROP that crashed between its
// commit and its unlink. The log's commit markers make "file exists but
// entry does not" a reliable orphan signal.
func (db *DB) sweepOrphans() error {
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return err
	}
	known := map[string]bool{catalogFile: true}
	for _, te := range db.cat.Tables() {
		known[te.File] = true
	}
	for _, ie := range db.cat.Indexes() {
		known[ie.File] = true
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || known[name] || !isRelationFile(name) {
			continue
		}
		if err := os.Remove(filepath.Join(db.dir, name)); err != nil {
			return fmt.Errorf("executor: sweep orphan %s: %w", name, err)
		}
	}
	return nil
}

// isRelationFile reports whether name matches the catalog's relation
// file naming scheme rel<digits>.tbl / rel<digits>.idx, or is such a
// file's build (a ".build" suffix). Anything else in the directory is not
// ours to touch.
func isRelationFile(name string) bool {
	rest, ok := strings.CutPrefix(strings.TrimSuffix(name, ".build"), "rel")
	if !ok {
		return false
	}
	digits, ok := strings.CutSuffix(rest, ".tbl")
	if !ok {
		if digits, ok = strings.CutSuffix(rest, ".idx"); !ok {
			return false
		}
	}
	if digits == "" {
		return false
	}
	for _, r := range digits {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// WAL returns the attached log writer (nil for an in-memory database).
func (db *DB) WAL() *wal.Writer { return db.wal }

// ShareLock takes the shared catalog/DDL lock for a multi-call
// read-only statement assembled outside the executor (SHOW TABLES /
// SHOW INDEXES iterating catalog records). Release with ShareUnlock.
// It stabilizes the *catalog* — DDL takes stmtMu exclusively — but NOT
// table contents: a writer on some table holds stmtMu only shared, so
// direct reads like Table.Heap.Count() race it. Read row counts through
// Table.RowCount *outside* the ShareLock window instead (the locked
// accessors re-acquire stmtMu, and Go's RWMutex read lock is not
// recursive).
func (db *DB) ShareLock() { db.stmtMu.RLock() }

// ShareUnlock releases ShareLock.
func (db *DB) ShareUnlock() { db.stmtMu.RUnlock() }

// xlockStmt takes the catalog/DDL lock exclusively — the entry point of
// every DDL/ANALYZE/CHECKPOINT statement — charging any wait to the
// lock-wait counter and the catalog-lock wait event. Paired with a
// plain db.stmtMu.Unlock().
func (db *DB) xlockStmt() {
	lockTimed(&db.stmtMu, db.met.lockWaitNs, db.waits, obs.WaitLockCatalog)
}

// Activity exposes the live session table — who is connected, what each
// session is running, and what it is blocked on (SHOW ACTIVITY, the
// ACTIVITY server verb, the /activity HTTP endpoint).
func (db *DB) Activity() *obs.Activity { return db.activity }

// Waits exposes the cumulative wait-event set shared by every blocking
// point in the engine.
func (db *DB) Waits() *obs.WaitSet { return db.waits }

// TraceDir returns the per-statement trace output directory, empty when
// statement tracing to disk is off.
func (db *DB) TraceDir() string { return db.traceDir }

// Catalog exposes the persistent system catalog (SQL introspection, the
// CLI's describe commands, tests). A failed DDL statement replaces it
// with one read again from the reverted pages, so callers take it afresh
// for each statement.
func (db *DB) Catalog() *syscat.Catalog { return db.cat }

// RebuiltIndexes lists the indexes Open built again from their heap: each
// one cataloged with no file (deleted by hand).
func (db *DB) RebuiltIndexes() []string { return append([]string(nil), db.rebuilt...) }

// RecoveryStats reports what opening the database recovered: the redo
// pass over the log, and the heap passes that repaired the tuples of
// transactions the crash left unresolved. All zeros for an in-memory
// database or an empty log.
type RecoveryStats struct {
	storage.RecoveryStats
	AbortFixups int64 // tuples of unresolved transactions flagged aborted
	XmaxFixups  int64 // xmaxes of unresolved transactions cleared
}

// RecoveryStats reports the recovery performed when the database was
// opened.
func (db *DB) RecoveryStats() RecoveryStats { return db.recovered }

// SlowQueryConfig reports the slow-query log settings (threshold zero
// means disabled). The SQL session layer, which owns statement text and
// timing, writes the log lines.
func (db *DB) SlowQueryConfig() (time.Duration, io.Writer) {
	return db.slowQueryThreshold, db.slowQueryLog
}

// OpenMemory opens an in-memory database with default settings.
func OpenMemory() *DB {
	db, _ := Open(Options{})
	return db
}

// Close flushes everything, checkpoints the log, and closes the
// underlying files.
func (db *DB) Close() error {
	db.xlockStmt()
	defer db.stmtMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.crashed {
		return nil
	}
	// Roll back whatever transactions are still open: their versions are
	// compensated in place, and the checkpoint below no longer has live
	// uncommitted xids to fear.
	if db.tm != nil {
		for _, tx := range db.tm.activeTxns() {
			if err := db.rollbackTxn(tx, nil); err != nil {
				return err
			}
			db.met.txnRollback.Inc()
		}
	}
	if err := db.persistChurnLocked(); err != nil {
		return err
	}
	if err := db.checkpointLocked(); err != nil {
		return err
	}
	if err := db.pool.Close(); err != nil {
		return err
	}
	db.tables = make(map[string]*Table)
	db.cat = nil
	db.catPool = nil
	if db.wal != nil {
		if err := db.wal.Close(); err != nil {
			return err
		}
		db.wal = nil
	}
	return nil
}

// persistChurnLocked folds each table's in-session churn counter into
// its persisted statistics record — the clean-shutdown half of
// staleness accounting (a crash loses the counter; the row-count drift
// proxy still bounds net change, like PostgreSQL's stats collector).
// All rewrites commit under one marker; a crash mid-way discards them,
// leaving the previous records whole.
func (db *DB) persistChurnLocked() error {
	dirty := false
	for _, t := range db.tables {
		t.statsMu.Lock()
		churn := t.churn
		t.statsMu.Unlock()
		s, ok := db.cat.GetStats(t.oid)
		if !ok || churn == s.Churn {
			continue
		}
		s.Churn = churn
		if err := db.cat.SetStats(s); err != nil {
			return err
		}
		dirty = true
	}
	if !dirty {
		return nil
	}
	return db.commitWAL(nil)
}

// Checkpoint flushes the buffer pool, syncs the data files, and (with
// a WAL attached) logs a checkpoint record and recycles old log
// segments — the role of the CHECKPOINT statement.
func (db *DB) Checkpoint() error {
	db.xlockStmt()
	defer db.stmtMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	if err := db.checkWritable(); err != nil {
		return err
	}
	// A checkpoint recycles log segments, and with them the records of
	// an open transaction that logged changes — refuse while any such
	// transaction is still in flight.
	if db.wal != nil && db.tm != nil && db.tm.anyLoggedActive() {
		return fmt.Errorf("executor: cannot checkpoint with an open transaction that has logged changes")
	}
	for _, t := range db.tables {
		if err := t.Heap.SaveMeta(); err != nil {
			return db.noteWALFailure(err)
		}
	}
	if db.cat != nil {
		if err := db.cat.SaveMeta(); err != nil {
			return db.noteWALFailure(err)
		}
	}
	// Flush and log-rotation failures go through noteWALFailure: a log
	// that died during CHECKPOINT must flip degraded mode now, not at
	// whatever later DML first trips the sticky writer error.
	if err := db.pool.FlushAll(); err != nil {
		return db.noteWALFailure(err)
	}
	for _, bp := range db.pool.Relations() {
		if err := bp.DM().Sync(); err != nil {
			return db.noteWALFailure(err)
		}
	}
	if db.wal != nil {
		if _, err := db.wal.Checkpoint(db.tm.checkpointState()); err != nil {
			return db.noteWALFailure(err)
		}
	}
	return nil
}

// Crash simulates a process crash for tests and demos: the write-ahead
// log is made durable up to its last appended record (the state an
// OS-level crash would leave after the last commit), the buffer pool
// discards its frames without writing them back, and the files close.
// Data pages keep only what earlier evictions and flushes wrote; a
// subsequent Open must redo the rest from the log.
func (db *DB) Crash() error {
	db.xlockStmt()
	defer db.stmtMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.crashed = true
	return db.discardAll()
}

// newPool opens a fresh or existing relation file (or memory) in the pool.
func (db *DB) newPool(fileName string) (*storage.BufferPool, bool, error) {
	var dm storage.DiskManager
	existed := false
	if db.dir == "" {
		dm = storage.NewMem(db.pageSize)
	} else {
		path := filepath.Join(db.dir, fileName)
		if st, err := os.Stat(path); err == nil && st.Size() > 0 {
			existed = true
		}
		fdm, err := storage.OpenFile(path, db.pageSize)
		if err != nil {
			return nil, false, err
		}
		dm = fdm
	}
	dm = db.wrapFaults(fileName, dm)
	if db.wal != nil && !existed {
		if _, err := db.wal.AppendFileCreate(fileName); err != nil {
			// The file never joins the pool, so nothing else will release
			// the descriptor or the just-created empty file.
			dm.Close()
			os.Remove(filepath.Join(db.dir, fileName))
			return nil, false, err
		}
	}
	// Classify the file's miss I/O by what it holds (the extension is
	// authoritative: rel<oid>.tbl, rel<oid>.idx, syscat.dat).
	ioEv := obs.WaitIOHeapRead
	switch {
	case fileName == catalogFile:
		ioEv = obs.WaitIOCatalogRead
	case strings.HasSuffix(fileName, ".idx"):
		ioEv = obs.WaitIOIndexRead
	}
	return db.pool.Open(fileName, dm, ioEv), existed, nil
}

// wrapFaults applies Options.DiskFaults to the disk manager of relation
// file fileName.
func (db *DB) wrapFaults(fileName string, dm storage.DiskManager) storage.DiskManager {
	if db.diskFaults == nil {
		return dm
	}
	dm = db.diskFaults(fileName, dm)
	if fdm, ok := dm.(*storage.FaultDiskManager); ok {
		db.faultDMs = append(db.faultDMs, fdm)
	}
	return dm
}

// Table returns a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("executor: unknown table %q", name)
	}
	return t, nil
}

// Tables lists the known tables.
func (db *DB) Tables() []*Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []*Table
	for _, t := range db.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ColumnNames returns the names of t's columns in order. The slice is
// the table's own, shared by every caller, and must not be modified.
func (t *Table) ColumnNames() []string { return t.names }

func columnNames(cols []Column) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

func (t *Table) colIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("executor: table %s has no column %q", t.Name, name)
}

// validateTuple checks one tuple against the table schema.
func (t *Table) validateTuple(tup catalog.Tuple) error {
	if len(tup) != len(t.Columns) {
		return fmt.Errorf("executor: %s expects %d values, got %d", t.Name, len(t.Columns), len(tup))
	}
	for i, d := range tup {
		if d.Typ != t.Columns[i].Type {
			return fmt.Errorf("executor: column %s expects %v, got %v",
				t.Columns[i].Name, t.Columns[i].Type, d.Typ)
		}
	}
	return nil
}

// checkAttached verifies, under the statement lock, that t is still the
// database's attached table of its name. A caller may have resolved the
// *Table (db.Table, a SQL session's name lookup) before a concurrent
// DROP TABLE committed; its heap and index files are discarded then, and
// running a scan against them would surface as a confusing storage-level
// error. The statement lock makes this check stable for the statement's
// whole lock window: DROP needs the exclusive lock to detach.
func (t *Table) checkAttached() error {
	t.db.mu.Lock()
	cur := t.db.tables[t.Name]
	t.db.mu.Unlock()
	if cur != t {
		return fmt.Errorf("executor: table %q was dropped", t.Name)
	}
	return nil
}

// Get fetches the row at rid as the latest committed snapshot sees it
// (a shared-latch read); nil for a missing, deleted, or uncommitted
// version.
func (t *Table) Get(rid heap.RID) (catalog.Tuple, error) {
	return t.GetTx(nil, rid)
}

// GetTx is Get inside a transaction: tx's own writes are visible,
// other transactions' uncommitted versions are not. tx may be nil.
func (t *Table) GetTx(tx *Txn, rid heap.RID) (catalog.Tuple, error) {
	snap, err := t.beginRead(tx, false)
	if err != nil {
		return nil, err
	}
	defer t.endRead(snap)
	return t.getVisible(snap, rid)
}

// getVisible fetches the tuple at rid if snap can see its version.
// Callers hold the statement lock and t.phys (shared or exclusive).
func (t *Table) getVisible(snap *Snapshot, rid heap.RID) (tup catalog.Tuple, err error) {
	err = t.Heap.GetVersion(rid, func(h heap.TupleHeader, payload []byte) (err error) {
		if snap.Visible(h) {
			tup, err = catalog.DecodeTuple(payload)
		}
		return err
	})
	return tup, err
}

// RowCount returns the table's snapshot-visible live row count under
// the shared latches — dead versions awaiting VACUUM and other
// transactions' uncommitted rows are excluded. (Reaching for
// t.Heap.Count() directly reports raw versions, not live rows.)
func (t *Table) RowCount() int64 {
	if t.lockRead() != nil {
		return 0
	}
	defer t.unlockRead()
	return t.visibleCountLocked()
}
