package executor

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file is the transaction layer: transaction-ID allocation backed
// by the system catalog, per-statement snapshots, tuple visibility, and
// the BEGIN/COMMIT/ROLLBACK life cycle. The engine runs PostgreSQL-style
// READ COMMITTED multi-version concurrency control:
//
//   - Every row version carries an 18-byte header (heap.TupleHeader)
//     with xmin (the inserting transaction) and xmax (the deleting one).
//     DELETE and UPDATE never remove a version in place — they stamp
//     xmax (UPDATE additionally inserts the successor version), and
//     VACUUM reclaims versions no snapshot can see anymore.
//   - Readers never take the table's logical write lock. A statement
//     acquires a fresh Snapshot, holds the table's physical page lock
//     (Table.phys) shared for its plan+scan window, and filters every
//     version through Snapshot.Visible. Writers exclude each other per
//     table through Table.mu, held by the owning transaction from first
//     touch until COMMIT/ROLLBACK, and take Table.phys exclusively only
//     around actual page mutation — so a reader can scan a table while
//     a writer's transaction on the same table is open, and sees exactly
//     the versions its snapshot allows.
//   - Commit is a WAL record (wal.RecTxnCommit) appended atomically with
//     the transaction's final statement group. Statements inside an open
//     transaction append their records under a plain group marker
//     *without* fsync: the marker releases their no-steal frames. After
//     a crash, redo replays every record alike, and the heap's pass that
//     follows it at Open (heap.File.Recount) marks every version of a
//     transaction the crash left unresolved aborted and clears its
//     xmaxes, also of a statement crashed between its chunks (which
//     share its xid). A transaction is unresolved when the surviving log
//     holds no commit record for it and the last checkpoint had not seen
//     it resolved: the checkpoint record carries the next xid and the
//     xids open at it (heap.Unresolved).
//   - ROLLBACK walks the transaction's in-memory undo list backwards,
//     marking inserted versions aborted and clearing stamped xmax
//     fields. Nothing marks its end in the log: a crash anywhere during
//     rollback leaves the transaction unresolved, and the heap's pass
//     reaches the same end state.
//
// Transaction IDs are allocated from a counter whose high-water mark
// persists in the system catalog ('X' record) in strides, so no xid is
// ever reused across restarts — visibility comparisons are plain
// numeric. Frozen rows (xmin 0: system catalog records, which
// heap.File.Insert stores outside any transaction) are visible to every
// snapshot.

// xidStride is how many transaction IDs one catalog update leases. The
// high-water mark is appended to the log before the first xid of a
// stride is handed out and becomes durable with (at the latest) the
// first commit fsync that uses the stride, so a crash can only waste
// the unissued remainder, never reissue an xid that mattered.
const xidStride = 4096

// DefaultLockTimeout bounds how long a DML statement waits for a table
// lock held by another open transaction before failing.
const DefaultLockTimeout = 10 * time.Second

// Snapshot fixes what one statement can see: every transaction that
// committed before the snapshot was taken, plus the owning transaction's
// own writes. Snapshots are registered with the TxnManager while in use
// so VACUUM's horizon never reclaims a version an in-flight statement
// could still return.
type Snapshot struct {
	// xid is the owning transaction's ID; 0 for a plain read statement.
	xid uint64
	// xmax is the first transaction ID not yet assigned when the
	// snapshot was taken: anything >= xmax started after us.
	xmax uint64
	// active holds the transactions in progress at snapshot time
	// (excluding our own): committed later or not, their writes are
	// invisible to this snapshot.
	active map[uint64]bool
}

// Visible reports whether a row version with header h is visible to the
// snapshot: its inserter must have committed before the snapshot (or be
// the snapshot's own transaction), and its deleter — if any — must not
// have.
func (s *Snapshot) Visible(h heap.TupleHeader) bool {
	if h.Flags&heap.FlagXminAborted != 0 {
		return false
	}
	// Frozen versions (xmin 0) are visible to everyone; our own
	// inserts are visible to us regardless of commit state.
	if h.Xmin != 0 && h.Xmin != s.xid {
		if h.Xmin >= s.xmax || s.active[h.Xmin] {
			return false // inserter had not committed at snapshot time
		}
	}
	if h.Xmax == 0 {
		return true
	}
	if s.xid != 0 && h.Xmax == s.xid {
		return false // we deleted it ourselves
	}
	if h.Xmax >= s.xmax || s.active[h.Xmax] {
		return true // deleter had not committed at snapshot time
	}
	return false
}

// undoOp discriminates the in-memory undo records of one transaction.
type undoOp uint8

const (
	// undoInsert compensates an inserted version: mark it aborted.
	undoInsert undoOp = iota
	// undoSetXmax compensates a delete stamp: clear the version's xmax.
	undoSetXmax
)

type undoRec struct {
	t   *Table
	op  undoOp
	rid heap.RID
}

// Txn is one transaction: implicit (a single autocommitted statement)
// or explicit (BEGIN ... COMMIT/ROLLBACK). It owns the write locks of
// every table it has touched until it ends, and records everything it
// must compensate on ROLLBACK. A Txn is not safe for concurrent use by
// multiple goroutines.
type Txn struct {
	db       *DB
	xid      uint64
	implicit bool
	// tables holds the write locks this transaction owns (Table.mu,
	// acquired through TxnManager.lockTable), released when it ends.
	tables map[*Table]struct{}
	undo   []undoRec
	// stmtUndo is len(undo) when the running statement began: a failed
	// statement undoes back to it.
	stmtUndo int
	// logged is set once any of the transaction's records reached the
	// write-ahead log; CHECKPOINT refuses to run while such a
	// transaction is open.
	logged bool
	done   bool
}

// Xid returns the transaction's ID.
func (tx *Txn) Xid() uint64 { return tx.xid }

// TxnManager allocates transaction IDs, tracks the active transaction
// and registered snapshot sets (the VACUUM horizon), and owns the
// table-write-lock bookkeeping that lets DDL refuse to touch a table an
// open transaction holds.
type TxnManager struct {
	db *DB

	mu      sync.Mutex
	nextXid uint64
	// lease is the exclusive upper bound of the persisted stride:
	// allocating nextXid >= lease first commits a new high-water mark.
	lease  uint64
	active map[uint64]*Txn
	snaps  map[*Snapshot]struct{}
	owners map[*Table]*Txn
}

func newTxnManager(db *DB) *TxnManager {
	high := uint64(0)
	if db.cat != nil {
		high = db.cat.XidHigh()
	}
	return &TxnManager{
		db:      db,
		nextXid: high + 1,
		lease:   high + 1,
		active:  make(map[uint64]*Txn),
		snaps:   make(map[*Snapshot]struct{}),
		owners:  make(map[*Table]*Txn),
	}
}

// begin creates and registers a transaction. The xid is allocated and
// the Txn entered into tm.active under ONE tm.mu critical section:
// were the lock dropped in between, a snapshot taken in the gap would
// have xmax past the new xid without listing it active, so Visible
// would read the still-running transaction as committed and leak its
// dirty writes to concurrent readers.
//
// Allocation persists a new stride of the catalog's high-water mark
// when the current lease runs out. Callers hold the shared statement
// lock (so no DDL is mutating the catalog concurrently); the stride
// append stages only the catalog's own pool, never sweeping a
// concurrent DML statement's deferred records under its marker. No
// fsync: the log is sequential, so the first commit fsync of any
// transaction using the stride also makes the stride record durable —
// and if nothing from the stride ever gets an fsync, losing the
// high-water mark loses nothing that mattered.
func (tm *TxnManager) begin(implicit bool) (*Txn, error) {
	tx := &Txn{
		db:       tm.db,
		implicit: implicit,
		tables:   make(map[*Table]struct{}),
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.nextXid >= tm.lease {
		high := tm.nextXid + xidStride - 1
		if err := tm.db.cat.SetXidHigh(high); err != nil {
			return nil, err
		}
		if err := tm.db.appendPools([]*storage.BufferPool{tm.db.catPool}, 0); err != nil {
			return nil, err
		}
		tm.lease = high + 1
	}
	tx.xid = tm.nextXid
	tm.nextXid++
	tm.active[tx.xid] = tx
	return tx, nil
}

// snapshot takes a new snapshot for one statement, owned by tx (nil for
// a plain read). Release it with release when the statement ends — the
// VACUUM horizon holds back reclamation while it is registered.
func (tm *TxnManager) snapshot(tx *Txn) *Snapshot {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	s := &Snapshot{xmax: tm.nextXid}
	if tx != nil {
		s.xid = tx.xid
	}
	if len(tm.active) > 0 {
		s.active = make(map[uint64]bool, len(tm.active))
		for xid := range tm.active {
			if xid != s.xid {
				s.active[xid] = true
			}
		}
	}
	tm.snaps[s] = struct{}{}
	return s
}

func (tm *TxnManager) release(s *Snapshot) {
	tm.mu.Lock()
	delete(tm.snaps, s)
	tm.mu.Unlock()
}

// horizon returns the oldest transaction ID that could still matter to
// any active transaction or registered snapshot: every committed-dead
// version whose xmax is older is invisible to everyone and safe to
// reclaim.
func (tm *TxnManager) horizon() uint64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	h := tm.nextXid
	for xid := range tm.active {
		if xid < h {
			h = xid
		}
	}
	for s := range tm.snaps {
		if s.xmax < h {
			h = s.xmax
		}
		for xid := range s.active {
			if xid < h {
				h = xid
			}
		}
	}
	return h
}

// tableLock is the per-table logical write lock: a mutex built on a
// one-slot channel, because the wait must be able to give up after the
// database's lock timeout — the owner may be an idle open transaction
// that never finishes, and an unbounded block here would also stall any
// DDL queued behind the waiter's shared statement lock. A blocked
// acquirer parks on the channel and wakes the instant the holder
// releases, with no polling.
type tableLock struct {
	ch chan struct{}
}

func newTableLock() tableLock { return tableLock{ch: make(chan struct{}, 1)} }

// TryLock acquires the lock iff it is free.
func (l *tableLock) TryLock() bool {
	select {
	case l.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

// LockTimeout acquires the lock, giving up after d. Reports whether the
// lock was acquired.
func (l *tableLock) LockTimeout(d time.Duration) bool {
	select {
	case l.ch <- struct{}{}:
		return true
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case l.ch <- struct{}{}:
		return true
	case <-timer.C:
		return false
	}
}

// Unlock releases the lock. Unlocking a lock that is not held would
// block forever — the ownership bookkeeping in TxnManager prevents it.
func (l *tableLock) Unlock() { <-l.ch }

// lockTable acquires t's write lock for tx (a no-op if tx already owns
// it), waiting at most the database's lock timeout.
func (tm *TxnManager) lockTable(tx *Txn, t *Table) error {
	if _, ok := tx.tables[t]; ok {
		return nil
	}
	if !t.mu.TryLock() {
		m := tm.db.waits.Begin(obs.WaitLockTable)
		ok := t.mu.LockTimeout(tm.db.lockTimeout)
		tm.db.met.lockWaitNs.Add(tm.db.waits.End(m))
		if !ok {
			return fmt.Errorf("executor: timed out waiting for write lock on table %q (held by an open transaction?)", t.Name)
		}
	}
	tm.mu.Lock()
	tm.owners[t] = tx
	tm.mu.Unlock()
	tx.tables[t] = struct{}{}
	return nil
}

// lockedBy reports the transaction owning t's write lock, nil if none.
func (tm *TxnManager) lockedBy(t *Table) *Txn {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.owners[t]
}

// anyLoggedActive reports whether any open transaction has records in
// the write-ahead log.
func (tm *TxnManager) anyLoggedActive() bool {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	for _, tx := range tm.active {
		if tx.logged {
			return true
		}
	}
	return false
}

// checkpointState is the transaction state a checkpoint record carries:
// the next xid, and the xids of the open transactions, which may write
// after the checkpoint and never commit. Caller holds the statement lock
// exclusively, so no transaction begins or ends meanwhile.
func (tm *TxnManager) checkpointState() wal.CheckpointState {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	st := wal.CheckpointState{NextXid: tm.nextXid}
	for xid := range tm.active {
		st.Running = append(st.Running, xid)
	}
	return st
}

// activeTxns snapshots the open transaction list (Close rolls each one
// back).
func (tm *TxnManager) activeTxns() []*Txn {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make([]*Txn, 0, len(tm.active))
	for _, tx := range tm.active {
		out = append(out, tx)
	}
	return out
}

// finish releases everything tx owns and unregisters it. The undo list
// and the index batches are dropped — callers have either committed
// (merged) or already compensated.
func (tm *TxnManager) finish(tx *Txn) {
	tm.mu.Lock()
	for t := range tx.tables {
		if tm.owners[t] == tx {
			delete(tm.owners, t)
		}
	}
	delete(tm.active, tx.xid)
	tm.mu.Unlock()
	for t := range tx.tables {
		t.batch = indexBatch{}
		t.mu.Unlock()
	}
	tx.tables = make(map[*Table]struct{})
	tx.undo = nil
	tx.done = true
}

// Begin starts an explicit transaction. Its statements run through the
// *Tx entry points (InsertBatchTx, DeleteWhereTx, UpdateWhereTx,
// SelectTx, ...) and nothing they change is visible to other snapshots
// — or durable — until Commit. The caller owns the Txn: it must end it
// with Commit or Rollback (Close rolls back whatever is left open).
func (db *DB) Begin() (*Txn, error) {
	rlockTimed(&db.stmtMu, db.met.lockWaitNs, db.waits, obs.WaitLockCatalog)
	defer db.stmtMu.RUnlock()
	tx, err := db.tm.begin(false)
	if err != nil {
		return nil, err
	}
	db.met.txnBegin.Inc()
	return tx, nil
}

// Commit makes every change of the transaction durable and visible: the
// commit record is appended atomically after the transaction's already-
// logged statement groups, and the log is forced per its sync mode. A
// transaction that changed nothing commits without touching the log.
// A COMMIT that fails aborts the transaction (PostgreSQL semantics):
// its versions are compensated and its locks released — leaving it
// open would pin the VACUUM horizon and block CHECKPOINT until Close.
func (tx *Txn) Commit() error {
	if tx.done {
		return fmt.Errorf("executor: transaction %d already ended", tx.xid)
	}
	db := tx.db
	rlockTimed(&db.stmtMu, db.met.lockWaitNs, db.waits, obs.WaitLockCatalog)
	defer db.stmtMu.RUnlock()
	if err := db.commitTxn(tx); err != nil {
		db.met.txnRollback.Inc()
		return err
	}
	db.met.txnCommit.Inc()
	return nil
}

// commitTxn ends tx by committing it: each table's index batch is merged
// (mergeBatch), then the commit record (with any
// pending deferred records of its tables) appends under one marker and
// the log is forced — commitGroup over the tables the transaction
// touched; a transaction that logged nothing commits without touching
// the log. A COMMIT that fails aborts the transaction instead. Either
// way tx is finished. Caller holds the statement lock (shared or
// exclusive).
func (db *DB) commitTxn(tx *Txn) error {
	var err error
	for t := range tx.tables {
		if err = t.mergeBatch(); err != nil {
			break
		}
	}
	if isFault(err) {
		return err
	}
	if err == nil && db.wal != nil && tx.logged {
		tables := make([]*Table, 0, len(tx.tables))
		var pools []*storage.BufferPool
		for t := range tx.tables {
			tables = append(tables, t)
			pools = append(pools, tablePools(t)...)
		}
		err = db.commitGroup(pools, tx.xid, tables...)
	}
	if err != nil {
		return db.rollbackTxn(tx, err)
	}
	db.tm.finish(tx)
	return nil
}

// Rollback undoes the transaction: every version it inserted is marked
// aborted and every xmax it stamped is cleared. Always releases the
// transaction's locks, even on error. Rolling back a transaction that
// changed nothing is free.
func (tx *Txn) Rollback() error {
	if tx.done {
		return fmt.Errorf("executor: transaction %d already ended", tx.xid)
	}
	db := tx.db
	rlockTimed(&db.stmtMu, db.met.lockWaitNs, db.waits, obs.WaitLockCatalog)
	defer db.stmtMu.RUnlock()
	err := db.rollbackTxn(tx, nil)
	db.met.txnRollback.Inc()
	return err
}

// rollbackTxn rolls tx back because cause failed its statement or its
// COMMIT (nil for ROLLBACK): it applies the whole undo list and finishes
// tx, releasing its locks even when the compensation fails, rather than
// leaking them. Returns what undoTo returns.
func (db *DB) rollbackTxn(tx *Txn, cause error) error {
	err := db.undoTo(tx, 0, cause)
	db.tm.finish(tx)
	return err
}

// undoTo applies tx's undo entries from mark on backwards and drops them
// from the list, so tx stands as it stood when it held mark entries: all
// of them for a rollback, the failed statement's own for a statement
// that failed inside a transaction. Caller holds the statement lock
// (shared or exclusive — Close calls in here under its exclusive lock).
// The undo appends ride under plain group markers with no fsync: if a
// crash interrupts them, the heap's pass after recovery reaches the same
// end state from the missing commit record. Returns cause, with what the
// compensation failed with appended (the cause stays primary), or that
// failure when cause is nil.
func (db *DB) undoTo(tx *Txn, mark int, cause error) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// An undo op touches a heap page; the transaction's heaps count as one
	// file, and each chunk appends the records of all its tables.
	pages, pools := 0, []*storage.BufferPool(nil)
	for t := range tx.tables {
		pages, pools = pages+int(t.Heap.NumPages()), append(pools, tablePools(t)...)
	}
	for i := len(tx.undo); i > mark; {
		for lo := i - db.chunkLen(i-mark, 1, func(int, int) (int, int, int) { return pages, 1, 0 }); i > lo; i-- {
			u := tx.undo[i-1]
			u.t.phys.Lock()
			var err error
			switch u.op {
			case undoInsert:
				err = u.t.Heap.MarkAborted(u.rid)
			case undoSetXmax:
				err = u.t.Heap.ClearXmax(u.rid)
			}
			u.t.phys.Unlock()
			keep(err)
		}
		keep(db.appendPools(pools, 0))
	}
	tx.undo = tx.undo[:mark]
	if cause == nil || firstErr == nil {
		return cmp.Or(cause, firstErr)
	}
	return fmt.Errorf("%w (rollback also failed: %v)", cause, firstErr)
}
