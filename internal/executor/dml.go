package executor

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/obs"
)

// This file holds the DML statement bodies — INSERT, DELETE, UPDATE,
// and VACUUM — in both their autocommit form and their *Tx form for
// statements running inside an explicit transaction. Every statement,
// implicit or explicit, runs as part of exactly one transaction:
//
//   - The statement holds db.stmtMu shared (so DDL excludes it) and the
//     table's logical write lock Table.mu, owned by its transaction from
//     first touch until COMMIT/ROLLBACK (TxnManager.lockTable).
//   - Page mutation happens under Table.phys held exclusively, in the
//     chunks chunkLen sizes, each appended under a plain marker with no
//     fsync: frames release, but no snapshot admits the chunks' xid until
//     it commits, and a crash between chunks leaves it unresolved.
//   - An implicit transaction commits at statement end — the remaining
//     records plus wal.RecTxnCommit under one marker, then the group-
//     commit fsync. A statement inside an explicit transaction only
//     appends its records (plain marker, no fsync); visibility and
//     durability arrive with the transaction's COMMIT.
//   - DELETE is an MVCC delete: the version's xmax is stamped and the
//     index entries stay (index fetches recheck visibility against the
//     heap); VACUUM reclaims the version and its entries once no
//     snapshot can see it. UPDATE inserts the successors as INSERT
//     does, then stamps the old versions.

// beginDML is the prologue of one DML statement against t: the
// writability and attachment checks, the statement's transaction (tx,
// or a fresh implicit one), and the table's transaction-duration write
// lock. Caller holds db.stmtMu shared. Returns implicit=true when the
// statement must end the transaction itself.
func (t *Table) beginDML(tx *Txn) (stx *Txn, implicit bool, err error) {
	db := t.db
	if err := db.checkWritable(); err != nil {
		return nil, false, err
	}
	if err := t.checkAttached(); err != nil {
		return nil, false, err
	}
	implicit = tx == nil
	if implicit {
		if tx, err = db.tm.begin(true); err != nil {
			return nil, false, err
		}
	} else if tx.done {
		return nil, false, fmt.Errorf("executor: transaction %d already ended", tx.xid)
	}
	if err := db.tm.lockTable(tx, t); err != nil {
		if implicit {
			db.tm.finish(tx)
		}
		return nil, false, err
	}
	tx.stmtUndo = len(tx.undo)
	return tx, implicit, nil
}

// endDML closes a DML statement; err is what failed it, nil when it ran
// to its end. An implicit transaction ends with the statement: it
// commits — its records and commit record append under one marker and
// the log is forced per its sync mode — or, when the statement failed,
// rolls back entirely, so a failed statement leaves nothing behind. A
// statement inside an explicit transaction appends its records under a
// plain marker *without* fsync or commit record: the frames release,
// and the statement stays invisible (and non-durable) until the
// transaction's COMMIT. A failed one applies its own undo entries, as
// ROLLBACK would, so it leaves nothing the transaction can see, and the
// transaction goes on; its records append best effort, so the pool is
// not left holding unevictable frames. Returns err, or what ending the
// statement failed with.
//
// mutated reports whether the statement actually staged page mutations.
// A statement that matched zero rows left no trace, so it must not be
// flagged as logged: that would force an empty commit record (and its
// group-commit fsync) per no-op autocommit statement, and make
// CHECKPOINT refuse while an explicit transaction that only ran no-op
// statements stays open.
func (t *Table) endDML(stx *Txn, implicit, mutated bool, err error) error {
	db := t.db
	logged := mutated && db.wal != nil
	if logged {
		stx.logged = true
	}
	switch {
	case implicit && err == nil:
		return db.commitTxn(stx)
	case implicit:
		return db.rollbackTxn(stx, err)
	case err != nil:
		err = db.undoTo(stx, stx.stmtUndo, err)
	}
	if logged {
		if aerr := db.appendPools(tablePools(t), 0); err == nil {
			err = aerr
		}
	}
	return err
}

// dmlShape is what differs between INSERT, DELETE and UPDATE outside
// the work of one chunk.
type dmlShape struct {
	verb  string // "INSERT" — with the table and row count, the fault hooks' statement label
	rows  int    // rows the statement applies to
	churn int    // versions a row churns, each on a heap page: an update's old and new one
	// size reports row i's bytes for the chunk rule: the version it stores
	// (col < 0; 0 if none) or its key in column col (at most the version a
	// VACUUM removes). nil for a DELETE, which touches no index.
	size func(i, col int) int
	// The statement's two cumulative counters.
	stmts, tuples *obs.Counter
}

// runDML is the body every DML statement shares once it knows its rows:
// apply(base, end) mutates the heap and the indexes for rows [base, end)
// under the table's physical latch, chunk by chunk (rowChunk), appending
// between chunks as the file's header says; then the statement ends
// (endDML) and is counted. The crash points run before anything reached
// the log and after each intermediate append. Caller holds db.stmtMu
// shared and has run beginDML.
func (t *Table) runDML(stx *Txn, implicit bool, sh dmlShape, apply func(base, end int) error) error {
	db := t.db
	var stmt string
	if db.faults.BeforeDMLCommit != nil || db.faults.BetweenDMLChunks != nil {
		stmt = sh.verb + " " + t.Name + " " + strconv.Itoa(sh.rows) // no Sprintf: sh would escape
	}
	if f := db.faults.BeforeDMLCommit; f != nil {
		// The crash point: nothing of the statement has reached the log.
		if err := f(stmt); err != nil {
			return faultErr{err}
		}
	}
	for base, chunksDone := 0, 0; base < sh.rows; {
		end := base + t.rowChunk(base, &sh)
		t.phys.Lock()
		err := apply(base, end)
		t.phys.Unlock()
		if err != nil {
			return t.endDML(stx, implicit, true, err)
		}
		if base = end; end == sh.rows {
			break
		}
		if db.wal != nil {
			stx.logged = true
			// A chunk that moved an index's root carries the meta page
			// that says where it now is: the index saved it when it moved.
			if err := db.appendPools(tablePools(t), 0); err != nil {
				return t.endDML(stx, implicit, true, err)
			}
		}
		chunksDone++
		if f := db.faults.BetweenDMLChunks; f != nil {
			if err := f(stmt, chunksDone); err != nil {
				return faultErr{err}
			}
		}
	}
	if err := t.endDML(stx, implicit, sh.rows > 0, nil); err != nil {
		return err
	}
	t.bumpChurn(sh.churn * sh.rows)
	sh.stmts.Inc()
	sh.tuples.Add(int64(sh.rows))
	return nil
}

// qualify emits every row pred selects (all rows when pred is nil)
// under stx's own snapshot: the transaction's own inserts qualify, other
// transactions' uncommitted rows are not even visible. Already-stamped
// versions (xmax set by stx or a committed deleter) fail Visible and are
// skipped, so a double DELETE never stacks xmax stamps. It returns the
// plan the scan ran.
func (t *Table) qualify(stx *Txn, implicit bool, pred *Pred, emit func(Row) bool) (*Plan, error) {
	snap := t.db.tm.snapshot(stx)
	plan, err := t.selectLocked(snap, pred, emit)
	t.db.tm.release(snap)
	if err != nil {
		return nil, t.endDML(stx, implicit, false, err)
	}
	return plan, nil
}

// Insert adds a row as its own implicit transaction, maintaining all
// indexes, and returns its RID. Writers on other tables proceed
// concurrently and their commits share one log fsync; readers of this
// table are never blocked for more than the page mutation itself.
func (t *Table) Insert(tup catalog.Tuple) (heap.RID, error) {
	return t.InsertTx(nil, tup)
}

// InsertTx is Insert inside transaction tx (nil for autocommit).
func (t *Table) InsertTx(tx *Txn, tup catalog.Tuple) (heap.RID, error) {
	rids, err := t.InsertBatchTx(tx, []catalog.Tuple{tup})
	if err != nil {
		return heap.InvalidRID, err
	}
	return rids[0], nil
}

// InsertBatch adds every row of tups as ONE batched statement in its
// own implicit transaction — the executor half of multi-row INSERT.
// All tuples are validated and encoded up front, the heap fills each
// data page to capacity under a single pin and covers it with a single
// batch log record, and each index takes a chunk's keys in one Insert,
// which orders them (so consecutive inserts descend through the same
// just-decoded nodes; see insertChunk). The whole statement is crash-atomic — including
// batches larger than one chunk (rowChunk), whose chunks append under
// plain markers but stay invisible until the final commit record — and
// fail-atomic: an error mid-batch rolls the implicit transaction back.
// The returned RIDs parallel tups.
func (t *Table) InsertBatch(tups []catalog.Tuple) ([]heap.RID, error) {
	return t.InsertBatchTx(nil, tups)
}

// InsertBatchTx is InsertBatch inside transaction tx (nil for
// autocommit): the rows become visible to other snapshots — and
// durable — only when tx commits.
func (t *Table) InsertBatchTx(tx *Txn, tups []catalog.Tuple) ([]heap.RID, error) {
	if len(tups) == 0 {
		return nil, nil
	}
	// Validate and encode before taking any lock or touching any page,
	// so a malformed row fails the statement with nothing applied.
	encoded := make([][]byte, len(tups))
	for i, tup := range tups {
		if err := t.validateTuple(tup); err != nil {
			return nil, fmt.Errorf("executor: row %d: %w", i, err)
		}
		encoded[i] = catalog.EncodeTuple(tup)
	}
	db := t.db
	rlockTimed(&db.stmtMu, db.met.lockWaitNs, db.waits, obs.WaitLockCatalog)
	defer db.stmtMu.RUnlock()
	stx, implicit, err := t.beginDML(tx)
	if err != nil {
		return nil, err
	}
	rids := make([]heap.RID, 0, len(tups))
	err = t.runDML(stx, implicit, dmlShape{
		verb: "INSERT", rows: len(tups), churn: 1, size: storing(tups),
		stmts: db.met.stmtInsert, tuples: db.met.tuplesInserted,
	}, func(base, end int) error {
		crids, err := t.insertChunk(stx, tups[base:end], encoded[base:end])
		rids = append(rids, crids...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rids, nil
}

// insertChunk stores tups, encoded, as new versions of stx: the chunk body
// of INSERT and of UPDATE, whose successors it stores. The heap checks
// every record's size before it touches a page and fills each page under
// one pin and one batch record; then each index takes the chunk's keys in
// one Insert. Returns the versions' RIDs, which parallel tups.
func (t *Table) insertChunk(stx *Txn, tups []catalog.Tuple, encoded [][]byte) ([]heap.RID, error) {
	rids, err := t.Heap.InsertBatchTx(encoded, stx.xid)
	for _, rid := range rids {
		stx.undo = append(stx.undo, undoRec{t: t, op: undoInsert, rid: rid})
	}
	if err != nil {
		return nil, err
	}
	keys := make([]catalog.Datum, len(tups))
	for _, ix := range t.Indexes {
		for i, tup := range tups {
			keys[i] = tup[ix.Column]
		}
		if err := ix.Idx.Insert(keys, rids); err != nil {
			return nil, fmt.Errorf("executor: index %s: %w", ix.Name, err)
		}
	}
	return rids, nil
}

// storing is the dmlShape.size of a statement that stores tups, as
// catalog.EncodeTuple lays them out.
func storing(tups []catalog.Tuple) func(i, col int) int {
	return func(i, col int) int {
		if col < 0 {
			return catalog.EncodedSize(tups[i])
		}
		return catalog.DatumSize(tups[i][col])
	}
}

// rowChunk is chunkLen for sh's rows from base: in the heap each row
// touches sh.churn pages and fills the bytes of the version it stores, and
// in each index its key makes the entries indexAt counts. INSERT and UPDATE
// store versions and keys; DELETE and VACUUM fill no page.
func (t *Table) rowChunk(base int, sh *dmlShape) int {
	keys := int(t.Heap.Count())
	return t.db.chunkLen(sh.rows-base, 1+len(t.Indexes), func(f, i int) (pages, touch, bytes int) {
		stored := 0
		if sh.size != nil {
			stored = sh.size(base+i, -1)
		}
		if f == 0 {
			pages, touch, bytes = int(t.Heap.NumPages()), sh.churn, stored+recordOverhead
		} else if sh.size != nil {
			ix := t.Indexes[f-1]
			pages, touch, bytes = indexAt(ix.OpClass, ix.pool, keys, sh.size(base+i, ix.Column))
		}
		if stored == 0 {
			bytes = 0
		}
		return pages, touch, bytes
	})
}

// DeleteWhere deletes every row matching pred (all rows when pred is
// nil) as its own implicit transaction, returning how many versions
// were stamped — an MVCC delete: a version's xmax is stamped and it
// stays in place for older snapshots until VACUUM. The qualifying scan
// and the stamping run under the statement's snapshot and the table's
// transaction write lock; readers on the same table proceed
// concurrently and never see a partial delete.
func (t *Table) DeleteWhere(pred *Pred) (int, error) {
	n, _, err := t.DeleteWhereTx(nil, pred)
	return n, err
}

// DeleteWhereTx is DeleteWhere inside transaction tx (nil for
// autocommit). It also returns the plan of the scan that found the
// rows.
func (t *Table) DeleteWhereTx(tx *Txn, pred *Pred) (int, *Plan, error) {
	return t.stampWhere(tx, pred, nil)
}

// ColUpdate assigns one column of an UPDATE's SET list.
type ColUpdate struct {
	Column int
	Value  catalog.Datum
}

// UpdateWhere updates every row matching pred (all rows when pred is
// nil) as its own implicit transaction, returning how many rows were
// updated. MVCC update: the old version's xmax is stamped and a
// successor version is inserted (with index entries for every index —
// old entries stay and are rechecked away at fetch time until VACUUM).
func (t *Table) UpdateWhere(pred *Pred, sets []ColUpdate) (int, error) {
	n, _, err := t.UpdateWhereTx(nil, pred, sets)
	return n, err
}

// UpdateWhereTx is UpdateWhere inside transaction tx (nil for
// autocommit). It also returns the plan of the scan that found the
// rows.
func (t *Table) UpdateWhereTx(tx *Txn, pred *Pred, sets []ColUpdate) (int, *Plan, error) {
	if len(sets) == 0 {
		return 0, nil, fmt.Errorf("executor: UPDATE needs a SET list")
	}
	for _, set := range sets {
		if set.Column < 0 || set.Column >= len(t.Columns) {
			return 0, nil, fmt.Errorf("executor: UPDATE column ordinal %d out of range", set.Column)
		}
		if set.Value.Typ != t.Columns[set.Column].Type {
			return 0, nil, fmt.Errorf("executor: column %s expects %v, got %v",
				t.Columns[set.Column].Name, t.Columns[set.Column].Type, set.Value.Typ)
		}
	}
	return t.stampWhere(tx, pred, sets)
}

// stampWhere is the body of DELETE (sets nil) and UPDATE: it stamps the
// xmax of every version pred selects under stx's snapshot, and an UPDATE
// first stores each one's successor, with sets applied, as INSERT stores
// its rows. The scan decodes each row afresh, so its tuple becomes the
// successor in place. It returns the versions stamped and the scan's plan.
func (t *Table) stampWhere(tx *Txn, pred *Pred, sets []ColUpdate) (int, *Plan, error) {
	db := t.db
	rlockTimed(&db.stmtMu, db.met.lockWaitNs, db.waits, obs.WaitLockCatalog)
	defer db.stmtMu.RUnlock()
	stx, implicit, err := t.beginDML(tx)
	if err != nil {
		return 0, nil, err
	}
	var olds []heap.RID
	var succs []catalog.Tuple
	plan, err := t.qualify(stx, implicit, pred, func(r Row) bool {
		for _, set := range sets {
			r.Tuple[set.Column] = set.Value
		}
		if olds = append(olds, r.RID); sets != nil {
			succs = append(succs, r.Tuple)
		}
		return true
	})
	if err != nil {
		return 0, nil, err
	}
	sh := dmlShape{verb: "DELETE", rows: len(olds), churn: 1, stmts: db.met.stmtDelete, tuples: db.met.tuplesDeleted}
	if sets != nil {
		sh = dmlShape{verb: "UPDATE", rows: len(olds), churn: 2, size: storing(succs), stmts: db.met.stmtUpdate, tuples: db.met.tuplesUpdated}
	}
	err = t.runDML(stx, implicit, sh, func(base, end int) error {
		if sets != nil {
			encoded := make([][]byte, end-base)
			for i, succ := range succs[base:end] {
				encoded[i] = catalog.EncodeTuple(succ)
			}
			if _, err := t.insertChunk(stx, succs[base:end], encoded); err != nil {
				return err
			}
		}
		for _, old := range olds[base:end] {
			if err := t.Heap.SetXmax(old, stx.xid); err != nil {
				return err
			}
			stx.undo = append(stx.undo, undoRec{t: t, op: undoSetXmax, rid: old})
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return len(olds), plan, nil
}

// Vacuum reclaims dead tuple versions — rolled-back inserts and
// committed deletes no snapshot can see anymore — from one table (or
// every table when name is empty), deleting the dead versions' index
// entries and heap slots. Runs under the exclusive statement lock, like
// other maintenance statements, in pool-bounded committed chunks.
// Returns how many versions were reclaimed.
func (db *DB) Vacuum(name string) (_ int, err error) {
	if err := db.beginDDL(); err != nil {
		return 0, err
	}
	defer func() { db.endDDL(err) }()
	var tables []*Table
	if name == "" {
		tables = db.Tables()
	} else {
		t, err := db.Table(name)
		if err != nil {
			return 0, err
		}
		tables = []*Table{t}
	}
	total := 0
	for _, t := range tables {
		n, err := db.vacuumTable(t)
		total += n
		if err != nil {
			return total, err
		}
	}
	db.met.tuplesVacuumed.Add(int64(total))
	return total, nil
}

// vacuumTable reclaims t's dead versions. Caller holds the exclusive
// statement lock, so no scan, statement, or snapshot acquisition is in
// flight; the reclamation horizon still protects every version an open
// transaction or registered snapshot could see.
//
// The dead versions are collected in heap order and removed in committed
// chunks. In each, every index drops the chunk's entries in one BulkDelete
// pass over its file (each RID tested by reaped), and then the heap slots
// go. No dead tuple is decoded: the indexes find their entries by RID, not
// by key.
func (db *DB) vacuumTable(t *Table) (int, error) {
	horizon := db.tm.horizon()
	var dead []heap.RID
	var sizes []int // each dead version's payload bytes: at least its key's
	err := t.Heap.ScanVersions(func(rid heap.RID, h heap.TupleHeader, payload []byte) bool {
		// Dead: a rolled-back insert (aborted versions are invisible to
		// every snapshot), or a committed delete older than every live
		// snapshot. An uncommitted deleter's xid is >= horizon — active
		// transactions bound it — so in-flight deletes are never
		// reclaimed.
		if h.Flags&heap.FlagXminAborted != 0 || (h.Xmax != 0 && h.Xmax < horizon) {
			dead, sizes = append(dead, rid), append(sizes, len(payload))
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	// When the table's files fit in half the pool, one chunk takes every
	// version, and each index is read once per VACUUM, not once per chunk.
	sh := dmlShape{rows: len(dead), churn: 1, size: func(i, col int) int {
		if col < 0 {
			return 0
		}
		return sizes[i]
	}}
	for done := 0; done < len(dead); {
		part := dead[done : done+t.rowChunk(done, &sh)]
		inPart := reaped(part)
		for _, ix := range t.Indexes {
			// An aborted version may never have been indexed (CREATE
			// INDEX skips them): its RID simply matches no entry.
			if err := ix.Idx.BulkDelete(inPart); err != nil {
				return done, fmt.Errorf("executor: vacuum index %s: %w", ix.Name, err)
			}
		}
		for _, rid := range part {
			if err := t.Heap.Delete(rid); err != nil {
				return done, err
			}
		}
		done += len(part)
		if err := db.commitGroup(tablePools(t), 0, t); err != nil {
			return done, err
		}
	}
	return len(dead), nil
}

// reaped returns the test that an RID is one of dead, a run of RIDs in
// heap order, by binary search: PostgreSQL's vac_tid_reaped. An RID outside
// the run's range costs one comparison, and when VACUUM has several chunks
// that is most of an index's entries for each.
func reaped(dead []heap.RID) func(heap.RID) bool {
	keys := make([]uint64, len(dead))
	for i, rid := range dead {
		keys[i] = ridKey(rid)
	}
	first, span := keys[0], keys[len(keys)-1]-keys[0]
	return func(rid heap.RID) bool {
		k := ridKey(rid)
		if k-first > span {
			return false
		}
		_, found := slices.BinarySearch(keys, k)
		return found
	}
}

// ridKey orders RIDs as a heap scan meets them: by page, then slot.
func ridKey(rid heap.RID) uint64 { return uint64(rid.Page)<<16 | uint64(rid.Slot) }
