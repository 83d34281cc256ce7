package executor

import (
	"fmt"

	"repro/internal/am"
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
//   - Page mutation happens under Table.phys held exclusively, in
//     pool-bounded chunks; between chunks the latch could be dropped,
//     and each chunk's records append under a plain group marker with
//     no fsync — frames release, but nothing becomes visible, because
//     every chunk carries the transaction's xid and no snapshot admits
//     an uncommitted xid. That is the fix for the chunked-DML atomicity
//     hole: a crash between chunks recovers with the whole statement
//     invisible (recovery's abort fixup marks the xid's versions dead).
//   - An implicit transaction commits at statement end — the remaining
//     records plus wal.RecTxnCommit under one marker, then the group-
//     commit fsync. A statement inside an explicit transaction only
//     appends its records (plain marker, no fsync); visibility and
//     durability arrive with the transaction's COMMIT.
//   - DELETE is an MVCC delete: the version's xmax is stamped and the
//     index entries stay (index fetches recheck visibility against the
//     heap); VACUUM reclaims the version and its entries once no
//     snapshot can see it. UPDATE stamps the old version and inserts
//     the successor.

// beginDML is the prologue of one DML statement against t: poison and
// attachment checks, the statement's transaction (tx, or a fresh
// implicit one), and the table's transaction-duration write lock.
// Caller holds db.stmtMu shared. Returns implicit=true when the
// statement must end the transaction itself.
func (t *Table) beginDML(tx *Txn) (stx *Txn, implicit bool, err error) {
	db := t.db
	if err := db.poisoned(); err != nil {
		return nil, false, err
	}
	if err := db.checkWritable(); err != nil {
		return nil, false, err
	}
	if err := t.checkAttached(); err != nil {
		return nil, false, err
	}
	if tx != nil {
		if tx.done {
			return nil, false, fmt.Errorf("executor: transaction %d already ended", tx.xid)
		}
		if err := db.tm.lockTable(tx, t); err != nil {
			return nil, false, err
		}
		return tx, false, nil
	}
	ntx, err := db.tm.begin(true)
	if err != nil {
		return nil, false, err
	}
	if err := db.tm.lockTable(ntx, t); err != nil {
		db.tm.finish(ntx)
		return nil, false, err
	}
	return ntx, true, nil
}

// endDML closes a successful DML statement. An implicit transaction
// commits — its records and commit record append under one marker and
// the log is forced per its sync mode. A statement inside an explicit
// transaction appends its records under a plain marker *without* fsync
// or commit record: the frames release, and the statement stays
// invisible (and non-durable) until the transaction's COMMIT.
//
// mutated reports whether the statement actually staged page mutations.
// A statement that matched zero rows left no trace, so it must not be
// flagged as logged: that would force an empty commit record (and its
// group-commit fsync) per no-op autocommit statement, and make
// CHECKPOINT refuse while an explicit transaction that only ran no-op
// statements stays open.
func (t *Table) endDML(stx *Txn, implicit, mutated bool) error {
	db := t.db
	if mutated && db.wal != nil {
		stx.logged = true
	}
	if implicit {
		if err := db.commitTxn(stx); err != nil {
			// A failed COMMIT aborts the transaction (PostgreSQL
			// semantics): compensate its versions and release its locks
			// rather than leak them — rollbackTxn always finishes stx.
			if rerr := db.rollbackTxn(stx); rerr != nil && db.broken == nil {
				return fmt.Errorf("%w (rollback also failed: %v)", err, rerr)
			}
			return err
		}
		db.tm.finish(stx)
		return nil
	}
	if mutated && db.wal != nil {
		return db.appendPools(tablePools(t))
	}
	return nil
}

// failDML unwinds a DML statement that failed after possibly mutating
// pages. An implicit transaction rolls back entirely — a failed
// statement leaves nothing behind, unlike the engine's old no-undo
// path. Inside an explicit transaction the applied prefix stays (its
// undo entries are on the transaction, so ROLLBACK still compensates
// it); only the pending records are appended, best effort, so the pool
// is not left holding unevictable frames. Returns err for tail-calling.
func (t *Table) failDML(stx *Txn, implicit, mutated bool, err error) error {
	db := t.db
	if mutated && db.wal != nil {
		stx.logged = true
	}
	if implicit {
		if rerr := db.rollbackTxn(stx); rerr != nil && db.broken == nil {
			// The compensation itself failed: surface it but keep the
			// statement's own error primary.
			return fmt.Errorf("%w (rollback also failed: %v)", err, rerr)
		}
		return err
	}
	if mutated && db.wal != nil {
		db.appendPools(tablePools(t))
	}
	return err
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
// batch log record, and index maintenance is grouped (keys sorted so
// consecutive inserts descend through the same just-decoded nodes; see
// am.InsertBatch). The whole statement is crash-atomic — including
// batches larger than insertChunkRows, whose chunks append under plain
// markers but stay invisible until the final commit record — and
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
	if f := db.faults.BeforeDMLCommit; f != nil {
		// The crash point: nothing of the statement has reached the log.
		if err := f(fmt.Sprintf("INSERT %s %d", t.Name, len(tups))); err != nil {
			return nil, faultErr{err}
		}
	}
	stmt := fmt.Sprintf("INSERT %s %d", t.Name, len(tups))
	chunk := db.insertChunkRows()
	rids := make([]heap.RID, 0, len(tups))
	chunksDone := 0
	for base := 0; base < len(tups); base += chunk {
		end := base + chunk
		if end > len(tups) {
			end = len(tups)
		}
		t.phys.Lock()
		crids, herr := t.Heap.InsertBatchTx(encoded[base:end], stx.xid)
		for _, rid := range crids {
			stx.undo = append(stx.undo, undoRec{t: t, op: undoInsert, rid: rid})
		}
		if herr == nil {
			for _, ix := range t.Indexes {
				if ierr := am.InsertBatch(ix.Idx, ix.Column, tups[base:end], crids); ierr != nil {
					herr = fmt.Errorf("executor: index %s: %w", ix.Name, ierr)
					break
				}
			}
		}
		t.phys.Unlock()
		if herr != nil {
			return nil, t.failDML(stx, implicit, true, herr)
		}
		rids = append(rids, crids...)
		if end < len(tups) {
			// More chunks follow: append this one's records under a plain
			// marker (no fsync, no commit record) so its frames release
			// while the statement stays invisible.
			if db.wal != nil {
				stx.logged = true
				if err := db.appendPools(tablePools(t)); err != nil {
					return nil, t.failDML(stx, implicit, true, err)
				}
			}
			chunksDone++
			if f := db.faults.BetweenDMLChunks; f != nil {
				if err := f(stmt, chunksDone); err != nil {
					return nil, faultErr{err}
				}
			}
		}
	}
	if err := t.endDML(stx, implicit, true); err != nil {
		return nil, err
	}
	t.bumpChurn(len(tups))
	db.met.stmtInsert.Inc()
	db.met.tuplesInserted.Add(int64(len(tups)))
	return rids, nil
}

// DeleteRow deletes one row by RID as its own implicit transaction —
// an MVCC delete: the version's xmax is stamped and it stays in place
// for older snapshots until VACUUM. Deleting a missing or invisible
// version is a no-op.
func (t *Table) DeleteRow(rid heap.RID) error {
	_, err := t.deleteRIDs(nil, nil, &rid)
	return err
}

// DeleteRowTx is DeleteRow inside transaction tx (nil for autocommit).
func (t *Table) DeleteRowTx(tx *Txn, rid heap.RID) error {
	_, err := t.deleteRIDs(tx, nil, &rid)
	return err
}

// DeleteWhere deletes every row matching pred (all rows when pred is
// nil) as its own implicit transaction, returning how many versions
// were stamped. The qualifying scan and the stamping run under the
// statement's snapshot and the table's transaction write lock; readers
// on the same table proceed concurrently and never see a partial
// delete.
func (t *Table) DeleteWhere(pred *Pred) (int, error) {
	return t.deleteRIDs(nil, pred, nil)
}

// DeleteWhereTx is DeleteWhere inside transaction tx (nil for
// autocommit).
func (t *Table) DeleteWhereTx(tx *Txn, pred *Pred) (int, error) {
	return t.deleteRIDs(tx, pred, nil)
}

// deleteRIDs is the shared DELETE body: one explicit RID, or a
// predicate scan. Chunks larger than deleteChunkRows append under
// intermediate plain markers, atomicity preserved by the transaction's
// xid exactly as in InsertBatchTx.
func (t *Table) deleteRIDs(tx *Txn, pred *Pred, one *heap.RID) (int, error) {
	db := t.db
	rlockTimed(&db.stmtMu, db.met.lockWaitNs, db.waits, obs.WaitLockCatalog)
	defer db.stmtMu.RUnlock()
	stx, implicit, err := t.beginDML(tx)
	if err != nil {
		return 0, err
	}
	// Qualify under the statement's own snapshot: the transaction's own
	// inserts are deletable, other transactions' uncommitted rows are
	// not even visible. Already-stamped versions (xmax set by us or a
	// committed deleter) fail Visible and are skipped, so a double
	// DELETE never stacks xmax stamps.
	snap := db.tm.snapshot(stx)
	var rids []heap.RID
	if one != nil {
		tup, gerr := t.getVisible(snap, *one)
		if gerr != nil {
			db.tm.release(snap)
			return 0, t.failDML(stx, implicit, false, gerr)
		}
		if tup != nil {
			rids = append(rids, *one)
		}
	} else {
		if _, serr := t.selectLocked(snap, pred, func(r Row) bool {
			rids = append(rids, r.RID)
			return true
		}); serr != nil {
			db.tm.release(snap)
			return 0, t.failDML(stx, implicit, false, serr)
		}
	}
	db.tm.release(snap)
	if f := db.faults.BeforeDMLCommit; f != nil {
		// The crash point: nothing of the statement has reached the log.
		if err := f(fmt.Sprintf("DELETE %s %d", t.Name, len(rids))); err != nil {
			return 0, faultErr{err}
		}
	}
	stmt := fmt.Sprintf("DELETE %s %d", t.Name, len(rids))
	chunk := db.deleteChunkRows()
	chunksDone := 0
	for base := 0; base < len(rids); base += chunk {
		end := base + chunk
		if end > len(rids) {
			end = len(rids)
		}
		t.phys.Lock()
		var herr error
		for _, rid := range rids[base:end] {
			if herr = t.Heap.SetXmax(rid, stx.xid); herr != nil {
				break
			}
			stx.undo = append(stx.undo, undoRec{t: t, op: undoSetXmax, rid: rid})
		}
		t.phys.Unlock()
		if herr != nil {
			return 0, t.failDML(stx, implicit, true, herr)
		}
		if end < len(rids) {
			if db.wal != nil {
				stx.logged = true
				if err := db.appendPools(tablePools(t)); err != nil {
					return 0, t.failDML(stx, implicit, true, err)
				}
			}
			chunksDone++
			if f := db.faults.BetweenDMLChunks; f != nil {
				if err := f(stmt, chunksDone); err != nil {
					return 0, faultErr{err}
				}
			}
		}
	}
	if err := t.endDML(stx, implicit, len(rids) > 0); err != nil {
		return 0, err
	}
	t.bumpChurn(len(rids))
	db.met.stmtDelete.Inc()
	db.met.tuplesDeleted.Add(int64(len(rids)))
	return len(rids), nil
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
	return t.UpdateWhereTx(nil, pred, sets)
}

// UpdateWhereTx is UpdateWhere inside transaction tx (nil for
// autocommit).
func (t *Table) UpdateWhereTx(tx *Txn, pred *Pred, sets []ColUpdate) (int, error) {
	if len(sets) == 0 {
		return 0, fmt.Errorf("executor: UPDATE needs a SET list")
	}
	for _, set := range sets {
		if set.Column < 0 || set.Column >= len(t.Columns) {
			return 0, fmt.Errorf("executor: UPDATE column ordinal %d out of range", set.Column)
		}
		if set.Value.Typ != t.Columns[set.Column].Type {
			return 0, fmt.Errorf("executor: column %s expects %v, got %v",
				t.Columns[set.Column].Name, t.Columns[set.Column].Type, set.Value.Typ)
		}
	}
	db := t.db
	rlockTimed(&db.stmtMu, db.met.lockWaitNs, db.waits, obs.WaitLockCatalog)
	defer db.stmtMu.RUnlock()
	stx, implicit, err := t.beginDML(tx)
	if err != nil {
		return 0, err
	}
	snap := db.tm.snapshot(stx)
	var olds []Row
	if _, serr := t.selectLocked(snap, pred, func(r Row) bool {
		olds = append(olds, r)
		return true
	}); serr != nil {
		db.tm.release(snap)
		return 0, t.failDML(stx, implicit, false, serr)
	}
	db.tm.release(snap)
	if f := db.faults.BeforeDMLCommit; f != nil {
		if err := f(fmt.Sprintf("UPDATE %s %d", t.Name, len(olds))); err != nil {
			return 0, faultErr{err}
		}
	}
	stmt := fmt.Sprintf("UPDATE %s %d", t.Name, len(olds))
	chunk := db.deleteChunkRows()
	chunksDone := 0
	for base := 0; base < len(olds); base += chunk {
		end := base + chunk
		if end > len(olds) {
			end = len(olds)
		}
		t.phys.Lock()
		var herr error
		for _, old := range olds[base:end] {
			if herr = t.Heap.SetXmax(old.RID, stx.xid); herr != nil {
				break
			}
			stx.undo = append(stx.undo, undoRec{t: t, op: undoSetXmax, rid: old.RID})
			succ := make(catalog.Tuple, len(old.Tuple))
			copy(succ, old.Tuple)
			for _, set := range sets {
				succ[set.Column] = set.Value
			}
			var nrid heap.RID
			if nrid, herr = t.Heap.InsertTx(catalog.EncodeTuple(succ), stx.xid); herr != nil {
				break
			}
			stx.undo = append(stx.undo, undoRec{t: t, op: undoInsert, rid: nrid})
			for _, ix := range t.Indexes {
				if herr = ix.Idx.Insert(succ[ix.Column], nrid); herr != nil {
					herr = fmt.Errorf("executor: index %s: %w", ix.Name, herr)
					break
				}
			}
			if herr != nil {
				break
			}
		}
		t.phys.Unlock()
		if herr != nil {
			return 0, t.failDML(stx, implicit, true, herr)
		}
		if end < len(olds) {
			if db.wal != nil {
				stx.logged = true
				if err := db.appendPools(tablePools(t)); err != nil {
					return 0, t.failDML(stx, implicit, true, err)
				}
			}
			chunksDone++
			if f := db.faults.BetweenDMLChunks; f != nil {
				if err := f(stmt, chunksDone); err != nil {
					return 0, faultErr{err}
				}
			}
		}
	}
	if err := t.endDML(stx, implicit, len(olds) > 0); err != nil {
		return 0, err
	}
	t.bumpChurn(2 * len(olds)) // an update churns an old and a new version
	db.met.stmtUpdate.Inc()
	db.met.tuplesUpdated.Add(int64(len(olds)))
	return len(olds), nil
}

// Vacuum reclaims dead tuple versions — rolled-back inserts and
// committed deletes no snapshot can see anymore — from one table (or
// every table when name is empty), deleting each dead version's index
// entries and heap slot. Runs under the exclusive statement lock, like
// other maintenance statements, in pool-bounded committed chunks.
// Returns how many versions were reclaimed.
func (db *DB) Vacuum(name string) (int, error) {
	db.xlockStmt()
	defer db.stmtMu.Unlock()
	if err := db.poisoned(); err != nil {
		return 0, err
	}
	if err := db.checkWritable(); err != nil {
		return 0, err
	}
	var tables []*Table
	if name != "" {
		db.mu.Lock()
		t, ok := db.tables[name]
		db.mu.Unlock()
		if !ok {
			return 0, fmt.Errorf("executor: unknown table %q", name)
		}
		tables = []*Table{t}
	} else {
		tables = db.Tables()
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
func (db *DB) vacuumTable(t *Table) (int, error) {
	horizon := db.tm.horizon()
	type victim struct {
		rid heap.RID
		tup catalog.Tuple
	}
	var victims []victim
	var derr error
	err := t.Heap.ScanVersions(func(rid heap.RID, h heap.TupleHeader, payload []byte) bool {
		// Dead: a rolled-back insert (aborted versions are invisible to
		// every snapshot), or a committed delete older than every live
		// snapshot. An uncommitted deleter's xid is >= horizon — active
		// transactions bound it — so in-flight deletes are never
		// reclaimed.
		dead := h.Flags&heap.FlagXminAborted != 0 ||
			(h.Xmax != 0 && h.Xmax < horizon)
		if !dead {
			return true
		}
		tup, e := catalog.DecodeTuple(payload)
		if e != nil {
			derr = e
			return false
		}
		victims = append(victims, victim{rid: rid, tup: tup})
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return 0, err
	}
	chunk := db.deleteChunkRows()
	for i, v := range victims {
		for _, ix := range t.Indexes {
			// Best effort per entry: an aborted version may never have
			// been indexed (CREATE INDEX skips them), so absence is fine.
			if _, err := ix.Idx.Delete(v.tup[ix.Column], v.rid); err != nil {
				return i, fmt.Errorf("executor: vacuum index %s: %w", ix.Name, err)
			}
		}
		if err := t.Heap.Delete(v.rid); err != nil {
			return i, err
		}
		if (i+1)%chunk == 0 {
			if err := db.commitTable(t); err != nil {
				return i + 1, err
			}
		}
	}
	if err := db.commitTable(t); err != nil {
		return len(victims), err
	}
	return len(victims), nil
}
