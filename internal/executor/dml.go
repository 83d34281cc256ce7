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
//   - A statement writes the heap; its versions' index keys wait in the
//     table's index batch, which goes into the indexes at COMMIT, before
//     the transaction reads through an index, or once it outgrows a chunk
//     (mergeBatch): a bulk load reaches each index as one batch.
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
	tx.stmtUndo, t.batch.mark = len(tx.undo), len(t.batch.rids)
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
// not left holding unevictable frames, and its keys leave the index
// batch. One that succeeded merges the batch when it holds more than one
// chunk. Returns err, or what ending the statement failed with.
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
		t.batch.truncate(t.batch.mark)
	case t.batchOutgrown():
		return t.mergeFor(stx) // its append carries the statement's records
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
	// size reports the bytes of the version row i stores; nil for a DELETE.
	size func(i int) int
	// The statement's two cumulative counters.
	stmts, tuples *obs.Counter
}

// runDML is the body every DML statement shares once it knows its rows:
// apply(base, end) mutates the heap for rows [base, end) in the chunks
// rowChunk sizes (inChunks); then the statement ends (endDML) and is
// counted. The crash points run before anything reached the log and
// between chunks. Caller holds db.stmtMu shared and has run beginDML.
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
	err := t.inChunks(stmt, sh.rows, func(base int) int { return t.rowChunk(base, &sh) }, apply)
	if isFault(err) {
		return err
	}
	if err != nil {
		return t.endDML(stx, implicit, true, err)
	}
	if err := t.endDML(stx, implicit, sh.rows > 0, nil); err != nil {
		return err
	}
	t.bumpChurn(sh.churn * sh.rows)
	sh.stmts.Inc()
	sh.tuples.Add(int64(sh.rows))
	return nil
}

// inChunks applies rows [0, n) in the chunks chunk(base) sizes, each under
// t.phys exclusive, and appends every chunk but the last under a plain
// marker, then runs the fault hook BetweenDMLChunks. The caller appends
// or commits the last.
func (t *Table) inChunks(stmt string, n int, chunk func(base int) int, apply func(base, end int) error) error {
	db := t.db
	for base, chunksDone := 0, 0; base < n; {
		end := base + chunk(base)
		t.phys.Lock()
		err := apply(base, end)
		t.phys.Unlock()
		if err != nil || end == n {
			return err
		}
		if err := db.appendPools(tablePools(t), 0); err != nil {
			return err
		}
		base, chunksDone = end, chunksDone+1
		if f := db.faults.BetweenDMLChunks; f != nil {
			if err := f(stmt, chunksDone); err != nil {
				return faultErr{err}
			}
		}
	}
	return nil
}

// qualify emits every row pred selects (all rows when pred is nil)
// under stx's own snapshot, after merging the index batch if the scan may
// read an index: the transaction's own inserts qualify, other
// transactions' uncommitted rows are not even visible. Already-stamped
// versions (xmax set by stx or a committed deleter) fail Visible and are
// skipped, so a double DELETE never stacks xmax stamps. It returns the
// plan the scan ran.
func (t *Table) qualify(stx *Txn, implicit bool, pred *Pred, emit func(Row) bool) (*Plan, error) {
	if t.indexable(pred) {
		if err := t.mergeFor(stx); err != nil {
			return nil, err
		}
	}
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
// batch log record, and the rows' keys join the table's index batch,
// which each index takes in one Insert a chunk at COMMIT (see
// mergeBatch). The whole statement is crash-atomic — including
// batches larger than one chunk (rowChunk), whose chunks append under
// plain markers but stay invisible until the final commit record — and
// fail-atomic: an error mid-batch rolls the implicit transaction back.
// The returned RIDs parallel tups.
func (t *Table) InsertBatch(tups []catalog.Tuple) ([]heap.RID, error) {
	return t.InsertBatchTx(nil, tups)
}

// InsertBatchTx is InsertBatch inside transaction tx (nil for
// autocommit): the rows become visible to other snapshots — and
// durable — only when tx commits. The caller must not change tups while
// tx is open: the table's index batch keeps them until a merge.
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
// one pin and one batch record; then the versions' keys join the index
// batch. Returns the versions' RIDs, which parallel tups.
func (t *Table) insertChunk(stx *Txn, tups []catalog.Tuple, encoded [][]byte) ([]heap.RID, error) {
	rids, err := t.Heap.InsertBatchTx(encoded, stx.xid)
	for _, rid := range rids {
		stx.undo = append(stx.undo, undoRec{t: t, op: undoInsert, rid: rid})
	}
	if err != nil {
		return nil, err
	}
	return rids, t.batch.add(t.Indexes, tups, rids)
}

// indexBatch is the versions (the statements' own tuples) the owner of a
// table's write lock stored whose keys the indexes have not taken yet, in
// order, as PostgreSQL's GIN pending list (fastupdate) holds a writer's
// keys for a bulk insert. It is empty whenever the lock is free.
type indexBatch struct {
	rids []heap.RID
	rows []catalog.Tuple // rows[i] is the version stored at rids[i]
	mark int             // len(rids) when the running statement began
	// The chunk rule's sums (fit) over rows [0, fitted).
	sums   [][3]int
	fitted int
}

// add appends tups, stored at rids, and fails when an index would refuse
// one of their keys (am.Index.Check).
func (b *indexBatch) add(indexes []*IndexInfo, tups []catalog.Tuple, rids []heap.RID) error {
	if len(indexes) == 0 {
		return nil
	}
	for _, ix := range indexes {
		for _, tup := range tups {
			if err := ix.Idx.Check(tup[ix.Column : ix.Column+1]); err != nil {
				return fmt.Errorf("executor: index %s: %w", ix.Name, err)
			}
		}
	}
	b.rids, b.rows = append(b.rids, rids...), append(b.rows, tups...)
	return nil
}

// truncate drops the rows from n on. The rows before a statement's mark
// that a merge took are gone, so the mark falls with them. The batch
// keeps its slices until its transaction ends (TxnManager.finish).
func (b *indexBatch) truncate(n int) {
	clear(b.rows[n:])
	b.rids, b.rows = b.rids[:n], b.rows[:n]
	b.mark = min(b.mark, n)
	clear(b.sums)
	b.fitted = 0
}

// batchOutgrown reports whether the index batch holds more rows than the
// first chunk of its merge takes, adding each row to its sums once.
func (t *Table) batchOutgrown() bool {
	b := &t.batch
	if len(b.rids) == b.fitted {
		return false
	}
	if len(b.sums) != len(t.Indexes) {
		b.sums = make([][3]int, len(t.Indexes))
	}
	b.fitted = t.db.fit(b.sums, b.fitted, len(b.rids), t.keyAt(b.rows))
	return b.fitted < len(b.rids)
}

// keyAt is chunkLen's at(j, i) over t's index files for rows: row i's key
// in t.Indexes[j] makes the entries indexAt counts.
func (t *Table) keyAt(rows []catalog.Tuple) func(j, i int) (pages, touch, bytes int) {
	keys := int(t.Heap.Count())
	return func(j, i int) (pages, touch, bytes int) {
		ix := t.Indexes[j]
		return indexAt(ix.OpClass, ix.pool, keys, catalog.DatumSize(rows[i][ix.Column]))
	}
}

// mergeBatch puts t's index batch into its indexes and empties it: each
// index takes a chunk's keys (chunkLen over the index files) in one
// Insert, through inChunks. Caller holds db.stmtMu and t's write lock.
func (t *Table) mergeBatch() error {
	b := &t.batch
	var stmt string
	if t.db.faults.BetweenDMLChunks != nil {
		stmt = "MERGE " + t.Name + " " + strconv.Itoa(len(b.rids))
	}
	err := t.inChunks(stmt, len(b.rids), func(base int) int {
		return t.db.chunkLen(len(b.rids)-base, len(t.Indexes), t.keyAt(b.rows[base:]))
	}, func(base, end int) error {
		keys := make([]catalog.Datum, end-base)
		for _, ix := range t.Indexes {
			for i, row := range b.rows[base:end] {
				keys[i] = row[ix.Column]
			}
			if err := ix.Idx.Insert(keys, b.rids[base:end]); err != nil {
				return fmt.Errorf("executor: index %s: %w", ix.Name, err)
			}
		}
		return nil
	})
	if err == nil {
		b.truncate(0)
	}
	return err
}

// mergeFor merges t's index batch for tx, which owns t, and appends the
// last chunk. A failed merge (but a fault hook's crash) ends tx: an index
// may hold part of a chunk, rows the rollback marks aborted.
func (t *Table) mergeFor(tx *Txn) error {
	if len(t.batch.rids) == 0 {
		return nil
	}
	if err := t.mergeBatch(); err != nil {
		if isFault(err) {
			return err
		}
		return t.db.rollbackTxn(tx, err)
	}
	return t.db.appendPools(tablePools(t), 0)
}

// storing is the dmlShape.size of a statement that stores tups, as
// catalog.EncodeTuple lays them out.
func storing(tups []catalog.Tuple) func(i int) int {
	return func(i int) int { return catalog.EncodedSize(tups[i]) }
}

// rowChunk is chunkLen for sh's rows from base over the heap, the one file
// a DML statement writes: each row touches sh.churn pages there and fills
// the bytes of the version it stores. Its keys wait in the index batch.
func (t *Table) rowChunk(base int, sh *dmlShape) int {
	pages := int(t.Heap.NumPages())
	return t.db.chunkLen(sh.rows-base, 1, func(_, i int) (int, int, int) {
		bytes := 0
		if sh.size != nil {
			bytes = sh.size(base+i) + recordOverhead
		}
		return pages, sh.churn, bytes
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
	// A version touches its heap page, and in each index the pages its
	// entries lie on; removing them fills none.
	for done := 0; done < len(dead); {
		keys := int(t.Heap.Count())
		n := db.chunkLen(len(dead)-done, 1+len(t.Indexes), func(f, i int) (int, int, int) {
			if f == 0 {
				return int(t.Heap.NumPages()), 1, 0
			}
			ix := t.Indexes[f-1]
			pages, touch, _ := indexAt(ix.OpClass, ix.pool, keys, sizes[done+i])
			return pages, touch, 0
		})
		part := dead[done : done+n]
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
