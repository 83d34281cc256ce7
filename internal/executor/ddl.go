package executor

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/syscat"
)

// This file holds the DDL statements — CREATE/DROP TABLE and INDEX, and
// the index build they share with Open's rebuild of an interrupted
// CREATE INDEX.

// beginDDL opens a DDL or maintenance statement: the exclusive statement
// lock, the refusal of a read-only database — up front, so such a
// session stops mutating the catalog heap at all — and the savepoint of
// the catalog's pages. On error nothing is held; otherwise close the
// statement with endDDL.
func (db *DB) beginDDL() error {
	db.xlockStmt()
	err := db.checkWritable()
	if err == nil && db.catPool == nil {
		err = fmt.Errorf("executor: database is closed")
	}
	if err != nil {
		db.stmtMu.Unlock()
		return err
	}
	db.catPool.Savepoint()
	return nil
}

// endDDL closes a statement beginDDL opened, given its error. A failed
// statement leaves the catalog as its last durable point (commitDDL)
// left it, or as it found it: the catalog's pages are reverted to the
// savepoint, its deferred records dropped — no later commit marker can
// cover them — and the catalog read again from those pages. A simulated
// crash (faultErr) reverts nothing: the caller is about to Crash() the
// database and wants the state the crash leaves. A revert that cannot
// read a page back (only possible without a log) leaves the catalog
// beside its pages, and the database read-only.
func (db *DB) endDDL(err error) {
	if err != nil && !isFault(err) {
		if rerr := db.revertCatalog(); rerr != nil {
			db.enterDegraded(fmt.Errorf("executor: revert the catalog after a failed statement: %w", rerr))
		}
	}
	db.catPool.ReleaseSavepoint()
	db.stmtMu.Unlock()
}

// revertCatalog reverts the catalog's pages to the savepoint and, if that
// put any page back, reads the catalog again from them. The in-memory OID
// counter keeps its value: a reverted CREATE has handed out its OID, and
// its file may still exist or be named in the log.
func (db *DB) revertCatalog() error {
	reverted, err := db.catPool.Revert()
	if err != nil || !reverted {
		return err
	}
	hf, err := heap.Open(db.catPool)
	if err != nil {
		return err
	}
	cat, err := syscat.New(hf, false, db.cat)
	if err != nil {
		return err
	}
	db.cat = cat
	return nil
}

// commitDDL makes a DDL statement's catalog change durable and moves the
// catalog's savepoint past it, so a later failure of the statement
// reverts nothing before it. Under a log that is the commit marker, with
// t's counters saved (t may be nil). Without one it is rel's pages (rel
// may be nil) and then the catalog's, in that order: a catalog entry on
// disk over a relation file that is not yet there would fail every later
// open.
func (db *DB) commitDDL(t *Table, rel *storage.BufferPool) error {
	if err := db.commitWAL(t); err != nil {
		return err
	}
	if rel != nil {
		if err := db.flushUnlogged(rel); err != nil {
			return err
		}
	}
	if err := db.flushCatalogIfUnlogged(); err != nil {
		return err
	}
	db.catPool.Savepoint()
	return nil
}

// CreateTable creates a table: its catalog entry and fresh heap file are
// committed together, so a crash mid-statement leaves neither (the
// orphaned file, if any, is swept at the next open).
func (db *DB) CreateTable(name string, cols []Column) (_ *Table, err error) {
	if err := db.beginDDL(); err != nil {
		return nil, err
	}
	defer func() { db.endDDL(err) }()
	if _, err := db.Table(name); err == nil {
		return nil, fmt.Errorf("executor: table %q already exists", name)
	}
	if name == "" {
		return nil, fmt.Errorf("executor: table needs a name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("executor: table %q needs at least one column", name)
	}
	scols := make([]syscat.Column, len(cols))
	for i, c := range cols {
		scols[i] = syscat.Column{Name: c.Name, Type: c.Type}
	}
	te, err := db.cat.AddTable(name, scols)
	if err != nil {
		return nil, err
	}
	bp, existed, err := db.newPool(te.File)
	if err != nil {
		return nil, err
	}
	if existed {
		// OIDs are never reused, so a pre-existing file under a fresh
		// OID means outside interference.
		bp.Crash()
		return nil, fmt.Errorf("executor: fresh relation file %s already exists", te.File)
	}
	hf, err := heap.Create(bp)
	if err != nil {
		bp.Crash()
		// Unlinking is only provably safe under WAL, where the no-steal
		// rule keeps the uncommitted catalog entry off disk and the file
		// is therefore an orphan. Unlogged, eviction may already have
		// made the entry durable, and a durable table entry over a
		// missing file bricks every later open — keep the file (at
		// worst it lingers as junk).
		if db.wal != nil && db.dir != "" {
			os.Remove(filepath.Join(db.dir, te.File))
		}
		return nil, err
	}
	t := &Table{Name: name, Columns: cols, Heap: hf, oid: te.OID, file: te.File, mu: newTableLock(), db: db}
	if f := db.faults.BeforeDDLCommit; f != nil {
		if err := f("CREATE TABLE " + name); err != nil {
			return nil, faultErr{err}
		}
	}
	if err := db.commitDDL(t, bp); err != nil {
		// Keep the file: a failed fsync leaves the commit marker's
		// durability indeterminate, and if it did survive, the entry is
		// committed and unlinking would strand it. If the commit truly
		// failed, the next open sweeps the file as an orphan.
		bp.Crash()
		return nil, err
	}
	db.mu.Lock()
	db.tables[name] = t
	db.mu.Unlock()
	return t, nil
}

// attachIndex constructs the IndexInfo for an opened or built index and
// appends it to the table (the single construction site for all three
// paths: fresh CREATE INDEX, reattach at open, rebuild at open).
func (db *DB) attachIndex(t *Table, name string, column int, oc *catalog.OperatorClass, idx am.Index, bp *storage.BufferPool, file string) *IndexInfo {
	info := &IndexInfo{
		Name: name, Column: column, OpClass: oc, Idx: idx, pool: bp, file: file,
		scans:        db.met.reg.Counter("am_" + oc.Name + "_scans_total"),
		pagesVisited: db.met.reg.Counter("am_" + oc.Name + "_traced_pages_total"),
	}
	db.mu.Lock()
	t.Indexes = append(t.Indexes, info)
	db.mu.Unlock()
	return info
}

// buildIndex back-fills idx from every live heap row of t (ambuild).
// Under the buffer pool's no-steal rule a build's dirty pages are
// unevictable until a commit marker covers them; marking in batches
// keeps a large backfill from exhausting the pool. Those intra-build
// markers are safe precisely because the index is still recorded invalid
// in the catalog: a crash replays the committed prefix into the file,
// and the invalid flag makes the next open discard and rebuild it.
func (db *DB) buildIndex(t *Table, idx am.Index, ci int, bp *storage.BufferPool) (int, error) {
	rows := 0
	var err error
	serr := t.Heap.ScanVersions(func(rid heap.RID, h heap.TupleHeader, payload []byte) bool {
		if h.Flags&heap.FlagXminAborted != 0 {
			// A rolled-back insert: invisible to every snapshot and about
			// to be vacuumed — indexing it would only leave a dead entry.
			return true
		}
		tup, derr := catalog.DecodeTuple(payload)
		if derr != nil {
			err = derr
			return false
		}
		if ierr := idx.Insert(tup[ci], rid); ierr != nil {
			err = ierr
			return false
		}
		rows++
		if f := db.faults.DuringIndexBuild; f != nil {
			if ferr := f(rows); ferr != nil {
				err = faultErr{ferr}
				return false
			}
		}
		// Batch size 64 keeps the build's uncommitted (unevictable)
		// frame set well inside a single buffer-pool shard even for
		// small pools — the no-steal rule now binds per shard.
		if rows%64 == 0 {
			if werr := db.appendPools([]*storage.BufferPool{bp}); werr != nil {
				err = werr
				return false
			}
		}
		return true
	})
	if serr != nil {
		return rows, serr
	}
	return rows, err
}

// CreateIndex creates an index on a column, via CREATE INDEX ... USING
// method (col opclass). When opclassName is empty the default class of
// (method, column type) is used. Existing rows are back-filled (ambuild).
//
// CREATE INDEX is crash-atomic through the system catalog: the index's
// entry is committed *invalid* before the build starts and flipped valid
// only when the build commits. A crash anywhere in between is detected
// at the next Open, which removes the partial index file and rebuilds
// the index from the heap — a partial build is never reattached.
func (db *DB) CreateIndex(idxName, tableName, colName, method, opclassName string) (_ *IndexInfo, err error) {
	if err := db.beginDDL(); err != nil {
		return nil, err
	}
	defer func() { db.endDDL(err) }()
	t, err := db.Table(tableName)
	if err != nil {
		return nil, err
	}
	ci, err := t.colIndex(colName)
	if err != nil {
		return nil, err
	}
	oc, err := catalog.ResolveOpClass(method, opclassName, t.Columns[ci].Type)
	if err != nil {
		return nil, err
	}
	if idxName == "" {
		return nil, fmt.Errorf("executor: index needs a name")
	}
	if err := db.refuseLockedByTxn(t, "CREATE INDEX"); err != nil {
		return nil, err
	}
	if _, dup := db.cat.GetIndex(idxName); dup {
		return nil, fmt.Errorf("executor: index %q already exists", idxName)
	}

	// Phase 1: commit the entry as invalid, together with the fresh
	// file's creation, before any build work. From here on a crash
	// leaves a durable "this index is incomplete" record.
	ie, err := db.cat.AddIndex(idxName, t.oid, ci, method, oc.Name, false)
	if err != nil {
		return nil, err
	}
	bp, existed, err := db.newPool(ie.File)
	if err != nil {
		return nil, err
	}
	// discard drops the doomed build's frames and, if unlink, its file.
	discard := func(unlink bool) {
		bp.Crash()
		if unlink && db.dir != "" {
			os.Remove(filepath.Join(db.dir, ie.File))
		}
	}
	if existed {
		discard(false)
		return nil, fmt.Errorf("executor: fresh relation file %s already exists", ie.File)
	}
	idx, err := am.New(oc.Name, bp, true)
	if err != nil {
		discard(true)
		return nil, err
	}
	if err := db.commitWAL(nil); err != nil {
		discard(true)
		return nil, err
	}
	if db.wal != nil {
		// The invalid entry is durable; a failure from here on reverts
		// the catalog to it at most.
		db.catPool.Savepoint()
	}
	// fail ends a statement that failed after phase 1 and was not a
	// simulated crash: the build is discarded, then the entry removed
	// under a commit of its own — the build's frames crashed first, so
	// that commit logs nothing of a file about to be unlinked — and a
	// failed (not crashed) CREATE INDEX leaves nothing behind. Should
	// that commit fail, the entry stays as phase 1 committed it, as after
	// a crash: the next open rebuilds it, or DROP INDEX removes it.
	fail := func(err error, unlink bool) (*IndexInfo, error) {
		if isFault(err) {
			return nil, err
		}
		discard(unlink)
		if db.cat.RemoveIndex(idxName) == nil {
			db.commitDDL(nil, nil)
		}
		return nil, err
	}

	// Phase 2: ambuild.
	if _, err := db.buildIndex(t, idx, ci, bp); err != nil {
		return fail(err, true)
	}

	// Phase 3: flip the entry valid and commit it with the build's final
	// records and metadata — the statement's real commit point. The
	// index joins t.Indexes only after the commit succeeds, so a failed
	// statement never leaves a live index behind.
	if err := db.cat.SetIndexValid(idxName, true); err != nil {
		return fail(err, true)
	}
	// Fresh statistics make the planner's selectivity realistic (like
	// the auto-ANALYZE PostgreSQL runs after bulk operations). In-memory
	// only: persisting them here would entangle the index build's commit
	// with a statistics replacement; explicit ANALYZE persists.
	if err := t.analyzeInMemory(); err != nil {
		return fail(err, true)
	}
	if f := db.faults.BeforeDDLCommit; f != nil {
		if err := f("CREATE INDEX " + idxName); err != nil {
			return nil, faultErr{err}
		}
	}
	if err := idx.SaveMeta(); err != nil {
		return fail(err, true)
	}
	// See CreateTable: unlogged, the index pages reach the disk before
	// the (now valid) catalog entry.
	if err := db.commitDDL(t, bp); err != nil {
		// Under a log keep the file: the failed force leaves the marker's
		// durability indeterminate. If it survived, the entry is
		// committed valid and replay reconstructs the file; if not, the
		// entry is still invalid and the next open removes and rebuilds
		// it.
		return fail(err, db.wal == nil)
	}
	return db.attachIndex(t, idxName, ci, oc, idx, bp, ie.File), nil
}

// rebuildIndex builds the index of catalog entry ie from its table's
// heap into the fresh pool bp, marks the entry valid, and commits — the
// recovery path of a crash-interrupted CREATE INDEX.
func (db *DB) rebuildIndex(t *Table, ie syscat.Index, oc *catalog.OperatorClass, bp *storage.BufferPool) error {
	idx, err := am.New(oc.Name, bp, true)
	if err != nil {
		return err
	}
	if _, err := db.buildIndex(t, idx, ie.Column, bp); err != nil {
		return fmt.Errorf("executor: rebuild index %q: %w", ie.Name, err)
	}
	db.attachIndex(t, ie.Name, ie.Column, oc, idx, bp, ie.File)
	if err := db.cat.SetIndexValid(ie.Name, true); err != nil {
		return err
	}
	db.rebuilt = append(db.rebuilt, ie.Name)
	return db.commitWAL(t)
}

// DropIndex removes an index: its catalog entry is deleted and committed
// first, then the file is closed and unlinked. Under WAL a crash between
// the two leaves an orphaned file that the next open sweeps; unlogged
// databases have no sweep, so such a file lingers as junk.
//
// Like every DDL statement, DropIndex serializes against other writers
// under the statement lock, but the engine does not lock readers:
// dropping a relation while another goroutine is still scanning it
// closes that scan's buffer pool underneath it (PostgreSQL would block
// on a relation lock here). Callers must not drop a relation with reads
// of it in flight.
func (db *DB) DropIndex(name string) (err error) {
	if err := db.beginDDL(); err != nil {
		return err
	}
	defer func() { db.endDDL(err) }()
	ie, ok := db.cat.GetIndex(name)
	if !ok {
		return fmt.Errorf("executor: unknown index %q", name)
	}
	// An entry may be cataloged without an attached IndexInfo (a failed
	// CREATE INDEX left its invalid entry behind); like PostgreSQL's
	// droppable INVALID indexes, DROP INDEX must remove those too.
	db.mu.Lock()
	var t *Table
	var info *IndexInfo
	var pos int
	for _, cand := range db.tables {
		if cand.oid != ie.TableOID {
			continue
		}
		t = cand
		for i, ix := range cand.Indexes {
			if ix.Name == name {
				info, pos = ix, i
				break
			}
		}
	}
	db.mu.Unlock()
	if err := db.refuseLockedByTxn(t, "DROP INDEX"); err != nil {
		return err
	}
	if err := db.cat.RemoveIndex(name); err != nil {
		return err
	}
	if f := db.faults.BeforeDDLCommit; f != nil {
		if err := f("DROP INDEX " + name); err != nil {
			return faultErr{err}
		}
	}
	if err := db.commitDDL(nil, nil); err != nil {
		return err
	}
	// The drop is committed; detach and unlink unconditionally from here
	// on, reporting the first failure only afterwards — aborting early
	// would leave files no later open can reclaim (the orphan sweep only
	// runs under WAL).
	var firstErr error
	if t != nil && info != nil {
		// Copy-on-write removal: an in-place splice would mutate the
		// backing array under any reader still iterating the old slice
		// header.
		db.mu.Lock()
		fresh := make([]*IndexInfo, 0, len(t.Indexes)-1)
		fresh = append(fresh, t.Indexes[:pos]...)
		fresh = append(fresh, t.Indexes[pos+1:]...)
		t.Indexes = fresh
		db.mu.Unlock()
		info.pool.Crash()
	}
	if db.dir != "" {
		if err := os.Remove(filepath.Join(db.dir, ie.File)); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DropTable removes a table and all its indexes: every catalog entry is
// deleted and committed in one statement, then the files are closed and
// unlinked. Under WAL a crash between the two leaves orphaned files that
// the next open sweeps (unlogged databases have no sweep; such files
// linger as junk). As with DropIndex, callers must not drop a table with
// reads of it in flight — readers are not locked out.
func (db *DB) DropTable(name string) (err error) {
	if err := db.beginDDL(); err != nil {
		return err
	}
	defer func() { db.endDDL(err) }()
	t, err := db.Table(name)
	if err != nil {
		return err
	}
	if err := db.refuseLockedByTxn(t, "DROP TABLE"); err != nil {
		return err
	}
	// Remove every *cataloged* index of the table, not just the attached
	// ones: a failed CREATE INDEX can leave a cataloged entry with no
	// IndexInfo, and a dangling index record would make the catalog
	// unloadable at the next open.
	catIndexes := db.cat.IndexesOf(t.oid)
	for _, ie := range catIndexes {
		if err := db.cat.RemoveIndex(ie.Name); err != nil {
			return err
		}
	}
	// The table's statistics record goes in the same statement, so the
	// drop commits catalog-clean — no ghost statistics for a dead OID.
	if err := db.cat.RemoveStats(t.oid); err != nil {
		return err
	}
	if err := db.cat.RemoveTable(name); err != nil {
		return err
	}
	if f := db.faults.BeforeDDLCommit; f != nil {
		if err := f("DROP TABLE " + name); err != nil {
			return faultErr{err}
		}
	}
	if err := db.commitDDL(nil, nil); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.tables, name)
	db.mu.Unlock()
	// The drop is committed; detach and unlink everything, reporting the
	// first failure only afterwards — aborting early would leave files
	// no later open can reclaim (the orphan sweep only runs under WAL).
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, ix := range t.Indexes {
		ix.pool.Crash()
	}
	t.Heap.Pool().Crash()
	if db.dir != "" {
		unlink := func(file string) {
			if err := os.Remove(filepath.Join(db.dir, file)); err != nil && !os.IsNotExist(err) {
				keep(err)
			}
		}
		for _, ie := range catIndexes {
			unlink(ie.File)
		}
		unlink(t.file)
	}
	return firstErr
}

// refuseLockedByTxn rejects DDL against a table whose write lock an
// open transaction owns — dropping or rebuilding a relation under a
// transaction that still holds undo references into it would tear the
// rug out from its ROLLBACK. (PostgreSQL would queue on the relation
// lock; this engine refuses immediately instead.)
func (db *DB) refuseLockedByTxn(t *Table, stmt string) error {
	if t == nil || db.tm == nil {
		return nil
	}
	if tx := db.tm.lockedBy(t); tx != nil {
		return fmt.Errorf("executor: %s: table %q is locked by open transaction %d", stmt, t.Name, tx.Xid())
	}
	return nil
}
