package executor

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/syscat"
)

// This file holds the DDL statements — CREATE/DROP TABLE and INDEX, and
// the index build CREATE INDEX shares with Open's rebuild of an index
// whose file is missing.

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
// read a page back (possible only in memory, without a log) leaves the
// catalog beside its pages, and the database read-only.
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

// commitDDL commits a DDL statement's catalog change, with t's counters
// saved (t may be nil), and moves the catalog's savepoint past it, so a
// later failure of the statement reverts nothing before it.
func (db *DB) commitDDL(t *Table) error {
	if err := db.commitWAL(t); err != nil {
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
		// The no-steal rule keeps the uncommitted catalog entry off
		// disk, so the file is an orphan.
		if db.dir != "" {
			os.Remove(filepath.Join(db.dir, te.File))
		}
		return nil, err
	}
	t := &Table{Name: name, Columns: cols, Heap: hf, names: columnNames(cols), oid: te.OID, file: te.File, mu: newTableLock(), db: db}
	if f := db.faults.BeforeDDLCommit; f != nil {
		if err := f("CREATE TABLE " + name); err != nil {
			return nil, faultErr{err}
		}
	}
	if err := db.commitDDL(t); err != nil {
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

// buildIndexFile builds an index of operator class oc over column ci of t
// into the relation file named file, and opens it in the database's pool
// — CREATE INDEX's build, and Open's of an index whose file is missing.
// The heap is back-filled (ambuild) into file+".build" through a private
// pool with no log attached: no catalog entry names that file, so a dirty
// page may reach it at any time (steal) and none is logged. The file is
// synced and renamed to file, so an index file exists only complete, and
// its disk manager is handed to the database's pool. A failure removes
// the file; a simulated crash (faultErr) leaves the ".build" file for the
// orphan sweep.
func (db *DB) buildIndexFile(t *Table, ci int, oc *catalog.OperatorClass, file string) (_ am.Index, _ *storage.BufferPool, err error) {
	path := filepath.Join(db.dir, file)
	var dm storage.DiskManager
	if db.dir == "" {
		dm = storage.NewMem(db.pageSize)
	} else if dm, err = storage.OpenFile(path+".build", db.pageSize); err != nil {
		return nil, nil, err
	}
	// The build's pool has the database's frame budget, capped near the
	// heap's size: a small table's build allocates little, and a page
	// the cap evicts is read back.
	build := storage.NewBufferPool(file, db.wrapFaults(file, dm), min(db.poolPages, int(t.Heap.NumPages())+16))
	defer func() {
		if err != nil {
			build.Crash()
			if db.dir != "" && !isFault(err) {
				os.Remove(path + ".build")
				os.Remove(path)
			}
		}
	}()
	idx, err := am.New(oc.Name, build, true)
	if err != nil {
		return nil, nil, err
	}
	// The live rows go in as an INSERT's do, in chunks chunkLen sizes over
	// the build's file, each time the buffer fills; while all fit, it grows.
	keys, rids, rows := []catalog.Datum(nil), []heap.RID(nil), 0
	insert := func(all bool) error {
		k := db.chunkLen(len(keys), 1, func(_, i int) (int, int, int) { return indexAt(oc, build, rows, catalog.DatumSize(keys[i])) })
		if k == len(keys) && !all {
			return nil
		}
		if err := idx.Insert(keys[:k:k], rids[:k:k]); err != nil {
			return err
		}
		rows += k
		keys, rids = keys[:copy(keys, keys[k:])], rids[:copy(rids, rids[k:])]
		if f := db.faults.DuringIndexBuild; f != nil {
			if ferr := f(rows); ferr != nil {
				return faultErr{ferr}
			}
		}
		return nil
	}
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
		if len(keys) > 0 && len(keys) == cap(keys) {
			err = insert(false)
		}
		keys, rids = append(keys, tup[ci]), append(rids, rid)
		return err == nil
	})
	if serr != nil {
		err = serr
	}
	for err == nil && len(keys) > 0 {
		err = insert(true)
	}
	if err != nil {
		return nil, nil, err
	}
	if err = build.FlushAll(); err != nil {
		return nil, nil, err
	}
	if err = build.DM().Sync(); err != nil {
		return nil, nil, err
	}
	if db.dir != "" {
		if err = os.Rename(path+".build", path); err != nil {
			return nil, nil, err
		}
		if err = syncDir(db.dir); err != nil {
			return nil, nil, err
		}
		// The file's creation is logged, as CREATE TABLE's is: a page
		// the index grows from here on is rebuilt from its records
		// alone should its write be torn. A page of the build ships a
		// full image at its first touch instead.
		if _, err = db.wal.AppendFileCreate(file); err != nil {
			return nil, nil, err
		}
	}
	bp := db.pool.Open(file, build.DM(), obs.WaitIOIndexRead)
	if idx, err = am.New(oc.Name, bp, false); err != nil {
		bp.Crash()
		return nil, nil, err
	}
	return idx, bp, nil
}

// syncDir makes the entries of directory dir durable: a rename in it
// survives a crash once it returns.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// CreateIndex creates an index on a column, via CREATE INDEX ... USING
// method (col opclass). When opclassName is empty the default class of
// (method, column type) is used. Existing rows are back-filled (ambuild).
//
// CREATE INDEX commits once, like CREATE TABLE: the index file is built
// complete outside the log (buildIndexFile), then its catalog entry is
// added and committed. A crash or failure before that commit leaves an
// orphan file, which the next open sweeps, and no catalog entry.
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
	// Fresh statistics make the planner's selectivity realistic (like
	// the auto-ANALYZE PostgreSQL runs after bulk operations). In-memory
	// only: persisting them here would entangle the index build's commit
	// with a statistics replacement; explicit ANALYZE persists.
	if err := t.analyzeInMemory(); err != nil {
		return nil, err
	}
	ie, err := db.cat.AddIndex(idxName, t.oid, ci, method, oc.Name)
	if err != nil {
		return nil, err
	}
	idx, bp, err := db.buildIndexFile(t, ci, oc, ie.File)
	if err != nil {
		return nil, err
	}
	if f := db.faults.BeforeDDLCommit; f != nil {
		if err := f("CREATE INDEX " + idxName); err != nil {
			return nil, faultErr{err}
		}
	}
	if err := db.commitDDL(t); err != nil {
		// Should the marker have survived, the next open finds the
		// entry without its file and builds it again.
		bp.Crash()
		if db.dir != "" {
			os.Remove(filepath.Join(db.dir, ie.File))
		}
		return nil, err
	}
	return db.attachIndex(t, idxName, ci, oc, idx, bp, ie.File), nil
}

// DropIndex removes an index: its catalog entry is deleted and committed
// first, then the file is closed and unlinked. A crash between the two
// leaves an orphaned file that the next open sweeps.
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
	db.mu.Lock()
	var t *Table
	pos := -1
	for _, cand := range db.tables {
		if i := slices.IndexFunc(cand.Indexes, func(ix *IndexInfo) bool { return ix.Name == name }); i >= 0 {
			t, pos = cand, i
		}
	}
	db.mu.Unlock()
	if t == nil {
		return fmt.Errorf("executor: unknown index %q", name)
	}
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
	if err := db.commitDDL(nil); err != nil {
		return err
	}
	// The drop is committed; detach and unlink unconditionally from here
	// on. Copy-on-write removal: an in-place splice would mutate the
	// backing array under any reader still iterating the old slice header.
	db.mu.Lock()
	info := t.Indexes[pos]
	t.Indexes = slices.Delete(slices.Clone(t.Indexes), pos, pos+1)
	db.mu.Unlock()
	info.pool.Crash()
	if db.dir != "" {
		if err := os.Remove(filepath.Join(db.dir, info.file)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// DropTable removes a table and all its indexes: every catalog entry is
// deleted and committed in one statement, then the files are closed and
// unlinked. A crash between the two leaves orphaned files that the next
// open sweeps. As with DropIndex, callers must not drop a table with
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
	for _, ix := range t.Indexes {
		if err := db.cat.RemoveIndex(ix.Name); err != nil {
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
	if err := db.commitDDL(nil); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.tables, name)
	db.mu.Unlock()
	// The drop is committed; detach and unlink everything, reporting the
	// first failure only afterwards.
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
		for _, ix := range t.Indexes {
			unlink(ix.file)
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
