package executor

import (
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file holds the commit point — the one sequence that moves a
// statement's deferred records into the log and forces it — and the
// relation-set and chunk-size helpers its callers share.

// commitGroup is the engine's one commit point. The counters of tables
// (nil entries skipped) are saved into (logged) meta pages — here and
// nowhere per statement; a *pointer* in a meta page is saved where it
// moves, by the structure that moves it — the deferred logical records
// and page images of the relation files in pools are staged into one
// record group — closed by commitXid's transaction-commit record when
// that is non-zero — the group plus a commit marker is appended to the
// log *atomically* (no concurrent statement's records interleave), the
// assigned LSNs are stamped back onto the covered frames, and the log
// is forced according to the sync mode. The final force runs the
// writer's group-commit protocol, so any number of statements
// committing concurrently share one fsync. A failed append or force
// passes through noteWALFailure: the statement that met a dead log is
// the one that degrades the database. A no-op in memory, where there is
// no log.
func (db *DB) commitGroup(pools []*storage.BufferPool, commitXid uint64, tables ...*Table) error {
	if db.wal == nil {
		return nil
	}
	for _, t := range tables {
		if t == nil {
			continue
		}
		if err := t.saveMeta(); err != nil {
			return err
		}
	}
	if err := db.appendPoolsXid(pools, commitXid); err != nil {
		return err
	}
	sp := obs.Current().StartSpan("commit_wait", "wal")
	err := db.wal.Commit()
	sp.End()
	return db.noteWALFailure(err)
}

// saveMeta writes the counters of t's heap and of every index of t into
// their meta pages. Each of them dirties its page only when a value
// changed, so a commit that changed none logs no meta page.
func (t *Table) saveMeta() error {
	if err := t.Heap.SaveMeta(); err != nil {
		return err
	}
	for _, ix := range t.Indexes {
		if err := ix.Idx.SaveMeta(); err != nil {
			return err
		}
	}
	return nil
}

// appendPools stages the deferred records and page images of the
// relation files in pools into one wal.Group, appends the group and its
// commit marker atomically, and stamps the assigned LSNs back onto the
// covered frames.
func (db *DB) appendPools(pools []*storage.BufferPool) error {
	return db.appendPoolsXid(pools, 0)
}

// appendPoolsXid is appendPools with a transaction-boundary record
// riding in the same atomic group: commitXid != 0 appends the
// transaction's commit record (wal.RecTxnCommit) after the staged
// records. The boundary record and the data records land under one
// marker, so recovery either sees the transaction resolved together with
// its final records or not at all.
func (db *DB) appendPoolsXid(pools []*storage.BufferPool, commitXid uint64) error {
	if db.wal == nil {
		return nil
	}
	if tr := obs.Current(); tr != nil {
		sp := tr.StartSpan("wal_append", "wal")
		defer sp.End()
	}
	// Statements of concurrent writers append at the same time, so the
	// group and the per-relation lists are borrowed, not the DB's own.
	sc, _ := db.appendScratch.Get().(*appendScratch)
	if sc == nil {
		sc = new(appendScratch)
	}
	defer db.appendScratch.Put(sc)
	g := &sc.g
	g.Reset()
	sc.staged = sc.staged[:0]
	for _, bp := range pools {
		sc.staged = append(sc.staged, bp.StagePending(g))
	}
	if commitXid != 0 {
		g.AddTxnCommit(commitXid)
	}
	lsns, _, err := db.wal.AppendGroupCommit(g)
	if err != nil {
		// An append failure is sticky in the writer (the log is
		// unusable); flip read-only so later statements fail fast
		// instead of each rediscovering the dead log.
		return db.noteWALFailure(err)
	}
	for i, bp := range pools {
		bp.ResolvePending(sc.staged[i], lsns)
	}
	return nil
}

// appendScratch is what one appendPoolsXid call builds its record group
// in, kept from call to call so that a statement's append allocates
// nothing once the buffers have grown to a statement's size.
type appendScratch struct {
	g      wal.Group
	staged [][]storage.Staged
}

// tablePools lists the relation files a DML statement against t can
// touch.
func tablePools(t *Table) []*storage.BufferPool {
	pools := make([]*storage.BufferPool, 0, 1+len(t.Indexes))
	pools = append(pools, t.Heap.Pool())
	for _, ix := range t.Indexes {
		pools = append(pools, ix.pool)
	}
	return pools
}

// commitWAL commits a statement that may have touched any relation —
// the DDL, catalog, and maintenance paths. Every caller holds stmtMu
// exclusively, and relations are only opened and dropped under that
// lock.
func (db *DB) commitWAL(t *Table) error {
	if db.wal != nil && db.cat != nil {
		if err := db.cat.SaveMeta(); err != nil {
			return err
		}
	}
	return db.commitGroup(db.pool.Relations(), 0, t)
}

// commitTable commits a DML statement against one table: only the
// table's own heap and index files are staged, so statements of
// concurrent writers on other tables (which hold stmtMu only shared)
// are never swept into this statement's marker.
func (db *DB) commitTable(t *Table) error {
	return db.commitGroup(tablePools(t), 0, t)
}

// insertChunkRows bounds how many rows of one multi-row INSERT apply
// between commit markers. Every page a statement dirties is unevictable
// until its records are appended (no-steal), so an unbounded statement
// could exhaust the buffer pool; oversized batches commit in
// pool-proportional chunks (each chunk
// all-or-nothing across a crash). Batched inserts pack ~dozens of rows
// per heap page and their sorted index descents cluster, so poolPages*4
// rows stay well inside a pool even after sharding.
func (db *DB) insertChunkRows() int {
	if n := db.poolPages * 4; n > 64 {
		return n
	}
	return 64
}

// deleteChunkRows is insertChunkRows for DELETE, far smaller because a
// deleted row can touch a heap page all of its own (worst case one page
// per row, against ~dozens of batched inserts per page).
func (db *DB) deleteChunkRows() int {
	if n := db.poolPages / 4; n > 16 {
		return n
	}
	return 16
}
