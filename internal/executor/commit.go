package executor

import (
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file holds the commit point — the one sequence that moves a
// statement's deferred records into the log and forces it — and the
// relation-set and chunk-size helpers its callers share.

// commitGroup is the engine's one commit point. The heap counters of
// tables (nil entries skipped) are saved into their (logged) meta pages —
// here and nowhere per statement, and only where a value changed, so a
// commit that changed none logs no meta page; an index keeps no counter,
// and the root pointer in its meta page is saved where it moves, by the
// structure that moves it — the deferred logical records
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
		if err := t.Heap.SaveMeta(); err != nil {
			return err
		}
	}
	if err := db.appendPools(pools, commitXid); err != nil {
		return err
	}
	sp := obs.Current().StartSpan("commit_wait", "wal")
	err := db.wal.Commit()
	sp.End()
	return db.noteWALFailure(err)
}

// appendPools stages the deferred records and page images of the
// relation files in pools into one wal.Group, appends the group and its
// commit marker atomically, and stamps the assigned LSNs back onto the
// covered frames. commitXid != 0 appends the transaction's commit record
// (wal.RecTxnCommit) after the staged records, under the same marker, so
// recovery sees the transaction resolved together with its final records
// or not at all.
func (db *DB) appendPools(pools []*storage.BufferPool, commitXid uint64) error {
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

// appendScratch is what one appendPools call builds its record group
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

// chunkLen sizes the chunks of every multi-step statement: INSERT, UPDATE,
// DELETE, VACUUM, an undo, the heap pass after redo, CREATE INDEX's
// batches, the merge of an index batch. A chunk's dirty pages stay in the
// pool until its records are appended (no-steal), so of the n units left
// it takes the most, and at least one, whose pages fit in half the pool's
// frames: summed over the files 0..files-1 it writes, min(the file's
// pages, the existing pages the units touch there) plus the new pages
// their bytes fill. at(f, i) reports file f's pages, and unit i's touched
// pages and bytes there.
func (db *DB) chunkLen(n, files int, at func(f, i int) (pages, touch, bytes int)) int {
	if n <= 1 {
		return 1
	}
	return max(db.fit(make([][3]int, files), 0, n, at), 1)
}

// fit adds units from..n-1 to sums (per file: pages, touched, bytes) until
// the estimate outgrows half the pool, and returns the first unit that
// did not fit, n when all did. The estimate only grows, so one pass does.
func (db *DB) fit(sums [][3]int, from, n int, at func(f, i int) (pages, touch, bytes int)) int {
	for i := from; i < n; i++ {
		pages := 0
		for f := range sums {
			p, t, b := at(f, i)
			s := &sums[f]
			s[0], s[1], s[2] = p, s[1]+t, s[2]+b
			pages += min(s[0], s[1]) + (s[2]+db.pageSize-1)/db.pageSize
		}
		if pages > db.poolPages/2 {
			return i
		}
	}
	return n
}

// recordOverhead is what chunkLen counts a record beyond its payload: a
// heap tuple's header and slot, or an index entry's RID and slot.
const recordOverhead = 24

// indexAt is chunkLen's at(f, i) for an index of class oc in file bp,
// holding the entries of keys keys, and a key of size bytes (or more): the
// file's pages, and the existing pages the key's entries (oc.Entries)
// touch and the bytes they add. A key stored in every cell it crosses
// makes as many as the file holds a key, its bytes over an entry's: the
// figure follows the tree as it decomposes space more finely.
func indexAt(oc *catalog.OperatorClass, bp *storage.BufferPool, keys, size int) (pages, touch, bytes int) {
	pages = int(bp.DM().NumPages())
	switch oc.Entries {
	case catalog.EntryPerByte: // every suffix, (size+1)/2 bytes on average
		return pages, size, size*(size+1)/2 + size*recordOverhead
	case catalog.EntryPerCell:
		entry := size + recordOverhead
		n := max(1, int(bp.SizeBytes())/((keys+1)*entry))
		return pages, n, n * entry
	}
	return pages, 1, size + recordOverhead
}
