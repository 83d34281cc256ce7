package storage

import (
	"bytes"
	"sync"
)

// savepoint is what a relation's armed savepoint kept: the bytes of each
// page as its first Fetch since arming found them, nil for a page NewPage
// allocated since. A statement can only change a page it fetched or
// allocated, so these are all Revert needs, and nothing is fetched just
// to be copied: an armed pool counts the same accesses as an unarmed one.
// A disarmed savepoint (the norm) costs one pointer load per fetch.
type savepoint struct {
	mu   sync.Mutex
	kept map[PageID][]byte
}

// Savepoint arms the relation's savepoint, or moves an armed one to now:
// Revert puts back the pages as they are at this call. The caller
// serializes the relation's writers with its savepoint calls (the
// executor arms the catalog's under its exclusive statement lock).
func (bp *BufferPool) Savepoint() {
	bp.save.Store(&savepoint{kept: make(map[PageID][]byte)})
}

// ReleaseSavepoint disarms the relation's savepoint, dropping what it kept.
func (bp *BufferPool) ReleaseSavepoint() { bp.save.Store(nil) }

// keep records page id's bytes, data (nil for a new page), in the armed
// savepoint, if any. Small enough to inline into Fetch.
func (bp *BufferPool) keep(id PageID, data []byte) {
	if sp := bp.save.Load(); sp != nil {
		sp.keep(id, data)
	}
}

// keep records page id's bytes unless it holds the page already.
func (sp *savepoint) keep(id PageID, data []byte) {
	sp.mu.Lock()
	if _, ok := sp.kept[id]; !ok {
		sp.kept[id] = bytes.Clone(data)
	}
	sp.mu.Unlock()
}

// Revert puts the relation back as it was at its savepoint and disarms
// it: the relation's deferred records are dropped, every kept page gets
// its kept bytes back, and every page allocated since is all-zero again —
// and clean under a log, as AllocatePage left it on disk. It reports
// whether the savepoint kept any page.
//
// Under a log it does no I/O: a page the statement changed carries a
// deferred record and is unevictable, so it is still in its frame, and a
// kept page that left the pool was written back unchanged. Without a log
// a changed page may have been evicted; it is read back, overwritten and
// left dirty, so the kept bytes reach the disk over the changed ones. A
// failed read is returned, with the relation partly reverted.
func (bp *BufferPool) Revert() (bool, error) {
	sp := bp.save.Swap(nil)
	if sp == nil || len(sp.kept) == 0 {
		return false, nil
	}
	bp.opsMu.Lock()
	bp.ops.Reset()
	bp.opPages = nil
	bp.opsMu.Unlock()
	logged := bp.pool.WAL() != nil
	for id, pre := range sp.kept {
		if bp.revertResident(id, pre, logged) || logged {
			continue
		}
		p, err := bp.Fetch(id)
		if err != nil {
			return true, err
		}
		revertBytes(p.Data, pre)
		bp.Unpin(p, true)
	}
	return true, nil
}

// revertResident puts pre back into page id's frame, if the page is
// resident, and reports whether it was.
func (bp *BufferPool) revertResident(id PageID, pre []byte, logged bool) bool {
	p := bp.pool
	p.lock()
	defer p.mu.Unlock()
	fi, ok := p.table[bp.key(id)]
	if !ok {
		return false
	}
	f := &p.frames[fi]
	revertBytes(f.data, pre)
	f.opPending = false
	// Without a log the frame may have been written back changed and
	// fetched again since, so the kept bytes must reach the disk.
	f.dirty = pre != nil || !logged
	return true
}

// revertBytes overwrites a page with its kept bytes, or zeroes a new one.
func revertBytes(data, pre []byte) {
	if pre == nil {
		clear(data)
		return
	}
	copy(data, pre)
}
