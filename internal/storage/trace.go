package storage

import (
	"maps"
	"slices"
	"sync"
)

// PageTrace counts the distinct pages of one relation file that are read
// while it is armed — the page reads a cold (unbuffered) execution would
// issue, which is the cost the paper's I/O-bound measurements see. It is
// the buffer pool's, as EXPLAIN's BUFFERS is the buffer manager's in
// PostgreSQL, so every access method is counted the same way: each Fetch
// of the relation's pages visits one, and an access method that serves a
// page's contents from memory of its own (SP-GiST's node table) reports
// the visit with TracePage. A disarmed trace (the norm) costs one pointer
// load per fetch. An armed one counts every fetch of the relation's pages
// in its window, a concurrent reader's included; it has its own mutex, so
// traced reads may run from several goroutines.
type PageTrace struct {
	mu    sync.Mutex
	pages map[PageID]struct{}
}

// StartPageTrace arms a new page trace on the relation, replacing any
// armed one.
func (bp *BufferPool) StartPageTrace() {
	bp.trace.Store(&PageTrace{pages: make(map[PageID]struct{})})
}

// PageTraceCount disarms the relation's page trace and reports the
// distinct pages it visited (0 when none was armed).
func (bp *BufferPool) PageTraceCount() int { return len(bp.PageTracePages()) }

// PageTracePages disarms the relation's page trace and returns the
// distinct pages it visited, in ascending order (none when none was armed).
func (bp *BufferPool) PageTracePages() []PageID {
	tr := bp.trace.Swap(nil)
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return slices.Sorted(maps.Keys(tr.pages))
}

// TracePage records a visit of page id in the armed trace, if any.
func (bp *BufferPool) TracePage(id PageID) {
	if tr := bp.trace.Load(); tr != nil {
		tr.mu.Lock()
		tr.pages[id] = struct{}{}
		tr.mu.Unlock()
	}
}
