package obs

import (
	"sync/atomic"
	"time"
)

// WaitEvent names one blocking point in the engine — the pg_stat_activity
// wait_event taxonomy of this codebase. Every event is observed in two
// places at once: cumulatively in a WaitSet (count + nanoseconds, scraped
// into the metrics registry) and instantaneously on the blocked session's
// activity entry, so SHOW ACTIVITY can answer "what is session 7 blocked
// on right now?".
type WaitEvent int32

const (
	// WaitNone is the zero value: not waiting.
	WaitNone WaitEvent = iota
	// WaitLockCatalog: blocked acquiring the catalog/DDL statement lock
	// (stmtMu). Shared waiters are blocked by in-flight DDL/ANALYZE/
	// CHECKPOINT; an exclusive waiter is blocked by any running statement.
	WaitLockCatalog
	// WaitLockTable: blocked acquiring a per-table reader/writer lock —
	// a reader behind a writer of the same table, or a writer behind
	// anything on the same table.
	WaitLockTable
	// WaitBufPool: blocked acquiring the buffer-pool mutex, which another
	// session holds for a page lookup, a clock sweep or a write-back. A
	// miss's disk read runs with the mutex released.
	WaitBufPool
	// WaitIOHeapRead: reading a heap page from disk on a buffer-pool miss.
	WaitIOHeapRead
	// WaitIOIndexRead: reading an index page from disk on a miss.
	WaitIOIndexRead
	// WaitIOCatalogRead: reading a system-catalog page from disk.
	WaitIOCatalogRead
	// WaitWALFsync: this session is the group-commit leader, inside the
	// WAL write+fsync that covers every follower.
	WaitWALFsync
	// WaitWALCommitWait: a group-commit follower parked on the leader's
	// in-flight fsync.
	WaitWALCommitWait
	// WaitIORetry: backing off before retrying a page read or write that
	// failed with a transient I/O error. The sleep, not the I/O itself,
	// is charged here; the retried I/O charges its usual event.
	WaitIORetry

	// NumWaitEvents bounds the enum; a WaitSet is a fixed array over it.
	NumWaitEvents
)

var waitEventNames = [NumWaitEvents]string{
	WaitNone:          "none",
	WaitLockCatalog:   "lock_catalog",
	WaitLockTable:     "lock_table",
	WaitBufPool:       "buf_pool",
	WaitIOHeapRead:    "io_heap_read",
	WaitIOIndexRead:   "io_index_read",
	WaitIOCatalogRead: "io_catalog_read",
	WaitWALFsync:      "wal_fsync",
	WaitWALCommitWait: "wal_commit_wait",
	WaitIORetry:       "io_retry",
}

// String returns the event's registry/display name.
func (e WaitEvent) String() string {
	if e < 0 || e >= NumWaitEvents {
		return "unknown"
	}
	return waitEventNames[e]
}

type waitCell struct {
	count atomic.Int64
	ns    atomic.Int64
	// resolves counts the waits whose Begin looked up the waiting
	// goroutine's session (one goroutine-id lookup each).
	resolves atomic.Int64
}

// WaitSet accumulates per-event wait counts and durations. One WaitSet
// serves the whole database: every component (executor locks, the buffer
// pool, the WAL writer) holds a pointer to it and records waits with
// Begin/End. All methods are nil-receiver safe so components built
// standalone (tests, tools) pay one predictable branch and no clock.
//
// The costing rule is to pay only where the wait dwarfs the price.
// Lock-style events read the clock only after a try-acquire already
// failed, so the uncontended fast path stays timestamp-free; I/O events
// are timed unconditionally because a disk read dwarfs the clock reads.
// Live attribution costs a goroutine-id lookup (microseconds, see
// goid), so it follows the same rule per event — see attributed.
type WaitSet struct {
	cells [NumWaitEvents]waitCell
	act   *Activity // optional: live attribution of in-progress waits
}

// NewWaitSet creates a WaitSet. act may be nil; when set, Begin/End also
// flip the calling session's live state to waiting and back.
func NewWaitSet(act *Activity) *WaitSet { return &WaitSet{act: act} }

// WaitMark is an in-progress wait observation returned by Begin.
type WaitMark struct {
	start time.Time
	ev    WaitEvent
	se    *SessionEntry
}

// slowReadNs is the mean page-read time from which a read is worth
// attributing live: ten times a goroutine-id lookup, and long enough
// for a scrape to have a chance of catching the reader mid-read.
const slowReadNs = 50_000

// Attributed reports whether a wait on ev is worth resolving the
// calling goroutine's session for. Waits that have already blocked
// (locks, the WAL, retry backoff) always are: the block costs far more
// than the lookup. A page read sits between —
// a few microseconds from the OS cache, milliseconds from a slow
// device — so it is attributed once the event's own history says reads
// are slow (cumulative mean, so a device takes a while to change class;
// the first read after start or STATS RESET is never attributed).
func (ws *WaitSet) Attributed(ev WaitEvent) bool {
	switch ev {
	case WaitIOHeapRead, WaitIOIndexRead, WaitIOCatalogRead:
		c := &ws.cells[ev]
		n := c.count.Load()
		return n > 0 && c.ns.Load() >= n*slowReadNs
	}
	return true
}

// Begin opens a wait observation: it reads the clock and, when an
// activity table is attached and the event is attributed, marks the
// calling goroutine's session as waiting on ev. Call only when a block
// is certain (a try-acquire failed) or already expensive (disk I/O).
func (ws *WaitSet) Begin(ev WaitEvent) WaitMark {
	if ws == nil {
		return WaitMark{}
	}
	m := WaitMark{start: time.Now(), ev: ev}
	if ws.act != nil && ws.Attributed(ev) {
		se, looked := ws.act.current()
		if looked {
			ws.cells[ev].resolves.Add(1)
		}
		if se != nil && se.setWait(ev) {
			m.se = se
		}
	}
	return m
}

// End closes a wait observation, charging the elapsed time to the event
// and clearing the session's waiting state. It returns the elapsed
// nanoseconds so callers can feed pre-existing counters without a second
// clock read; a zero mark (nil WaitSet) returns 0.
func (ws *WaitSet) End(m WaitMark) int64 {
	if ws == nil || m.start.IsZero() {
		return 0
	}
	ns := time.Since(m.start).Nanoseconds()
	c := &ws.cells[m.ev]
	c.count.Add(1)
	c.ns.Add(ns)
	if m.se != nil {
		m.se.clearWait()
	}
	return ns
}

// Count returns the cumulative (count, ns) pair for ev.
func (ws *WaitSet) Count(ev WaitEvent) (count, ns int64) {
	if ws == nil {
		return 0, 0
	}
	return ws.cells[ev].count.Load(), ws.cells[ev].ns.Load()
}

// Resolves returns how many waits on ev looked up the waiting
// goroutine's session: every goroutine-id lookup a wait costs.
func (ws *WaitSet) Resolves(ev WaitEvent) int64 {
	if ws == nil {
		return 0
	}
	return ws.cells[ev].resolves.Load()
}

// Reset zeroes every cell (SHOW STATS RESET).
func (ws *WaitSet) Reset() {
	if ws == nil {
		return
	}
	for i := range ws.cells {
		ws.cells[i].count.Store(0)
		ws.cells[i].ns.Store(0)
		ws.cells[i].resolves.Store(0)
	}
}

// Register joins the WaitSet to a registry readout: each event (other
// than none) contributes wait_<name>_total and wait_<name>_ns_total.
func (ws *WaitSet) Register(r *Registry) {
	r.Sample(func(emit func(name string, value int64)) {
		for ev := WaitNone + 1; ev < NumWaitEvents; ev++ {
			count, ns := ws.Count(ev)
			emit("wait_"+ev.String()+"_total", count)
			emit("wait_"+ev.String()+"_ns_total", ns)
		}
	})
}
