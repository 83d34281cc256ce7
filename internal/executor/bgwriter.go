package executor

import (
	"sync"
	"sync/atomic"
	"time"
)

// bgWriterMaxPages bounds one background-writer round.
const bgWriterMaxPages = 128

// bgWriter trickles committed dirty pages to disk in the background so
// CHECKPOINT finds a mostly-clean pool and shrinks to a bounded fsync
// instead of a stop-the-world write storm. Each round takes the shared
// statement lock with a try-acquire — a round never delays DDL or
// CHECKPOINT, it just skips the tick — and holds it across the round so
// a concurrent DROP cannot discard a relation mid-write. What is safe to
// write is the buffer pool's decision (Pool.WriteBackDirty):
// unpinned, fully committed frames only, WAL synced first, so the
// WAL-before-data and no-steal disciplines hold exactly as they do for
// eviction writeback.
type bgWriter struct {
	db       *DB
	interval time.Duration

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// Counters for SHOW STATS (sampled by sampleStorage).
	rounds  atomic.Int64 // rounds that ran (acquired the lock)
	skipped atomic.Int64 // ticks skipped because a statement held the lock exclusively
	pages   atomic.Int64 // pages written back across all rounds
}

// startBGWriter launches the background writer. Call once, at the end of
// Open, with the database fully constructed.
func startBGWriter(db *DB, interval time.Duration) *bgWriter {
	w := &bgWriter{
		db:       db,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *bgWriter) run() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.round()
		}
	}
}

// round writes back up to bgWriterMaxPages dirty frames of the pool.
func (w *bgWriter) round() {
	db := w.db
	if !db.stmtMu.TryRLock() {
		// An exclusive statement (DDL, CHECKPOINT, Close) is running or
		// queued; writing now would only stretch its wait.
		w.skipped.Add(1)
		return
	}
	defer db.stmtMu.RUnlock()
	w.rounds.Add(1)
	// A write-back failure is not fatal to the engine: the frame stays
	// dirty and eviction or CHECKPOINT will surface the error on a path
	// that can report it.
	n, _ := db.pool.WriteBackDirty(bgWriterMaxPages)
	w.pages.Add(int64(n))
}

// stopBGWriter stops the background writer and waits for an in-flight
// round to finish. Idempotent and nil-safe; Close and Crash call it
// before taking the exclusive lock.
func (db *DB) stopBGWriter() {
	w := db.bgw
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// BGWriterStats reports (rounds run, ticks skipped, pages written) —
// zeros when the background writer is disabled.
func (db *DB) BGWriterStats() (rounds, skipped, pages int64) {
	w := db.bgw
	if w == nil {
		return 0, 0, 0
	}
	return w.rounds.Load(), w.skipped.Load(), w.pages.Load()
}
