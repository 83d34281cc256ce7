package executor

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Degraded mode: when the write-ahead log becomes unusable — ENOSPC, a
// permanent device error, anything that sets the wal.Writer's sticky
// error — the database flips into a read-only state instead of
// panicking or limping on without durability. SELECTs keep working off
// the buffer pool; every statement that would need to append to the
// log (DML, DDL, CHECKPOINT, VACUUM, ANALYZE) fails fast with a typed
// *ErrReadOnly; SHOW STATE and /healthz report the condition so an
// operator (or orchestrator) can replace the disk and restart. The
// flip is one-way for the process lifetime — a sticky log error cannot
// clear without reopening the database. It is the one sticky failure
// state: the other way in is a failed DDL statement whose catalog
// revert could not read a page back (only possible without a log),
// which leaves the in-memory catalog beside its pages.

// ErrReadOnly is returned by write statements while the database is in
// read-only degraded mode. Cause is the storage failure that forced
// the degradation: the log's sticky error, or the read a catalog revert
// failed on.
type ErrReadOnly struct{ Cause error }

func (e *ErrReadOnly) Error() string {
	return fmt.Sprintf("executor: database is read-only (degraded): %v", e.Cause)
}

func (e *ErrReadOnly) Unwrap() error { return e.Cause }

// degradedState records why and when the database went read-only.
type degradedState struct {
	cause error
	since time.Time
}

// enterDegraded flips the database read-only. First cause wins;
// callers race only when several statements hit the dead log at once.
func (db *DB) enterDegraded(cause error) {
	st := &degradedState{cause: cause, since: time.Now()}
	if db.degraded.CompareAndSwap(nil, st) {
		fmt.Fprintf(db.slowQueryLog, "executor: entering read-only degraded mode: %v\n", cause)
	}
}

// Degraded returns the failure that forced read-only mode, or nil when
// the database is healthy.
func (db *DB) Degraded() error {
	if st := db.degraded.Load(); st != nil {
		return st.cause
	}
	return nil
}

// State reports the database state for SHOW STATE and /healthz:
// "ok" or "degraded". Detail carries the cause and onset time.
func (db *DB) State() (state, detail string) {
	st := db.degraded.Load()
	if st == nil {
		return "ok", ""
	}
	return "degraded", fmt.Sprintf("read-only since %s: %v", st.since.Format(time.RFC3339), st.cause)
}

// checkWritable gates write statements: nil when healthy, a typed
// *ErrReadOnly once degraded. Called from the DML prologue, every
// DDL/maintenance entry point and CHECKPOINT.
func (db *DB) checkWritable() error {
	if st := db.degraded.Load(); st != nil {
		return &ErrReadOnly{Cause: st.cause}
	}
	return nil
}

// noteWALFailure inspects a commit-path error: if the log writer now
// carries a sticky error, the log is gone for good and the database
// degrades to read-only. The original statement error is returned
// unchanged — the statement that hit the failure reports the real
// cause; everything after it gets ErrReadOnly from checkWritable.
func (db *DB) noteWALFailure(err error) error {
	if err == nil || db.wal == nil {
		return err
	}
	if werr := db.wal.Err(); werr != nil {
		db.enterDegraded(werr)
	}
	return err
}

// degradedPtr is the DB field's type alias spelled out for readability
// at the struct declaration.
type degradedPtr = atomic.Pointer[degradedState]
