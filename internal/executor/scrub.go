package executor

import (
	"fmt"

	"repro/internal/storage"
)

// SCRUB: online checksum verification of relation files, the pg_checksums
// / amcheck analogue. Every page of every relation file — heaps, indexes
// and the system catalog, page 0 included — is read from disk and
// verified against its stored checksum. Pages whose cached frame is dirty
// are skipped — the disk copy is legitimately stale there — and a failed
// read is confirmed under the buffer pool's mutex, so a concurrent
// eviction write can never be observed half-done. The scan runs under the
// shared statement lock: queries and DML proceed, only DDL waits.

// ScrubIssue reports one page that failed verification.
type ScrubIssue struct {
	File string
	Page storage.PageID
	Err  error
}

func (i ScrubIssue) String() string {
	return fmt.Sprintf("%s page %d: %v", i.File, i.Page, i.Err)
}

// ScrubResult summarizes one SCRUB run.
type ScrubResult struct {
	FilesChecked int
	PagesChecked int64
	Issues       []ScrubIssue
}

// Scrub checksum-verifies every page of every relation file (or only
// those of tableName and its indexes when non-empty). The error return is for
// setup problems (unknown table); corrupt pages are reported in
// Issues, not as an error, so one bad page never hides the rest of the
// report.
func (db *DB) Scrub(tableName string) (*ScrubResult, error) {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	var pools []*storage.BufferPool
	if tableName == "" {
		pools = db.pool.Relations()
	} else {
		t, err := db.Table(tableName)
		if err != nil {
			return nil, err
		}
		if err := t.checkAttached(); err != nil {
			return nil, err
		}
		pools = tablePools(t)
	}
	res := &ScrubResult{}
	scratch := make([]byte, db.pageSize)
	for _, bp := range pools {
		res.FilesChecked++
		n := bp.DM().NumPages()
		for p := uint32(0); p < n; p++ {
			res.PagesChecked++
			if err := bp.VerifyPage(storage.PageID(p), scratch); err != nil {
				res.Issues = append(res.Issues, ScrubIssue{
					File: bp.FileName(),
					Page: storage.PageID(p),
					Err:  err,
				})
			}
		}
	}
	return res, nil
}
