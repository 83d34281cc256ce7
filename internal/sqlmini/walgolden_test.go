package sqlmini

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/wal"
)

// walStream renders every record currently in the log at dir, one line
// per record: type, file, page, slot, xid, decoded payload length (image
// bytes, tuple bytes, or the summed tuple bytes of a batch). LSNs are
// left out on purpose — the sequence is what is pinned; AppendedBytes
// pins the encoded sizes.
func walStream(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	_, err := wal.Replay(dir, func(r *wal.Record) error {
		n := len(r.Data)
		for _, rec := range r.Recs {
			n += len(rec)
		}
		fmt.Fprintf(&b, "%s file=%q page=%d slot=%d xid=%d len=%d\n", r.Type, r.File, r.Page, r.Slot, r.Xid, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestGoldenWALStream pins the exact record stream one seeded
// single-session script writes to the log of an on-disk SyncCommit
// database: which records, in which order, against which pages, with
// which payload sizes, and the total appended bytes. It exists so that a
// refactor of the logging path (buffer pool, heap, executor commit
// helpers) is proven record-for-record instead of argued: the golden
// below was captured before such a refactor and must not change with it.
// Under SyncCommit every statement's group is on disk when Exec returns,
// so the log is read back while the database is open: before CHECKPOINT
// (which recycles the segments read so far), before Close (which
// checkpoints again), and after it.
func TestGoldenWALStream(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(db)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
	// Batch INSERT: 300 deterministic words — several heap pages (one
	// batch record each) and more than 64 rows, so the index build below
	// places its intra-build commit markers.
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("('%s%03d', %d)", []string{"alpha", "beta", "gamma", "delta"}[i%4], (i*37)%300, i))
	}
	mustExec(t, s, `INSERT INTO w VALUES `+strings.Join(vals, ", "))
	mustExec(t, s, `CREATE INDEX wt ON w USING spgist (name spgist_trie)`)
	mustExec(t, s, `INSERT INTO w VALUES ('epsilon', 1000)`)
	mustExec(t, s, `UPDATE w SET id = 1001 WHERE name = 'epsilon'`)
	mustExec(t, s, `DELETE FROM w WHERE name = 'alpha000'`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO w VALUES ('zeta', 2000), ('eta', 2001)`)
	mustExec(t, s, `DELETE FROM w WHERE name = 'beta037'`)
	mustExec(t, s, `ROLLBACK`)
	mustExec(t, s, `VACUUM w`)
	walDir := filepath.Join(dir, "wal")
	got := walStream(t, walDir)
	mustExec(t, s, `CHECKPOINT`)
	// The first mutation of a checksummed page after a checkpoint ships
	// a full-page write behind its logical record.
	mustExec(t, s, `INSERT INTO w VALUES ('theta', 3000)`)
	got += "-- after CHECKPOINT --\n" + walStream(t, walDir)
	st := db.WAL().Stats()
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got += "-- after Close --\n" + walStream(t, walDir)
	got += fmt.Sprintf("appends=%d appended_bytes=%d\n", st.Appends, st.AppendedBytes)
	if got != goldenWALStream {
		t.Fatalf("WAL record stream changed.\n--- got ---\n%s--- want ---\n%s%s", got, goldenWALStream, firstDiff(got, goldenWALStream))
	}
}

// firstDiff names the first differing line of two streams.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("--- first difference at line %d: got %q, want %q\n", i+1, gl, wl)
		}
	}
	return ""
}

// goldenWALStream was captured at the commit before the storage/wal/heap
// logging refactor it guards (PR 17). One line was added since: ROLLBACK
// now logs the index meta page with its compensation records.
const goldenWALStream = `commit file="" page=0 slot=0 xid=0 len=0
file-create file="syscat.dat" page=0 slot=0 xid=0 len=0
heap-insert file="syscat.dat" page=1 slot=0 xid=0 len=27
page-image file="syscat.dat" page=0 slot=0 xid=0 len=17
commit file="" page=0 slot=0 xid=0 len=0
file-create file="rel1.tbl" page=0 slot=0 xid=0 len=0
heap-insert file="syscat.dat" page=1 slot=1 xid=0 len=27
heap-delete file="syscat.dat" page=1 slot=0 xid=0 len=0
heap-insert file="syscat.dat" page=1 slot=0 xid=0 len=64
page-image file="syscat.dat" page=0 slot=0 xid=0 len=17
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=17
commit file="" page=0 slot=0 xid=0 len=0
heap-insert file="syscat.dat" page=1 slot=2 xid=0 len=27
page-image file="syscat.dat" page=0 slot=0 xid=0 len=17
commit file="" page=0 slot=0 xid=0 len=0
heap-batch-insert file="rel1.tbl" page=1 slot=0 xid=0 len=7393
heap-batch-insert file="rel1.tbl" page=2 slot=0 xid=0 len=2783
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=17
commit file="" page=0 slot=0 xid=0 len=0
heap-batch-insert file="rel1.tbl" page=2 slot=0 xid=0 len=1749
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=17
txn-commit file="" page=0 slot=0 xid=1 len=0
commit file="" page=0 slot=0 xid=0 len=0
file-create file="rel2.idx" page=0 slot=0 xid=0 len=0
heap-insert file="syscat.dat" page=1 slot=3 xid=0 len=27
heap-delete file="syscat.dat" page=1 slot=1 xid=0 len=0
heap-insert file="syscat.dat" page=1 slot=1 xid=0 len=71
page-image file="syscat.dat" page=0 slot=0 xid=0 len=17
page-image file="rel2.idx" page=0 slot=0 xid=0 len=8
commit file="" page=0 slot=0 xid=0 len=0
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
commit file="" page=0 slot=0 xid=0 len=0
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
commit file="" page=0 slot=0 xid=0 len=0
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
commit file="" page=0 slot=0 xid=0 len=0
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
commit file="" page=0 slot=0 xid=0 len=0
heap-delete file="syscat.dat" page=1 slot=1 xid=0 len=0
heap-insert file="syscat.dat" page=1 slot=1 xid=0 len=71
page-image file="syscat.dat" page=0 slot=0 xid=0 len=17
page-image file="rel2.idx" page=0 slot=0 xid=0 len=18
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
commit file="" page=0 slot=0 xid=0 len=0
heap-batch-insert file="rel1.tbl" page=2 slot=0 xid=0 len=39
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=17
page-image file="rel2.idx" page=0 slot=0 xid=0 len=18
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
txn-commit file="" page=0 slot=0 xid=2 len=0
commit file="" page=0 slot=0 xid=0 len=0
heap-set-xmax file="rel1.tbl" page=2 slot=114 xid=3 len=0
heap-insert file="rel1.tbl" page=2 slot=115 xid=0 len=39
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=17
page-image file="rel2.idx" page=0 slot=0 xid=0 len=18
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
txn-commit file="" page=0 slot=0 xid=3 len=0
commit file="" page=0 slot=0 xid=0 len=0
heap-set-xmax file="rel1.tbl" page=1 slot=0 xid=4 len=0
page-image file="rel2.idx" page=0 slot=0 xid=0 len=18
txn-commit file="" page=0 slot=0 xid=4 len=0
commit file="" page=0 slot=0 xid=0 len=0
heap-batch-insert file="rel1.tbl" page=2 slot=0 xid=0 len=71
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=17
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
commit file="" page=0 slot=0 xid=0 len=0
heap-set-xmax file="rel1.tbl" page=1 slot=1 xid=5 len=0
commit file="" page=0 slot=0 xid=0 len=0
heap-clear-xmax file="rel1.tbl" page=1 slot=1 xid=0 len=0
heap-mark-aborted file="rel1.tbl" page=2 slot=117 xid=0 len=0
heap-mark-aborted file="rel1.tbl" page=2 slot=116 xid=0 len=0
page-image file="rel2.idx" page=0 slot=0 xid=0 len=18
commit file="" page=0 slot=0 xid=0 len=0
txn-abort file="" page=0 slot=0 xid=5 len=0
commit file="" page=0 slot=0 xid=0 len=0
heap-delete file="rel1.tbl" page=1 slot=0 xid=0 len=0
heap-delete file="rel1.tbl" page=2 slot=114 xid=0 len=0
heap-delete file="rel1.tbl" page=2 slot=116 xid=0 len=0
heap-delete file="rel1.tbl" page=2 slot=117 xid=0 len=0
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=17
page-image file="rel2.idx" page=0 slot=0 xid=0 len=18
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
commit file="" page=0 slot=0 xid=0 len=0
-- after CHECKPOINT --
checkpoint file="" page=0 slot=0 xid=0 len=0
heap-batch-insert file="rel1.tbl" page=2 slot=0 xid=0 len=37
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=17
page-image file="rel1.tbl" page=2 slot=0 xid=0 len=8185
page-image file="rel2.idx" page=0 slot=0 xid=0 len=18
page-image file="rel2.idx" page=1 slot=0 xid=0 len=8191
txn-commit file="" page=0 slot=0 xid=6 len=0
commit file="" page=0 slot=0 xid=0 len=0
-- after Close --
checkpoint file="" page=0 slot=0 xid=0 len=0
appends=91 appended_bytes=107407
`
