package executor_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/storage"
	"repro/internal/wal"
)

// txnTable creates the (name text, id int) word table with a trie index
// that the transaction tests share.
func txnTable(t *testing.T, db *executor.DB) *executor.Table {
	t.Helper()
	tb, err := db.CreateTable("words", []executor.Column{
		{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	return tb
}

// visibleNames scans the table under a fresh snapshot (or tx's snapshot
// when tx is non-nil) and returns the set of visible names.
func visibleNames(t *testing.T, tb *executor.Table, tx *executor.Txn) map[string]bool {
	t.Helper()
	got := map[string]bool{}
	if _, err := tb.SelectTx(tx, nil, func(r executor.Row) bool {
		got[r.Tuple[0].S] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestTxnSnapshotVisibility is the acceptance gate in miniature: rows
// inserted by an open transaction are visible to the transaction's own
// statements, invisible to everyone else, and a concurrent SELECT on
// the same table never blocks on the open write lock.
func TestTxnSnapshotVisibility(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	tb := txnTable(t, db)

	seed := []catalog.Tuple{batchTuple(1), batchTuple(2), batchTuple(3)}
	if _, err := tb.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	uncommitted := make([]catalog.Tuple, 50)
	for i := range uncommitted {
		uncommitted[i] = batchTuple(100 + i)
	}
	if _, err := tb.InsertBatchTx(tx, uncommitted); err != nil {
		t.Fatal(err)
	}

	// A reader on another goroutine: must return promptly (snapshot
	// read, no lock wait) and must see only the seed rows.
	type scan struct {
		names map[string]bool
		err   error
	}
	ch := make(chan scan, 1)
	go func() {
		got := map[string]bool{}
		_, err := tb.Select(nil, func(r executor.Row) bool {
			got[r.Tuple[0].S] = true
			return true
		})
		ch <- scan{got, err}
	}()
	select {
	case s := <-ch:
		if s.err != nil {
			t.Fatal(s.err)
		}
		if len(s.names) != len(seed) {
			t.Fatalf("concurrent reader saw %d rows, want only the %d committed seeds", len(s.names), len(seed))
		}
		for _, tup := range uncommitted {
			if s.names[tup[0].S] {
				t.Fatalf("concurrent reader saw uncommitted row %q", tup[0].S)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent SELECT blocked on an open transaction's write lock")
	}

	// The index path applies the same snapshot: a prefix scan from
	// outside the transaction finds no uncommitted rows either.
	n := 0
	if err := tb.SelectIndexed(tb.Indexes[0], &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText("word001")}, func(executor.Row) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("index scan outside the transaction found %d uncommitted rows", n)
	}

	// The transaction reads its own writes.
	own := visibleNames(t, tb, tx)
	if len(own) != len(seed)+len(uncommitted) {
		t.Fatalf("transaction sees %d of its rows, want %d", len(own), len(seed)+len(uncommitted))
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := visibleNames(t, tb, nil)
	if len(after) != len(seed)+len(uncommitted) {
		t.Fatalf("after COMMIT %d rows visible, want %d", len(after), len(seed)+len(uncommitted))
	}
	if got := tb.RowCount(); got != int64(len(seed)+len(uncommitted)) {
		t.Fatalf("RowCount=%d after COMMIT, want %d", got, len(seed)+len(uncommitted))
	}
}

// TestTxnRollback: a transaction that inserted, updated, and deleted
// rolls back to exactly the pre-transaction state, and VACUUM then
// reclaims every version the rollback orphaned.
func TestTxnRollback(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	tb := txnTable(t, db)

	const seedRows = 20
	seed := make([]catalog.Tuple, seedRows)
	for i := range seed {
		seed[i] = batchTuple(i)
	}
	if _, err := tb.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}
	before := visibleNames(t, tb, nil)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertBatchTx(tx, []catalog.Tuple{batchTuple(500), batchTuple(501)}); err != nil {
		t.Fatal(err)
	}
	if n, _, err := tb.DeleteWhereTx(tx, &executor.Pred{Column: 0, Op: "=", Arg: seed[0][0]}); err != nil || n != 1 {
		t.Fatalf("in-txn delete: n=%d err=%v", n, err)
	}
	if n, _, err := tb.UpdateWhereTx(tx, &executor.Pred{Column: 0, Op: "=", Arg: seed[1][0]},
		[]executor.ColUpdate{{Column: 1, Value: catalog.NewInt(9999)}}); err != nil || n != 1 {
		t.Fatalf("in-txn update: n=%d err=%v", n, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	after := visibleNames(t, tb, nil)
	if len(after) != len(before) {
		t.Fatalf("after ROLLBACK %d rows visible, want %d", len(after), len(before))
	}
	for name := range before {
		if !after[name] {
			t.Fatalf("row %q lost by ROLLBACK", name)
		}
	}
	// The updated row reads its original value again.
	if _, err := tb.Select(&executor.Pred{Column: 0, Op: "=", Arg: seed[1][0]}, func(r executor.Row) bool {
		if r.Tuple[1].I != seed[1][1].I {
			t.Fatalf("rolled-back UPDATE left id=%d, want %d", r.Tuple[1].I, seed[1][1].I)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// VACUUM reclaims the aborted insert versions (2 new rows + 1
	// update successor); the deleted/updated originals had their xmax
	// cleared by rollback and must survive.
	reclaimed, err := db.Vacuum("words")
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 3 {
		t.Fatalf("VACUUM reclaimed %d versions, want 3 aborted ones", reclaimed)
	}
	if got := visibleNames(t, tb, nil); len(got) != seedRows {
		t.Fatalf("after VACUUM %d rows visible, want %d", len(got), seedRows)
	}
}

// TestTxnCommittedDeleteVacuum: a committed DELETE leaves dead versions
// behind that VACUUM reclaims once no snapshot can see them.
func TestTxnCommittedDeleteVacuum(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	tb := txnTable(t, db)

	tups := make([]catalog.Tuple, 30)
	for i := range tups {
		tups[i] = batchTuple(i)
	}
	if _, err := tb.InsertBatch(tups); err != nil {
		t.Fatal(err)
	}
	if n, err := tb.DeleteWhere(&executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText("word0000")}); err != nil || n != 10 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	reclaimed, err := db.Vacuum("words")
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 10 {
		t.Fatalf("VACUUM reclaimed %d, want 10", reclaimed)
	}
	if got := len(visibleNames(t, tb, nil)); got != 20 {
		t.Fatalf("%d rows visible after VACUUM, want 20", got)
	}
}

// TestTxnCrashBetweenInsertChunks is the atomicity-hole regression test:
// an oversized INSERT that crashes after flushing some (but not all) of
// its chunks must contribute zero visible rows after recovery, because
// no transaction commit record ever hit the log.
func TestTxnCrashBetweenInsertChunks(t *testing.T) {
	dir := t.TempDir()
	var armed atomic.Bool
	errBoom := errors.New("injected crash between chunks")
	faults := executor.FaultInjection{BetweenDMLChunks: func(stmt string, chunksDone int) error {
		if armed.Load() && chunksDone >= 1 {
			return errBoom
		}
		return nil
	}}
	open := func() *executor.DB {
		// At 16 frames a chunk may dirty 8 pages. The 1 000 doomed rows'
		// tuples alone fill six new heap pages, and their trie entries
		// more, so the statement splits and the fault fires mid-way.
		db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tb := txnTable(t, db)
	seed := []catalog.Tuple{batchTuple(9001), batchTuple(9002)}
	if _, err := tb.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}

	doomed := make([]catalog.Tuple, 1000)
	for i := range doomed {
		doomed[i] = batchTuple(i)
	}
	armed.Store(true)
	if _, err := tb.InsertBatchTx(nil, doomed); !errors.Is(err, errBoom) {
		t.Fatalf("fault did not fire: %v", err)
	}
	armed.Store(false)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	tb, err := db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	got := visibleNames(t, tb, nil)
	if len(got) != len(seed) {
		t.Fatalf("recovered %d visible rows, want only the %d seeds (chunked-DML atomicity violated)", len(got), len(seed))
	}
	for _, tup := range doomed {
		if got[tup[0].S] {
			t.Fatalf("row %q from the crashed statement is visible after recovery", tup[0].S)
		}
	}
	// VACUUM sweeps whatever chunk residue recovery marked aborted.
	if _, err := db.Vacuum("words"); err != nil {
		t.Fatal(err)
	}
	if got := visibleNames(t, tb, nil); len(got) != len(seed) {
		t.Fatalf("%d rows visible after VACUUM, want %d", len(got), len(seed))
	}
}

// TestTxnCrashBetweenDeleteChunks: the DELETE-side mirror — a chunked
// DELETE that crashes mid-statement must leave every row visible after
// recovery.
func TestTxnCrashBetweenDeleteChunks(t *testing.T) {
	dir := t.TempDir()
	var armed atomic.Bool
	errBoom := errors.New("injected crash between chunks")
	faults := executor.FaultInjection{BetweenDMLChunks: func(stmt string, chunksDone int) error {
		if armed.Load() && strings.HasPrefix(stmt, "DELETE") && chunksDone >= 1 {
			return errBoom
		}
		return nil
	}}
	open := func() *executor.DB {
		// At 16 frames a chunk may dirty 8 pages, and a DELETE stamps one
		// heap page a row: over a heap of more pages, 8 rows a chunk.
		db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tb := txnTable(t, db)
	const rows = 2000
	tups := make([]catalog.Tuple, rows)
	for i := range tups {
		tups[i] = batchTuple(i)
	}
	if _, err := tb.InsertBatch(tups); err != nil {
		t.Fatal(err)
	}
	if n := tb.Heap.NumPages(); n <= 8 {
		t.Fatalf("the heap holds %d pages; a DELETE of its rows takes one chunk", n)
	}

	armed.Store(true)
	if _, err := tb.DeleteWhere(nil); !errors.Is(err, errBoom) {
		t.Fatalf("fault did not fire: %v", err)
	}
	armed.Store(false)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	tb, err := db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	if got := visibleNames(t, tb, nil); len(got) != rows {
		t.Fatalf("recovered %d visible rows, want all %d (crashed DELETE must apply nothing)", len(got), rows)
	}
}

// TestTxnCrashWithOpenTransaction: statements inside an explicit
// transaction reach the log under plain group markers; if the process
// dies before COMMIT appends the transaction's commit record, recovery
// must treat every one of them as aborted.
func TestTxnCrashWithOpenTransaction(t *testing.T) {
	dir := t.TempDir()
	open := func() *executor.DB {
		db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tb := txnTable(t, db)
	seed := []catalog.Tuple{batchTuple(9001)}
	if _, err := tb.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Oversized batch: the chunk flushes force its frames into the log
	// before the crash, so recovery really does see the rows and must
	// actively hide them, not merely never replay them.
	pending := make([]catalog.Tuple, 200)
	for i := range pending {
		pending[i] = batchTuple(i)
	}
	if _, err := tb.InsertBatchTx(tx, pending); err != nil {
		t.Fatal(err)
	}
	if n, _, err := tb.DeleteWhereTx(tx, &executor.Pred{Column: 0, Op: "=", Arg: seed[0][0]}); err != nil || n != 1 {
		t.Fatalf("in-txn delete: n=%d err=%v", n, err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	tb, err = db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	got := visibleNames(t, tb, nil)
	if len(got) != 1 || !got[seed[0][0].S] {
		t.Fatalf("recovered visible set %v, want exactly the pre-txn seed (uncommitted txn must vanish)", got)
	}
}

// TestTxnOpenAcrossCheckpointCrash: a transaction open at a CHECKPOINT —
// begun, and read only so far, so the checkpoint runs — writes after it
// and never commits. Its xid is below the next xid the checkpoint
// recorded, so only the checkpoint's list of open transactions tells
// recovery that it is unresolved: its row must vanish and the row it
// deleted stay, through a Seq Scan and through the index alike, while the
// row committed before the checkpoint is kept. A second crash before any
// checkpoint recovers the same rows and repairs nothing new.
func TestTxnOpenAcrossCheckpointCrash(t *testing.T) {
	dir := t.TempDir()
	open := func() *executor.DB {
		db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tb := txnTable(t, db)
	a, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if got := visibleNames(t, tb, a); len(got) != 0 {
		t.Fatalf("A reads %v from a fresh table", got)
	}
	rowA, rowB := batchTuple(1), batchTuple(2)
	b, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertBatchTx(b, []catalog.Tuple{rowB}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("CHECKPOINT with a transaction that only read: %v", err)
	}
	if _, err := tb.InsertBatchTx(a, []catalog.Tuple{rowA}); err != nil {
		t.Fatal(err)
	}
	if n, _, err := tb.DeleteWhereTx(a, &executor.Pred{Column: 0, Op: "=", Arg: rowB[0]}); err != nil || n != 1 {
		t.Fatalf("A's delete of B's row: n=%d err=%v", n, err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	for round, fixups := range []int64{1, 0} {
		db = open()
		if rs := db.RecoveryStats(); rs.AbortFixups != fixups || rs.XmaxFixups != fixups {
			t.Fatalf("reopen %d: %d tuples flagged aborted and %d xmaxes cleared, want %d each", round+1, rs.AbortFixups, rs.XmaxFixups, fixups)
		}
		tb, err = db.Table("words")
		if err != nil {
			t.Fatal(err)
		}
		if got := visibleNames(t, tb, nil); len(got) != 1 || !got[rowB[0].S] {
			t.Fatalf("reopen %d: a Seq Scan sees %v, want B's row alone", round+1, got)
		}
		for _, c := range []struct {
			row  catalog.Tuple
			want int
		}{{rowA, 0}, {rowB, 1}} {
			n := 0
			if err := tb.SelectIndexed(tb.Indexes[0], &executor.Pred{Column: 0, Op: "=", Arg: c.row[0]}, func(executor.Row) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if n != c.want {
				t.Fatalf("reopen %d: the index finds %d rows of %q, want %d", round+1, n, c.row[0].S, c.want)
			}
		}
		if err := db.Crash(); err != nil {
			t.Fatal(err)
		}
	}
}

// olderCheckpointLog replaces the log in dir, which a clean Close left
// holding its checkpoint alone, by the one an older build's clean Close
// left: a checkpoint record at the same LSN without transaction state.
func olderCheckpointLog(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("the closed log holds segments %v (%v), want one", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	recs := append(seg[8:16:16], byte(wal.RecCheckpoint), 0) // first LSN, an empty checkpoint
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)-8))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(recs, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(segs[0], append(frame, recs...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// removeLog removes the log of dir, a database a clean Close left; its
// pages keep the LSNs the log gave them.
func removeLog(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
}

// preLogDir turns dir, a database a clean Close left, into one an older
// build wrote without a log: no log, and pages that carry no LSN.
func preLogDir(t *testing.T, dir string) {
	t.Helper()
	removeLog(t, dir)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		path := filepath.Join(dir, f.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += storage.DefaultPageSize {
			if page := data[off : off+storage.DefaultPageSize]; storage.PageLSN(page) != 0 {
				storage.SetPageLSN(page, 0)
				storage.StampPageChecksum(page)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// failingOpen returns strip followed by an Open of dir that fails after
// the log is begun: the table's file is hidden from it, so the catalog
// names a file that is missing. The log keeps what that Open appended.
func failingOpen(strip func(t *testing.T, dir string)) func(t *testing.T, dir string) {
	return func(t *testing.T, dir string) {
		t.Helper()
		strip(t, dir)
		files, err := filepath.Glob(filepath.Join(dir, "*.tbl"))
		if err != nil || len(files) != 1 {
			t.Fatalf("table files %v (%v), want one", files, err)
		}
		if err := os.Rename(files[0], files[0]+".hidden"); err != nil {
			t.Fatal(err)
		}
		if _, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16}); err == nil || !strings.Contains(err.Error(), "is missing") {
			t.Fatalf("Open without the table's file: %v, want it refused", err)
		}
		if err := os.Rename(files[0]+".hidden", files[0]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTxnCrashOverLogWithoutState: a log that does not reach back to the
// database's creation — none at all, as over files an older build wrote
// without one or over files whose log was removed, or one whose
// checkpoint an older build wrote without transaction state — says
// nothing of the xids already on disk, so Open checkpoints their state
// before any DML. A fresh log over pages that carry an earlier log's LSNs
// numbers its records past them, or redo would pass them as already
// applied. A crash after DML then keeps every row committed before the
// open, the one committed after it and every delete, and hides only the
// open transaction's insert and delete. A log holding records behind an
// older build's checkpoint is refused: they cannot be judged. An Open that
// fails after beginning such a log leaves it without a checkpoint; the
// next Open checkpoints just the same.
func TestTxnCrashOverLogWithoutState(t *testing.T) {
	for _, c := range []struct {
		name  string
		strip func(t *testing.T, dir string)
	}{
		{"no log", preLogDir},
		{"log removed", removeLog},
		{"older checkpoint", olderCheckpointLog},
		{"no log, failed open", failingOpen(preLogDir)},
		{"log removed, failed open", failingOpen(removeLog)},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *executor.DB {
				db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16})
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			tb := txnTable(t, db)
			rows := []catalog.Tuple{batchTuple(1), batchTuple(2), batchTuple(3), batchTuple(4), batchTuple(5)}
			if _, err := tb.InsertBatch(rows[:3]); err != nil {
				t.Fatal(err)
			}
			if n, err := tb.DeleteWhere(&executor.Pred{Column: 0, Op: "=", Arg: rows[1][0]}); err != nil || n != 1 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			c.strip(t, dir)

			db = open()
			tb, err := db.Table("words")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.InsertBatch(rows[3:4]); err != nil {
				t.Fatal(err)
			}
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.InsertBatchTx(tx, rows[4:]); err != nil {
				t.Fatal(err)
			}
			if n, _, err := tb.DeleteWhereTx(tx, &executor.Pred{Column: 0, Op: "=", Arg: rows[0][0]}); err != nil || n != 1 {
				t.Fatalf("in-txn delete: n=%d err=%v", n, err)
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}

			db = open()
			defer db.Close()
			if rs := db.RecoveryStats(); rs.AbortFixups != 1 || rs.XmaxFixups != 1 {
				t.Fatalf("%d tuples flagged aborted and %d xmaxes cleared, want the open transaction's 1 each", rs.AbortFixups, rs.XmaxFixups)
			}
			tb, err = db.Table("words")
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{rows[0][0].S: true, rows[2][0].S: true, rows[3][0].S: true}
			if got := visibleNames(t, tb, nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("a Seq Scan sees %v, want %v", got, want)
			}
			for _, r := range rows {
				n := 0
				if err := tb.SelectIndexed(tb.Indexes[0], &executor.Pred{Column: 0, Op: "=", Arg: r[0]}, func(executor.Row) bool { n++; return true }); err != nil {
					t.Fatal(err)
				}
				if (n == 1) != want[r[0].S] || n > 1 {
					t.Fatalf("the index finds %d rows of %q", n, r[0].S)
				}
			}
		})
	}

	t.Run("records behind an older checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, txnTable(t, db).File())
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		olderCheckpointLog(t, dir)
		// The older build logged a page after its checkpoint: an image of
		// the table's meta page as it lies.
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wal.OpenWriter(filepath.Join(dir, "wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := wal.NewGroup()
		g.AddPageImage(filepath.Base(file), 0, data[:storage.DefaultPageSize], 0, 0)
		if _, _, err := w.AppendGroupCommit(g); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16}); err == nil || !strings.Contains(err.Error(), "without transaction state") {
			t.Fatalf("Open of a log with records behind an older build's checkpoint: %v, want it refused", err)
		}
	})
}

// TestTxnCommitDurableAcrossCrash: the flip side — a COMMITted explicit
// transaction survives a crash whole, including its deletes.
func TestTxnCommitDurableAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	open := func() *executor.DB {
		db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	tb := txnTable(t, db)
	seed := []catalog.Tuple{batchTuple(9001), batchTuple(9002)}
	if _, err := tb.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	added := make([]catalog.Tuple, 150)
	for i := range added {
		added[i] = batchTuple(i)
	}
	if _, err := tb.InsertBatchTx(tx, added); err != nil {
		t.Fatal(err)
	}
	if n, _, err := tb.DeleteWhereTx(tx, &executor.Pred{Column: 0, Op: "=", Arg: seed[0][0]}); err != nil || n != 1 {
		t.Fatalf("in-txn delete: n=%d err=%v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	tb, err = db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	got := visibleNames(t, tb, nil)
	want := len(added) + 1 // seed[1] survives, seed[0] deleted
	if len(got) != want {
		t.Fatalf("recovered %d visible rows, want %d", len(got), want)
	}
	if got[seed[0][0].S] {
		t.Fatalf("committed in-txn DELETE of %q undone by recovery", seed[0][0].S)
	}
}

// TestTxnLockTimeout: two writers on one table — the second times out
// with a clear error instead of deadlocking, and succeeds once the
// first commits.
func TestTxnLockTimeout(t *testing.T) {
	db, err := executor.Open(executor.Options{LockTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb := txnTable(t, db)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertBatchTx(tx, []catalog.Tuple{batchTuple(1)}); err != nil {
		t.Fatal(err)
	}

	// An implicit (autocommit) insert must give up after the timeout.
	if _, err := tb.Insert(batchTuple(2)); err == nil || !strings.Contains(err.Error(), "timed out waiting for write lock") {
		t.Fatalf("conflicting insert: got %v, want lock-timeout error", err)
	}
	// A second explicit transaction hits the same wall and stays usable.
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertBatchTx(tx2, []catalog.Tuple{batchTuple(3)}); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("second txn insert: got %v, want lock-timeout error", err)
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The lock is free now; both writers proceed.
	if _, err := tb.InsertBatchTx(tx2, []catalog.Tuple{batchTuple(4)}); err != nil {
		t.Fatalf("insert after lock release: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(batchTuple(5)); err != nil {
		t.Fatal(err)
	}
	if got := len(visibleNames(t, tb, nil)); got != 3 {
		t.Fatalf("%d rows committed, want 3 (txn1's, txn2's late one, autocommit)", got)
	}
}

// TestTxnBlocksDDLAndCheckpoint: DDL against a transaction-locked table
// and CHECKPOINT during a logged transaction are refused, not queued.
func TestTxnBlocksDDLAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb := txnTable(t, db)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertBatchTx(tx, []catalog.Tuple{batchTuple(1)}); err != nil {
		t.Fatal(err)
	}

	if err := db.DropTable("words"); err == nil || !strings.Contains(err.Error(), "locked by open transaction") {
		t.Fatalf("DROP TABLE under open txn: got %v, want refusal", err)
	}
	if _, err := db.CreateIndex("late_ix", "words", "name", "btree", "btree_text"); err == nil || !strings.Contains(err.Error(), "locked by open transaction") {
		t.Fatalf("CREATE INDEX under open txn: got %v, want refusal", err)
	}
	if err := db.Checkpoint(); err == nil || !strings.Contains(err.Error(), "open transaction") {
		t.Fatalf("CHECKPOINT under logged txn: got %v, want refusal", err)
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("CHECKPOINT after commit: %v", err)
	}
	if err := db.DropTable("words"); err != nil {
		t.Fatalf("DROP TABLE after commit: %v", err)
	}
}

// TestConcurrentSnapshotReadersVsWriter runs snapshot readers against a
// writer updating the same table (meant for -race). Invariant: every
// row's update flips the whole table's id column in one statement, and
// inserts/deletes are batched whole, so any single snapshot must see
// exactly rows0 rows whose ids are all 0 or all 1 — a torn count or a
// mixed generation means a reader saw a statement half-applied.
func TestConcurrentSnapshotReadersVsWriter(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	tb := txnTable(t, db)

	const rows0 = 64
	tups := make([]catalog.Tuple, rows0)
	for i := range tups {
		tups[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("row%03d", i)), catalog.NewInt(0)}
	}
	if _, err := tb.InsertBatch(tups); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Writer: flip every row's id between generations 0 and 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := int64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := tb.UpdateWhere(nil, []executor.ColUpdate{{Column: 1, Value: catalog.NewInt(gen)}})
			if err != nil {
				report(fmt.Errorf("writer update: %w", err))
				return
			}
			if n != rows0 {
				report(fmt.Errorf("writer updated %d rows, want %d", n, rows0))
				return
			}
			gen = 1 - gen
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		readers.Add(1)
		go func() {
			defer wg.Done()
			defer readers.Done()
			for i := 0; i < 200; i++ {
				count, gens := 0, map[int64]bool{}
				if _, err := tb.Select(nil, func(row executor.Row) bool {
					count++
					gens[row.Tuple[1].I] = true
					return true
				}); err != nil {
					report(fmt.Errorf("reader: %w", err))
					return
				}
				if count != rows0 {
					report(fmt.Errorf("snapshot saw %d rows, want %d", count, rows0))
					return
				}
				if len(gens) != 1 {
					report(fmt.Errorf("snapshot saw mixed generations %v (half-applied UPDATE)", gens))
					return
				}
			}
		}()
	}

	// Stop the writer once every reader has finished its scans, then
	// drain everything and report the first failure, if any.
	readersDone := make(chan struct{})
	go func() { readers.Wait(); close(readersDone) }()
	select {
	case <-readersDone:
	case <-time.After(60 * time.Second):
		close(stop)
		t.Fatal("readers did not finish")
	}
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("writer did not stop")
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Dead versions pile up fast at two full-table updates per flip;
	// VACUUM must reclaim them all and leave the live set intact.
	if _, err := db.Vacuum("words"); err != nil {
		t.Fatal(err)
	}
	if got := len(visibleNames(t, tb, nil)); got != rows0 {
		t.Fatalf("%d rows visible after the storm, want %d", got, rows0)
	}
}

// TestTxnUpdateMovesIndexEntries: an UPDATE of the indexed column must
// answer index scans with the new key and never the old one (after the
// statement commits), even before VACUUM removes the stale entries.
func TestTxnUpdateMovesIndexEntries(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	tb := txnTable(t, db)
	if _, err := tb.InsertBatch([]catalog.Tuple{
		{catalog.NewText("alpha"), catalog.NewInt(1)},
		{catalog.NewText("beta"), catalog.NewInt(2)},
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := tb.UpdateWhere(&executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText("alpha")},
		[]executor.ColUpdate{{Column: 0, Value: catalog.NewText("gamma")}}); err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	scan := func(key string) int {
		n := 0
		if err := tb.SelectIndexed(tb.Indexes[0], &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText(key)}, func(executor.Row) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := scan("alpha"); n != 0 {
		t.Fatalf("index still answers old key alpha with %d rows", n)
	}
	if n := scan("gamma"); n != 1 {
		t.Fatalf("index answers new key gamma with %d rows, want 1", n)
	}
	if n := scan("beta"); n != 1 {
		t.Fatalf("untouched row beta: %d, want 1", n)
	}
}
