package executor_test

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
)

// TestBGWriterCrashKeepsCommittedOnly runs the background writer beside
// an open transaction: it writes committed pages to the data files while
// the transaction's uncommitted rows sit dirty in a pool smaller than
// the table. After a crash and a reopen without the writer, exactly the
// committed rows come back, through a seq scan and an index scan alike.
func TestBGWriterCrashKeepsCommittedOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{
		Dir: dir, WAL: true, PoolPages: 32, BGWriterInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := txnTable(t, db)
	const committed, uncommitted = 2000, 50
	rows := make([]catalog.Tuple, committed)
	for i := range rows {
		rows[i] = batchTuple(i)
	}
	if _, err := tb.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < uncommitted; i++ {
		if _, err := tb.InsertTx(tx, batchTuple(committed+i)); err != nil {
			t.Fatal(err)
		}
	}

	// Wait until the writer has written pages and has run a few rounds
	// with the transaction's frames dirty in the pool.
	roundsAtOpen, _, _ := db.BGWriterStats()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rounds, _, pages := db.BGWriterStats()
		var poolWrites int64
		db.Obs().Each(func(name string, v int64) {
			if name == "pool_bgwriter_writes_total" {
				poolWrites = v
			}
		})
		if pages > 0 && poolWrites > 0 && rounds >= roundsAtOpen+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background writer: %d rounds (%d at the transaction's start), %d pages, pool_bgwriter_writes_total=%d",
				rounds, roundsAtOpen, pages, poolWrites)
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db, err = executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb, err = db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	byIndex := map[string]bool{}
	prefix := &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText("word")}
	if err := tb.SelectIndexed(tb.Indexes[0], prefix, func(r executor.Row) bool {
		byIndex[r.Tuple[0].S] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for scan, got := range map[string]map[string]bool{"seq scan": visibleNames(t, tb, nil), "index scan": byIndex} {
		if len(got) != committed {
			t.Errorf("%s: %d rows after recovery, want the %d committed", scan, len(got), committed)
		}
		for i := 0; i < committed+uncommitted; i++ {
			name := batchTuple(i)[0].S
			if got[name] != (i < committed) {
				t.Errorf("%s: %s visible = %v, want %v", scan, name, got[name], i < committed)
				break
			}
		}
	}
}
