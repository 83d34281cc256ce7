package executor_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
)

// TestEvictionCrashKeepsCommittedOnly writes committed pages to the data
// files by eviction while a transaction's uncommitted rows sit dirty in a
// pool smaller than the table: a seq scan beside the open transaction
// cycles the heap through the pool. After a crash and a reopen, exactly
// the committed rows come back, through a seq scan and an index scan
// alike.
func TestEvictionCrashKeepsCommittedOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	tb := txnTable(t, db)
	const committed, uncommitted = 5000, 50
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
	dirtyWrites := func() (n int64) {
		db.Obs().Each(func(name string, v int64) {
			if name == "pool_dirty_writes_total" {
				n = v
			}
		})
		return n
	}
	before := dirtyWrites()
	if got := visibleNames(t, tb, nil); len(got) != committed {
		t.Fatalf("a scan beside the open transaction sees %d rows, want the %d committed", len(got), committed)
	}
	if after := dirtyWrites(); after == before {
		t.Fatalf("the scan beside the open transaction wrote no dirty page back (%d write-backs in all)", after)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db, err = executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16})
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
