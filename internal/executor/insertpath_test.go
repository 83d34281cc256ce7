package executor_test

import (
	"fmt"
	"maps"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/kdtree"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestFailedUpdateInTxnKeepsRows: an UPDATE inside a transaction whose
// successor the heap refuses (too large for a page) or an index refuses
// (a B+-tree key longer than a quarter page, after the heap took it)
// fails and leaves nothing behind, so the transaction and, after COMMIT
// and a crash, everyone else still see both rows as they were, and the
// B+-tree still finds the old row. A statement that fails inside a transaction applies
// its own undo entries. When UPDATE stamped each old version before it
// stored the successor, the heap's refusal left the row deleted and
// COMMIT made the deletion stick; the index's refusal left the row
// updated with no index entry for its successor.
func TestFailedUpdateInTxnKeepsRows(t *testing.T) {
	for _, tc := range []struct {
		refuser string
		size    int
		want    string // in the UPDATE's error
	}{
		{"heap", 9000, "exceeds page capacity"},
		{"index", 3000, "executor: index words_bt"},
	} {
		t.Run(tc.refuser, func(t *testing.T) {
			dir := t.TempDir()
			db, err := executor.Open(executor.Options{Dir: dir, WAL: true})
			if err != nil {
				t.Fatal(err)
			}
			tb := txnTable(t, db)
			if _, err := db.CreateIndex("words_bt", "words", "name", "btree", "btree_text"); err != nil {
				t.Fatal(err)
			}
			for i, w := range []string{"a", "b"} {
				if _, err := tb.Insert(catalog.Tuple{catalog.NewText(w), catalog.NewInt(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = tb.UpdateWhereTx(tx, &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText("a")},
				[]executor.ColUpdate{{Column: 0, Value: catalog.NewText(strings.Repeat("x", tc.size))}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("UPDATE to a %d-byte name: err %v, want %q", tc.size, err, tc.want)
			}
			want := map[string]bool{"a": true, "b": true}
			if got := visibleNames(t, tb, tx); !maps.Equal(got, want) {
				t.Fatalf("inside the transaction after the failed UPDATE: %d rows (a %v, b %v), want a and b", len(got), got["a"], got["b"])
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// The statement's undo is logged, so recovery keeps it too.
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			if db, err = executor.Open(executor.Options{Dir: dir, WAL: true}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if tb, err = db.Table("words"); err != nil {
				t.Fatal(err)
			}
			if got := visibleNames(t, tb, nil); !maps.Equal(got, want) {
				t.Fatalf("after COMMIT and a crash: %d rows (a %v, b %v), want a and b", len(got), got["a"], got["b"])
			}
			n := 0
			if err := tb.SelectIndexed(tb.Indexes[1], &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText("a")}, func(executor.Row) bool {
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Errorf("%s scan for a after COMMIT and a crash: %d rows, want 1", tb.Indexes[1].Name, n)
			}
		})
	}
}

// TestUpdateLogsSuccessorsInBatches: a 300-row UPDATE stores its
// successor versions as a multi-row INSERT stores its rows, one
// slot-batch-put per heap page a chunk fills and no heap slot-put; it
// logged one slot-put per successor while UPDATE inserted them one at a
// time.
func TestUpdateLogsSuccessorsInBatches(t *testing.T) {
	const rows = 300
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb := txnTable(t, db)
	tups := make([]catalog.Tuple, rows)
	for i := range tups {
		tups[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("word%04d", i)), catalog.NewInt(int64(i))}
	}
	if _, err := tb.InsertBatch(tups); err != nil {
		t.Fatal(err)
	}
	// The checkpoint leaves the UPDATE's records alone in the log.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n, err := tb.UpdateWhere(nil, []executor.ColUpdate{{Column: 1, Value: catalog.NewInt(-1)}})
	if err != nil || n != rows {
		t.Fatalf("UPDATE: %d rows, err %v; want %d", n, err, rows)
	}
	pages := map[storage.PageID]bool{} // the successors' heap pages
	if _, err := tb.Select(nil, func(r executor.Row) bool {
		pages[r.RID.Page] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	w := db.WAL()
	if err := w.Sync(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	byType := map[wal.RecordType]int{}
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
		if r.File == tb.File() && r.Page != 0 {
			byType[r.Type]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	puts, batchPuts, patches := byType[wal.RecSlotPut], byType[wal.RecSlotBatchPut], byType[wal.RecSlotPatch]
	t.Logf("heap data-page records: %d slot-batch-puts over %d pages, %d slot-puts, %d slot-patches",
		batchPuts, len(pages), puts, patches)
	// A page a chunk leaves room on takes the next chunk's first rows.
	// The table's files and the successors' bytes fill a few pages of the
	// 512 a chunk may dirty at the default 1 024 frames: one chunk.
	chunks := 1
	if puts != 0 || batchPuts < len(pages) || batchPuts > len(pages)+chunks-1 || patches != rows {
		t.Errorf("%d slot-puts, %d slot-batch-puts and %d slot-patches; want none, one per page a chunk fills (%d pages, %d chunks), and %d xmax stamps",
			puts, batchPuts, patches, len(pages), chunks, rows)
	}
}

// TestCreateIndexBuildsInBatches: CREATE INDEX inserts the heap's rows as
// INSERT does, a chunk per Index.Insert (chunkLen over the index file), so
// a kd-tree built over a loaded table comes out median first. The table is
// the end-to-end benchmark's points table (bench.ScanWarmPoints), loaded in
// 500-row INSERTs with no index; the index is then created and its shape
// measured over bench.TraceScanWarm's 1 024 queries. Its 15 000 keys fill
// a few dozen pages of the 512 a chunk may dirty at the default 1 024
// frames, so they go in as one batch: node height 16, page height 9, 122
// pages, 6.08 pages per kNN-10 and 6.02 per box. In batches of 4 096 rows
// (four times the pool's frames, the rule before) the tree had node height
// 22, page height 11, 134 pages, 9.30 pages per kNN-10 and 9.22 per box,
// the bounds below; built one row at a time, node height 33, page height
// 16, 135 pages, and 31.25 pages per kNN-10 and 29.81 per box.
func TestCreateIndexBuildsInBatches(t *testing.T) {
	const batch = 500
	db := executor.OpenMemory()
	defer db.Close()
	tb, err := db.CreateTable("pts", []executor.Column{{Name: "p", Type: catalog.Point}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	pts := bench.ScanWarmPoints()
	for i := 0; i < len(pts); i += batch {
		tups := make([]catalog.Tuple, batch)
		for j := range tups {
			tups[j] = catalog.Tuple{catalog.NewPoint(pts[i+j]), catalog.NewInt(int64(i + j))}
		}
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := db.CreateIndex("pts_kd", "pts", "p", "spgist", "spgist_kdtree")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Open(ix.Pool(), kdtree.New())
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := bench.TraceScanWarm(tr, ix.Pool())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("node height %d, page height %d, %d pages; %.2f pages per kNN-10, %.2f per box (%.1f rows)",
		st.MaxNodeHeight, st.MaxPageHeight, tr.NumPages(), sh.PagesPerKNN, sh.PagesPerBox, sh.RowsPerBox)
	if st.MaxNodeHeight > 22 || st.MaxPageHeight > 11 || sh.PagesPerKNN >= 9.305 || sh.PagesPerBox >= 9.225 || tr.NumPages() > 134 {
		t.Errorf("node height %d, page height %d, %.2f pages per kNN-10, %.2f per box, %d pages; want at most 22, 11, 9.30, 9.22 and 134",
			st.MaxNodeHeight, st.MaxPageHeight, sh.PagesPerKNN, sh.PagesPerBox, tr.NumPages())
	}
}
