package executor

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The one rule for meta pages: a pointer in a meta page is saved where it
// moves, the heap's counters at the commit point (an index keeps none).
// These tests crash on both sides of it.

// rootPointer returns the bytes of an index's meta page that say where its
// root is (SP-GiST: page and slot; B+-tree and R-tree: page and the height
// that grows with it), as the pool holds them right now.
func rootPointer(t *testing.T, ix *IndexInfo) []byte {
	t.Helper()
	p := mustFetch(t, ix.pool, 0)
	defer ix.pool.Unpin(p, false)
	_, _, body := storage.ParseMeta(p.Data)
	return append([]byte(nil), body[:6]...)
}

// TestRootMoveInOpenTransactionSurvivesCrash: statements inside BEGIN move
// the root of an SP-GiST trie (its root node outgrows a full page and is
// relocated), of a B+-tree and of an R-tree (root splits), each merging
// its index batch as a read would; the database crashes before COMMIT or
// ROLLBACK. The statements' index records are in
// the log, so the meta page that says where the root now is must be too:
// after recovery every index still answers like a sequential scan — the
// committed rows, none of the transaction's.
func TestRootMoveInOpenTransactionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(Options{Dir: dir, WAL: true})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	r := rand.New(rand.NewSource(21))
	id := int64(0)
	// A word is a first letter and digits: the trie's root gains a
	// partition only when a new first letter arrives.
	word := func(letters string) catalog.Tuple {
		id++
		return catalog.Tuple{catalog.NewText(fmt.Sprintf("%c%06d", letters[r.Intn(len(letters))], r.Intn(1000000))), catalog.NewInt(id)}
	}
	point := func(string) catalog.Tuple {
		id++
		return catalog.Tuple{catalog.NewPoint(geom.Point{X: float64(r.Intn(100000)) / 1000, Y: float64(r.Intn(100000)) / 1000}), catalog.NewInt(id)}
	}
	type fixture struct {
		tb    *Table
		fresh func(letters string) catalog.Tuple
	}
	var fixtures []fixture
	for _, def := range []struct {
		name    string
		typ     catalog.Type
		fresh   func(string) catalog.Tuple
		indexes [][3]string
	}{
		{"words", catalog.Text, word, [][3]string{{"w_trie", "spgist", "spgist_trie"}, {"w_btree", "btree", ""}}},
		{"pts", catalog.Point, point, [][3]string{{"p_rtree", "rtree", ""}}},
	} {
		tb, err := db.CreateTable(def.name, []Column{{"k", def.typ}, {"id", catalog.Int}})
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range def.indexes {
			if _, err := db.CreateIndex(ix[0], def.name, "k", ix[1], ix[2]); err != nil {
				t.Fatal(err)
			}
		}
		base := make([]catalog.Tuple, 120)
		for i := range base {
			base[i] = def.fresh("ayz") // both ends of the alphabet, for the oracle's range predicates
		}
		if _, err := tb.InsertBatch(base); err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{tb, def.fresh})
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		before := map[string][]byte{}
		for _, ix := range f.tb.Indexes {
			before[ix.Name] = rootPointer(t, ix)
		}
		moved := func() bool {
			for _, ix := range f.tb.Indexes {
				if bytes.Equal(before[ix.Name], rootPointer(t, ix)) {
					return false
				}
			}
			return true
		}
		// First fill the root's page with children of the partitions it
		// has, then bring the letters that make the root node grow.
		for round := 0; !moved(); round++ {
			if round == 400 {
				t.Fatalf("%s: after %d statements some index root has not moved", f.tb.Name, round)
			}
			letters := "ayz"
			if round >= 40 {
				letters = "bcdefghijklmnopqrstuvwx"
			}
			tups := make([]catalog.Tuple, 50)
			for i := range tups {
				tups[i] = f.fresh(letters)
			}
			if _, err := f.tb.InsertBatchTx(tx, tups); err != nil {
				t.Fatal(err)
			}
			// Merge the index batch, as a read through an index would.
			mergeByRead(t, f.tb, tx)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	matched := map[string]int{}
	for _, name := range []string{"words", "pts"} {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := tb.RowCount(); n != 120 {
			t.Fatalf("%s: %d rows visible after the crash, want the 120 committed ones", name, n)
		}
		oracleCheckTable(t, r, tb, 40, matched)
	}
	oracleAllMatched(t, matched)
}

// TestHeapCountersAcrossCrash: the heap's record count and last-page hint
// are saved at the commit point, not by every insert. After COMMIT and a
// crash they are what they were; after a crash inside a transaction, whose
// tuples recovery replays and marks aborted, they are taken from the pages
// — the count covers the aborted versions until VACUUM removes them, and
// the next insert goes to the last page instead of growing the file.
func TestHeapCountersAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	open := func() (*DB, *Table) {
		db, err := Open(Options{Dir: dir, WAL: true})
		if err != nil {
			t.Fatal(err)
		}
		tb, _ := db.Table("t")
		return db, tb
	}
	rows := func(from, n int) []catalog.Tuple {
		tups := make([]catalog.Tuple, n)
		for i := range tups {
			tups[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("row %06d of a table with a few heap pages", from+i)), catalog.NewInt(int64(from + i))}
		}
		return tups
	}
	db, _ := open()
	tb, err := db.CreateTable("t", []Column{{"k", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ { // single-row statements: no meta page between them
		if _, err := tb.InsertTx(tx, rows(i, 1)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	pages := tb.Heap.NumPages()
	if pages < 4 {
		t.Fatalf("fixture: %d heap pages, want several", pages)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db, tb = open()
	if got := tb.Heap.Count(); got != 400 {
		t.Fatalf("after COMMIT and crash the heap counts %d records, want 400", got)
	}
	if _, err := tb.Insert(rows(400, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if got := tb.Heap.NumPages(); got != pages {
		t.Fatalf("after COMMIT and crash an insert grew the heap from %d to %d pages: the last-page hint was lost", pages, got)
	}
	// A transaction that spills onto new pages, and never ends.
	if tx, err = db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tb.InsertTx(tx, rows(1000+i, 1)[0]); err != nil {
			t.Fatal(err)
		}
	}
	pages = tb.Heap.NumPages()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db, tb = open()
	defer db.Close()
	if got, visible := tb.Heap.Count(), tb.RowCount(); got != 701 || visible != 401 {
		t.Fatalf("after a crash inside the transaction: %d records counted, %d rows visible, want 701 and 401", got, visible)
	}
	if _, err := tb.Insert(rows(401, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if got := tb.Heap.NumPages(); got != pages {
		t.Fatalf("after the crash an insert grew the heap from %d to %d pages", pages, got)
	}
	if n, err := db.Vacuum("t"); err != nil || n != 300 {
		t.Fatalf("VACUUM reclaimed %d versions (%v), want the transaction's 300", n, err)
	}
	if got, visible := tb.Heap.Count(), tb.RowCount(); got != 402 || visible != 402 {
		t.Fatalf("after VACUUM: %d records counted, %d rows visible, want 402 and 402", got, visible)
	}
}

// TestCommitLeavesIndexMetaPagesAlone: an index keeps no entry count, so
// its meta page holds only where its root is, and a commit point saves
// the heap's meta page alone. On two loaded tables — a trie and a B+-tree
// over words, a kd-tree and an R-tree over points — 100 autocommit
// single-row INSERTs, one explicit transaction's COMMIT and one VACUUM,
// none of which moves a root, log no record of page 0 of an index file,
// and no index pool fetches it. The heaps' meta pages are logged, once per
// commit that changed their counters.
func TestCommitLeavesIndexMetaPagesAlone(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WAL: true, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const loaded, inserted = 3000, 50
	words := datagen.Words(loaded+inserted+10, 51)
	pts := datagen.Points(loaded+inserted+10, 52, oracleWorld)
	tables := []struct {
		name    string
		typ     catalog.Type
		key     func(i int) catalog.Datum
		indexes [][3]string
	}{
		{"words", catalog.Text, func(i int) catalog.Datum { return catalog.NewText(words[i]) },
			[][3]string{{"w_trie", "spgist", "spgist_trie"}, {"w_btree", "btree", ""}}},
		{"pts", catalog.Point, func(i int) catalog.Datum { return catalog.NewPoint(pts[i]) },
			[][3]string{{"p_kd", "spgist", "spgist_kdtree"}, {"p_rtree", "rtree", ""}}},
	}
	row := func(def int, i int) catalog.Tuple {
		return catalog.Tuple{tables[def].key(i), catalog.NewInt(int64(i))}
	}
	var tbs []*Table
	for d, def := range tables {
		tb, err := db.CreateTable(def.name, []Column{{"k", def.typ}, {"id", catalog.Int}})
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range def.indexes {
			if _, err := db.CreateIndex(ix[0], def.name, "k", ix[1], ix[2]); err != nil {
				t.Fatal(err)
			}
		}
		tups := make([]catalog.Tuple, loaded)
		for i := range tups {
			tups[i] = row(d, i)
		}
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatal(err)
		}
		tbs = append(tbs, tb)
	}

	w := db.WAL()
	start := w.AppendedLSN()
	for _, tb := range tbs {
		for _, ix := range tb.Indexes {
			ix.pool.StartPageTrace()
		}
	}
	for i := loaded; i < loaded+inserted; i++ {
		for d, tb := range tbs {
			if _, err := tb.Insert(row(d, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for d, tb := range tbs {
		for i := loaded + inserted; i < loaded+inserted+10; i++ {
			if _, err := tb.InsertTx(tx, row(d, i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := tb.DeleteWhereTx(tx, &Pred{Column: 1, Op: "<", Arg: catalog.NewInt(100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, def := range tables {
		if n, err := db.Vacuum(def.name); err != nil || n != 100 {
			t.Fatalf("VACUUM %s reclaimed %d versions (%v), want 100", def.name, n, err)
		}
	}

	for _, tb := range tbs {
		for _, ix := range tb.Indexes {
			pages := ix.pool.PageTracePages()
			if len(pages) == 0 {
				t.Errorf("index %s: no page fetched", ix.Name)
			} else if pages[0] == 0 {
				t.Errorf("index %s: page 0 fetched", ix.Name)
			}
		}
	}
	if err := w.Sync(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	indexFiles := map[string]string{}
	for _, tb := range tbs {
		for _, ix := range tb.Indexes {
			indexFiles[ix.File()] = ix.Name
		}
	}
	heapMeta := 0
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
		switch {
		case r.LSN <= start || r.Page != 0 || r.File == "":
		case indexFiles[r.File] != "":
			t.Errorf("LSN %d: %s record of page 0 of index %s", r.LSN, r.Type, indexFiles[r.File])
		case r.File == tbs[0].Heap.Pool().FileName() || r.File == tbs[1].Heap.Pool().FileName():
			heapMeta++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Each autocommit INSERT moves its heap's count, as do the COMMIT and
	// each VACUUM.
	if want := 2*inserted + 2 + 2; heapMeta != want {
		t.Errorf("%d records of a heap's page 0, want %d", heapMeta, want)
	}
}
