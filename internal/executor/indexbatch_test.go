package executor

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/geom"
	"repro/internal/wal"
)

// The index batch's tests: a transaction's index keys wait in the table's
// index batch and go into the indexes at COMMIT, before a read of the
// transaction that may use an index, or once the batch outgrows a chunk.
// Each ends by holding every index to a Seq Scan (oracleCheckTable).

// indexBatchTables creates, in db, words (name VARCHAR, id INT) with a
// trie and a B+-tree on name, and pts (p POINT, id INT) with a kd-tree and
// an R-tree on p, and commits rows committed rows to each.
func indexBatchTables(t *testing.T, db *DB, rows int) (words, pts *Table) {
	t.Helper()
	words = oracleTable(t, db, "words", catalog.Text, [][3]string{{"w_trie", "spgist", "spgist_trie"}, {"w_btree", "btree", ""}})
	pts = oracleTable(t, db, "pts", catalog.Point, [][3]string{{"p_kd", "spgist", "spgist_kdtree"}, {"p_rtree", "rtree", ""}})
	if rows > 0 {
		if _, err := words.InsertBatch(indexBatchWords(0, rows)); err != nil {
			t.Fatal(err)
		}
		if _, err := pts.InsertBatch(indexBatchPoints(0, rows)); err != nil {
			t.Fatal(err)
		}
	}
	return words, pts
}

// oracleTable creates table name (k typ, id INT) with the given indexes
// on k.
func oracleTable(t *testing.T, db *DB, name string, typ catalog.Type, indexes [][3]string) *Table {
	t.Helper()
	tb, err := db.CreateTable(name, []Column{{"k", typ}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range indexes {
		if _, err := db.CreateIndex(ix[0], name, "k", ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// indexBatchWords returns rows lo..hi-1 of words: a letter, a..z in turn,
// and the row's number in six digits.
func indexBatchWords(lo, hi int) []catalog.Tuple {
	tups := make([]catalog.Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		tups = append(tups, catalog.Tuple{catalog.NewText(fmt.Sprintf("%c%06d", 'a'+i%26, i)), catalog.NewInt(int64(i))})
	}
	return tups
}

// indexBatchPoints returns rows lo..hi-1 of pts: row i at a point drawn
// from seed i in [0, 100)².
func indexBatchPoints(lo, hi int) []catalog.Tuple {
	tups := make([]catalog.Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		tups = append(tups, catalog.Tuple{catalog.NewPoint(geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}), catalog.NewInt(int64(i))})
	}
	return tups
}

// mergeByRead merges tb's index batch for tx, as a read of tx through an
// index does first.
func mergeByRead(t *testing.T, tb *Table, tx *Txn) {
	t.Helper()
	snap, err := tb.beginRead(tx, true)
	if err != nil {
		t.Fatal(err)
	}
	tb.endRead(snap)
}

// indexBatchCheck holds every table of db to want visible rows and every
// index to a Seq Scan.
func indexBatchCheck(t *testing.T, db *DB, want map[string]int) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	matched := map[string]int{}
	for _, tb := range db.Tables() {
		if rids, _ := oracleRows(t, tb); len(rids) != want[tb.Name] {
			t.Fatalf("%s holds %d rows, want %d", tb.Name, len(rids), want[tb.Name])
		}
		oracleCheckTable(t, r, tb, 8, matched)
	}
	oracleAllMatched(t, matched)
}

// TestIndexBatchReadsOfOwnTransaction: inside one transaction, rows just
// inserted are found by an exact match and a prefix on the trie, a box on
// the kd-tree and a kNN, each read through an index, and an UPDATE and a
// DELETE by key each find theirs; so the reads merged the batch first.
// After COMMIT every index answers as a Seq Scan does.
func TestIndexBatchReadsOfOwnTransaction(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	words, pts := indexBatchTables(t, db, 2000)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	newWords, newPts := indexBatchWords(2000, 2100), indexBatchPoints(2000, 2100)
	if _, err := words.InsertBatchTx(tx, newWords); err != nil {
		t.Fatal(err)
	}
	if _, err := pts.InsertBatchTx(tx, newPts); err != nil {
		t.Fatal(err)
	}
	if len(words.batch.rids) != 100 || len(pts.batch.rids) != 100 {
		t.Fatalf("index batches of %d and %d rows, want 100 each", len(words.batch.rids), len(pts.batch.rids))
	}
	read := func(tb *Table, pred *Pred) []Row {
		t.Helper()
		var rows []Row
		plan, err := tb.SelectTx(tx, pred, func(r Row) bool { rows = append(rows, r); return true })
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != IndexScan {
			t.Fatalf("%s %s %v: a %v plan, want an index scan", tb.Name, pred.Op, pred.Arg, plan.Kind)
		}
		return rows
	}
	if rows := read(words, &Pred{Column: 0, Op: "=", Arg: newWords[7][0]}); len(rows) != 1 || rows[0].Tuple[1].I != 2007 {
		t.Fatalf("exact match of an inserted word: %v", rows)
	}
	if len(words.batch.rids) != 0 {
		t.Fatalf("the read left %d rows in the index batch", len(words.batch.rids))
	}
	prefix := newWords[7][0].S[:5] // rows 2000..2099 of row 2007's letter
	if rows := read(words, &Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)}); len(rows) != 4 {
		t.Fatalf("prefix %s: %d rows, want the 4 inserted", prefix, len(rows))
	}
	p := newPts[3][0].P
	box := catalog.NewBox(geom.MakeBox(p.X-1e-9, p.Y-1e-9, p.X+1e-9, p.Y+1e-9))
	if rows := read(pts, &Pred{Column: 0, Op: "^", Arg: box}); len(rows) != 1 || rows[0].Tuple[1].I != 2003 {
		t.Fatalf("box around an inserted point: %v", rows)
	}
	// A point inserted after the box read waits in the batch again.
	q := indexBatchPoints(2100, 2101)
	if _, err := pts.InsertBatchTx(tx, q); err != nil {
		t.Fatal(err)
	}
	nn, plan, err := pts.SelectNNTx(tx, "k", q[0][0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != IndexNNScan || len(nn) != 1 || nn[0].Distance != 0 || nn[0].Tuple[1].I != 2100 {
		t.Fatalf("kNN of an inserted point: %v plan, %v", plan.Kind, nn)
	}
	if n, plan, err := words.UpdateWhereTx(tx, &Pred{Column: 0, Op: "=", Arg: newWords[11][0]}, []ColUpdate{{Column: 1, Value: catalog.NewInt(-1)}}); err != nil || n != 1 || plan.Kind != IndexScan {
		t.Fatalf("UPDATE of an inserted row by key: %d rows, %v, err %v", n, plan, err)
	}
	if n, plan, err := words.DeleteWhereTx(tx, &Pred{Column: 0, Op: "=", Arg: newWords[12][0]}); err != nil || n != 1 || plan.Kind != IndexScan {
		t.Fatalf("DELETE of an inserted row by key: %d rows, %v, err %v", n, plan, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	indexBatchCheck(t, db, map[string]int{"words": 2099, "pts": 2101})
}

// indexRecords counts the records the log in dir holds for each of db's
// index files, once what was appended is on disk.
func indexRecords(t *testing.T, db *DB, dir string) map[string]int {
	t.Helper()
	if err := db.WAL().Commit(); err != nil {
		t.Fatal(err)
	}
	files := map[string]int{}
	for _, tb := range db.Tables() {
		for _, ix := range tb.Indexes {
			files[ix.File()] = 0
		}
	}
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
		if _, ok := files[r.File]; ok {
			files[r.File]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return files
}

// TestIndexBatchRollbackLogsNoIndexRecord: a transaction that inserts
// rows, deletes some by a column no index covers, and rolls back appends
// records of its heap pages only: its keys never left the index batch, so
// no index page changed.
func TestIndexBatchRollbackLogsNoIndexRecord(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	words, pts := indexBatchTables(t, db, 500)
	before := indexRecords(t, db, dir)
	appended := db.WAL().Stats().AppendedBytes
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{words, pts} {
		tups := indexBatchWords(500, 800)
		if tb == pts {
			tups = indexBatchPoints(500, 800)
		}
		if _, err := tb.InsertBatchTx(tx, tups); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tb.DeleteWhereTx(tx, &Pred{Column: 1, Op: "<", Arg: catalog.NewInt(600)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.WAL().Stats().AppendedBytes == appended {
		t.Fatal("the transaction appended nothing; its heap records are missing")
	}
	if after := indexRecords(t, db, dir); !maps.Equal(after, before) {
		t.Fatalf("records per index file %v before the transaction, %v after its ROLLBACK", before, after)
	}
	indexBatchCheck(t, db, map[string]int{"words": 500, "pts": 500})
}

// TestIndexBatchFailedStatementKeepsEarlier: inside a transaction, a
// statement fails and takes its own rows out of the index batch; the rows
// of the statements before it go into the indexes at COMMIT, with those of
// the statement after it, once each. The failed statement is an INSERT
// with a key the B+-tree refuses, whose earlier rows stay in the batch, or
// an UPDATE by key whose successor the B+-tree or the heap refuses, whose
// scan merged the earlier rows first: they leave the batch, so COMMIT
// neither fails on the refused key nor inserts them a second time.
func TestIndexBatchFailedStatementKeepsEarlier(t *testing.T) {
	for _, c := range []struct {
		name, refusal string
		size, batched int // the refused word's bytes; rows left in the batch
		update        bool
	}{
		{"insert", "executor: index w_btree", 3000, 100, false},
		{"update_index", "executor: index w_btree", 3000, 0, true},
		{"update_heap", "heap:", 9000, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := OpenMemory()
			defer db.Close()
			words, _ := indexBatchTables(t, db, 500)
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			ins := indexBatchWords(500, 600)
			if _, err := words.InsertBatchTx(tx, ins); err != nil {
				t.Fatal(err)
			}
			big := catalog.NewText(strings.Repeat("x", c.size))
			if c.update {
				_, _, err = words.UpdateWhereTx(tx, &Pred{Column: 0, Op: "=", Arg: ins[7][0]}, []ColUpdate{{Column: 0, Value: big}})
			} else {
				bad := indexBatchWords(600, 610)
				bad[5][0] = big
				_, err = words.InsertBatchTx(tx, bad)
			}
			if err == nil || !strings.Contains(err.Error(), c.refusal) {
				t.Fatalf("a %d-byte word: err %v, want %q", c.size, err, c.refusal)
			}
			if n := len(words.batch.rids); n != c.batched {
				t.Fatalf("the failed statement left %d rows in the index batch, want %d", n, c.batched)
			}
			if _, err := words.InsertBatchTx(tx, indexBatchWords(610, 660)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			indexBatchCheck(t, db, map[string]int{"words": 650, "pts": 500})
		})
	}
}

// TestIndexBatchCrashBeforeCommit: a transaction's rows, some merged into
// the indexes by a read through them and the rest still in the batch, are
// lost with a crash before COMMIT; after Open every index answers for the
// committed rows alone.
func TestIndexBatchCrashBeforeCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	words, pts := indexBatchTables(t, db, 500)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := words.InsertBatchTx(tx, indexBatchWords(500, 800)); err != nil {
		t.Fatal(err)
	}
	if _, err := pts.InsertBatchTx(tx, indexBatchPoints(500, 800)); err != nil {
		t.Fatal(err)
	}
	if _, err := words.SelectTx(tx, &Pred{Column: 0, Op: "#=", Arg: catalog.NewText("a0006")}, func(Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if len(words.batch.rids) != 0 || len(pts.batch.rids) != 300 {
		t.Fatalf("index batches of %d and %d rows, want words' merged by the read", len(words.batch.rids), len(pts.batch.rids))
	}
	if _, err := words.InsertBatchTx(tx, indexBatchWords(800, 900)); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(Options{Dir: dir, WAL: true}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	indexBatchCheck(t, db, map[string]int{"words": 500, "pts": 500})
}

// TestIndexBatchCrashBetweenMergeChunks: through a 64-frame pool, a merge
// of an index batch larger than half of it takes several chunks, and a
// crash after the first leaves the indexes holding entries of rows that
// never committed. After Open every index answers for the committed rows
// alone. The merge is an autocommit INSERT's COMMIT, or the end of a
// statement inside BEGIN that left more keys than one chunk takes.
func TestIndexBatchCrashBetweenMergeChunks(t *testing.T) {
	for _, inTxn := range []bool{false, true} {
		t.Run(fmt.Sprintf("txn=%v", inTxn), func(t *testing.T) {
			dir := t.TempDir()
			errCrash := errors.New("injected crash between merge chunks")
			armed := false
			opts := Options{Dir: dir, WAL: true, PoolPages: 64, Faults: FaultInjection{
				BetweenDMLChunks: func(stmt string, chunksDone int) error {
					if armed && strings.HasPrefix(stmt, "MERGE words") {
						return errCrash
					}
					return nil
				}}}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			words, _ := indexBatchTables(t, db, 500)
			var tx *Txn
			if inTxn {
				if tx, err = db.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			armed = true
			if _, err := words.InsertBatchTx(tx, indexBatchWords(500, 4500)); !errors.Is(err, errCrash) {
				t.Fatalf("INSERT of 4 000 rows: err %v, want the crash between merge chunks", err)
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			opts.Faults = FaultInjection{}
			if db, err = Open(opts); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			indexBatchCheck(t, db, map[string]int{"words": 500, "pts": 500})
		})
	}
}
