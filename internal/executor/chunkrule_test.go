package executor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// The chunk rule's tests: every multi-step statement appends its records
// before the pages it may dirty can fill half the pool (chunkLen). Each
// runs on a table (name VARCHAR, id INT) in a logged database, and after
// each every index must return what a Seq Scan returns, live and after a
// crash and Open. Under the rules that sized chunks by row counts, each
// of them failed.

// chunkRuleOpen opens the logged database in dir with the given frames.
func chunkRuleOpen(t *testing.T, dir string, frames int) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, PoolPages: frames})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// chunkRuleTable creates table name (name VARCHAR, id INT) with an index
// on name of every operator class in classes.
func chunkRuleTable(t *testing.T, db *DB, name string, classes ...string) *Table {
	t.Helper()
	tb, err := db.CreateTable(name, []Column{{"name", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range classes {
		method, _, _ := strings.Cut(oc, "_")
		if _, err := db.CreateIndex(name+"_"+oc, name, "name", method, oc); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// wideRows returns rows lo..hi-1 of names width bytes wide: the row's
// number in five digits, then one letter repeated.
func wideRows(lo, hi, width int) []catalog.Tuple {
	tups := make([]catalog.Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		name := fmt.Sprintf("%05d", i) + strings.Repeat(string(rune('a'+i%26)), width-5)
		tups = append(tups, catalog.Tuple{catalog.NewText(name), catalog.NewInt(int64(i))})
	}
	return tups
}

// chunkRuleCheck holds every table of db to its rows: want visible rows,
// and every index agreeing with a Seq Scan — live, and again after a
// crash and Open with the same frames. It returns the reopened database.
func chunkRuleCheck(t *testing.T, db *DB, dir string, frames int, want map[string]int) *DB {
	t.Helper()
	r := rand.New(rand.NewSource(int64(frames)))
	for pass := range 2 {
		if pass == 1 {
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			db = chunkRuleOpen(t, dir, frames)
		}
		for _, tb := range db.Tables() {
			if rids, _ := oracleRows(t, tb); len(rids) != want[tb.Name] {
				t.Fatalf("pass %d: %s holds %d rows, want %d", pass, tb.Name, len(rids), want[tb.Name])
			}
			oracleCheckTable(t, r, tb, 4, map[string]int{})
		}
	}
	return db
}

// TestChunkRuleWideRows (a): an INSERT of 1 KB names into a trie-indexed
// table. At 4 × pool rows a chunk, a 6 000-row statement at the default
// 1 024 frames, and 400 rows at 16, 32 and 64 frames, dirtied more pages
// than the pool holds and was refused ("buffer pool exhausted").
func TestChunkRuleWideRows(t *testing.T) {
	for _, c := range []struct{ frames, rows int }{{16, 400}, {32, 400}, {64, 400}, {1024, 6000}} {
		t.Run(fmt.Sprintf("frames=%d", c.frames), func(t *testing.T) {
			dir := t.TempDir()
			db := chunkRuleOpen(t, dir, c.frames)
			tb := chunkRuleTable(t, db, "w", "spgist_trie")
			if _, err := tb.InsertBatch(wideRows(0, c.rows, 1024)); err != nil {
				t.Fatalf("INSERT of %d 1 KB rows: %v", c.rows, err)
			}
			db = chunkRuleCheck(t, db, dir, c.frames, map[string]int{"w": c.rows})
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChunkRuleNarrowRows (b): dictionary words, loaded in 1 000-row
// INSERTs through 64 frames into a table with a trie and a B+-tree. At
// 4 × pool rows a chunk, the load was refused at 10 000 rows, once the
// indexes held 32 + 34 pages: 256 rows descend to more leaves than the
// pool holds. The chunks the rule takes now are a few rows each.
func TestChunkRuleNarrowRows(t *testing.T) {
	const frames, stmt = 64, 1000
	dir := t.TempDir()
	db := chunkRuleOpen(t, dir, frames)
	tb := chunkRuleTable(t, db, "words", "spgist_trie", "btree_text")
	words := datagen.Words(20000, 7)
	start := time.Now()
	for lo := 0; lo < len(words); lo += stmt {
		tups := make([]catalog.Tuple, 0, stmt)
		for i := lo; i < lo+stmt; i++ {
			tups = append(tups, catalog.Tuple{catalog.NewText(words[i]), catalog.NewInt(int64(i))})
		}
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatalf("INSERT of rows %d..%d: %v", lo, lo+stmt-1, err)
		}
	}
	t.Logf("%d rows in %d-row statements through %d frames: %v", len(words), stmt, frames, time.Since(start))
	db = chunkRuleCheck(t, db, dir, frames, map[string]int{"words": len(words)})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkRuleRefusedInsertLeavesIndexSound (c): the statement of (a) at
// 64 frames. When the pool refused it halfway through a trie insert, the
// trie was left half restructured: a prefix query read "spgist: dangling
// node reference", and still did after a crash and Open. Whatever the
// statement's outcome, the trie must answer as a Seq Scan does.
func TestChunkRuleRefusedInsertLeavesIndexSound(t *testing.T) {
	const frames, rows = 64, 400
	dir := t.TempDir()
	db := chunkRuleOpen(t, dir, frames)
	tb := chunkRuleTable(t, db, "w", "spgist_trie")
	want := rows
	if _, err := tb.InsertBatch(wideRows(0, rows, 1024)); err != nil {
		t.Errorf("INSERT of %d 1 KB rows: %v", rows, err)
		want = 0
	}
	prefix := func(db *DB) {
		t.Helper()
		tb, err := db.Table("w")
		if err != nil {
			t.Fatal(err)
		}
		pred := &Pred{Column: 0, Op: "#=", Arg: catalog.NewText("00")}
		n := 0
		if err := tb.SelectIndexed(tb.Indexes[0], pred, func(Row) bool { n++; return true }); err != nil {
			t.Fatalf("#= '00' through the trie: %v", err)
		}
		if n != want {
			t.Fatalf("#= '00' through the trie: %d rows, want %d", n, want)
		}
	}
	prefix(db)
	db = chunkRuleCheck(t, db, dir, frames, map[string]int{"w": want})
	prefix(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkRuleRollbackWideRows (d): 300 rows of 3 KB names fill 151 heap
// pages of a 16-frame pool's table; a transaction deletes them all and
// rolls back. At 256 undo operations a chunk, the ROLLBACK dirtied 128
// pages before its first append and was refused ("buffer pool
// exhausted"), and the stamps it had not cleared stayed: 64 rows were
// left visible, also after Close and Open and after a crash and Open.
func TestChunkRuleRollbackWideRows(t *testing.T) {
	const frames, rows, stmt = 16, 300, 4
	dir := t.TempDir()
	db := chunkRuleOpen(t, dir, frames)
	tb := chunkRuleTable(t, db, "w", "spgist_trie")
	for lo := 0; lo < rows; lo += stmt {
		if _, err := tb.InsertBatch(wideRows(lo, lo+stmt, 3072)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := tb.DeleteWhereTx(tx, nil); err != nil || n != rows {
		t.Fatalf("DELETE: %d rows, err %v; want %d", n, err, rows)
	}
	if err := tx.Rollback(); err != nil {
		t.Errorf("ROLLBACK: %v", err)
	}
	if rids, _ := oracleRows(t, tb); len(rids) != rows {
		t.Errorf("%d rows visible after ROLLBACK, want %d", len(rids), rows)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = chunkRuleCheck(t, chunkRuleOpen(t, dir, frames), dir, frames, map[string]int{"w": rows})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkRuleSegmentsChunkByCells: a PMR quadtree stores a segment in
// every cell it crosses, so its keys make as many entries as its file
// holds a key, not one each and not the whole file each. On a segments
// table whose PMR file is larger than half a 64-frame pool, a multi-row
// INSERT and a VACUUM each take several rows a chunk, and the index then
// answers as a Seq Scan does, live and after a crash and Open.
func TestChunkRuleSegmentsChunkByCells(t *testing.T) {
	const frames, loaded, inserted, stmt = 64, 3000, 300, 500
	dir := t.TempDir()
	chunks := 0 // intermediate appends of the statement being counted
	faults := FaultInjection{BetweenDMLChunks: func(string, int) error { chunks++; return nil }}
	db, err := Open(Options{Dir: dir, PoolPages: frames, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("segs", []Column{{"seg", catalog.Segment}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("segs_pmr", "segs", "seg", "spgist", "spgist_pmr"); err != nil {
		t.Fatal(err)
	}
	segs := datagen.Segments(loaded+inserted, 41, oracleWorld, 5)
	rows := func(lo, hi int) []catalog.Tuple {
		tups := make([]catalog.Tuple, 0, hi-lo)
		for i := lo; i < hi; i++ {
			tups = append(tups, catalog.Tuple{catalog.NewSegment(segs[i]), catalog.NewInt(int64(i))})
		}
		return tups
	}
	for lo := 0; lo < loaded; lo += stmt {
		if _, err := tb.InsertBatch(rows(lo, lo+stmt)); err != nil {
			t.Fatalf("INSERT of rows %d..%d: %v", lo, lo+stmt-1, err)
		}
	}
	if pages := int(tb.Indexes[0].pool.DM().NumPages()); pages <= frames/2 {
		t.Fatalf("the PMR file has %d pages, not more than half of %d frames", pages, frames)
	}
	chunks = 0
	if _, err := tb.InsertBatch(rows(loaded, loaded+inserted)); err != nil {
		t.Fatalf("INSERT of %d rows: %v", inserted, err)
	}
	t.Logf("INSERT of %d rows: %d chunks", inserted, chunks+1)
	if chunks+1 >= inserted {
		t.Errorf("INSERT of %d rows took %d chunks: one row a chunk", inserted, chunks+1)
	}
	dead, err := tb.DeleteWhere(&Pred{Column: 1, Op: "<", Arg: catalog.NewInt(loaded / 3)})
	if err != nil {
		t.Fatal(err)
	}
	before := db.WAL().Stats().GroupCommits
	if n, err := db.Vacuum("segs"); err != nil || n != dead {
		t.Fatalf("VACUUM: %d versions, err %v; want %d", n, err, dead)
	}
	commits := int(db.WAL().Stats().GroupCommits - before)
	t.Logf("VACUUM of %d versions: %d group commits", dead, commits)
	if commits >= dead {
		t.Errorf("VACUUM of %d versions made %d group commits: one version a chunk", dead, commits)
	}
	db = chunkRuleCheck(t, db, dir, frames, map[string]int{"segs": loaded + inserted - dead})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
