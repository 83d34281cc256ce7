package executor

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/wal"
)

// sharedPoolFiles lists the relation files of tb: its heap and indexes.
func sharedPoolFiles(tb *Table) map[string]bool {
	files := map[string]bool{tb.File(): true}
	for _, ix := range tb.Indexes {
		files[ix.File()] = true
	}
	return files
}

// TestSharedPoolConcurrentCommits: two sessions write two tables at once
// through one pool — single-row and batched INSERT, DELETE — each table
// with its B+-tree / R-tree and SP-GiST indexes (node records). Every
// commit group in the log carries the records and images
// of one table only (or of the catalog alone, where an xid high-water
// mark is saved), and after a crash both tables recover to what their
// statements committed, every index agreeing with its heap.
func TestSharedPoolConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(Options{Dir: dir, WAL: true, PoolPages: 128})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	var tables [2]*Table
	for ti := range tables {
		tables[ti] = oracleCrashCreate(t, db, ti, false)
	}
	start := db.WAL().AppendedLSN()

	models := [2]map[int64]string{{}, {}}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for ti, tb := range tables {
		wg.Add(1)
		go func(ti int, tb *Table, model map[int64]string) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(40 + ti)))
			next := int64(ti) << 32
			fresh := func(n int) []catalog.Tuple {
				tups := make([]catalog.Tuple, n)
				for i := range tups {
					tups[i] = catalog.Tuple{oracleCrashTables[ti].datum(r), catalog.NewInt(next)}
					model[next] = tups[i][0].String()
					next++
				}
				return tups
			}
			for i := 0; i < 150; i++ {
				var err error
				switch {
				case i%5 == 4:
					_, err = tb.InsertBatch(fresh(4))
				case i%7 == 6:
					id := (int64(ti) << 32) + r.Int63n(next-int64(ti)<<32)
					delete(model, id)
					_, err = tb.DeleteWhere(&Pred{Column: 1, Op: "=", Arg: catalog.NewInt(id)})
				default:
					_, err = tb.Insert(fresh(1)[0])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(ti, tb, models[ti])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	owners := []map[string]bool{sharedPoolFiles(tables[0]), sharedPoolFiles(tables[1]), {catalogFile: true}}
	group := map[string]bool{}
	groups := 0
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
		if r.LSN <= start {
			return nil
		}
		if r.Type != wal.RecCommit {
			if r.File != "" {
				group[r.File] = true
			}
			return nil
		}
		owned := false
		for _, files := range owners {
			sub := true
			for f := range group {
				sub = sub && files[f]
			}
			owned = owned || sub
		}
		if !owned {
			t.Errorf("commit group at LSN %d mixes files %v", r.LSN, group)
		}
		groups++
		clear(group)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if groups < 250 {
		t.Fatalf("the log holds %d commit groups after the set-up, want about one per statement", groups)
	}

	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db = open()
	defer db.Close()
	r := rand.New(rand.NewSource(42))
	matched := map[string]int{}
	for ti, ot := range oracleCrashTables[:2] {
		tb, err := db.Table(ot.name)
		if err != nil {
			t.Fatal(err)
		}
		if rids, _ := oracleRows(t, tb); len(rids) != len(models[ti]) {
			t.Fatalf("%s holds %d rows after recovery, its statements committed %d", tb.Name, len(rids), len(models[ti]))
		}
		oracleCheckTable(t, r, tb, 10, matched)
	}
	oracleAllMatched(t, matched)
}

// TestSharedPoolDropThenCreate: DROP TABLE frees the dropped relations'
// frames for the next CREATE TABLE + INDEX without an eviction, and the new
// relations — whose files reuse the dropped files' page numbers — are
// served only their own pages, before a crash and after it.
func TestSharedPoolDropThenCreate(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(Options{Dir: dir, WAL: true, PoolPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	r := rand.New(rand.NewSource(43))
	load := func(tb *Table, n int) {
		t.Helper()
		for i := 0; i < n; i += 40 {
			tups := make([]catalog.Tuple, 40)
			for j := range tups {
				tups[j] = catalog.Tuple{oracleCrashTables[0].datum(r), catalog.NewInt(int64(i + j))}
			}
			if _, err := tb.InsertBatch(tups); err != nil {
				t.Fatal(err)
			}
		}
	}
	old := oracleCrashCreate(t, db, 0, false)
	load(old, 3000)
	if st := db.PoolStats(); st.Evictions == 0 {
		t.Fatalf("the first table left frames unused (%+v); the test needs every frame in use", st)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable(old.Name); err != nil {
		t.Fatal(err)
	}
	// The dropped relations' handles keep counting evictions of any frame
	// they left behind.
	dropped := []*storage.BufferPool{old.Heap.Pool()}
	for _, ix := range old.Indexes {
		dropped = append(dropped, ix.pool)
	}
	evictions := func() int64 {
		n := db.PoolStats().Evictions
		for _, bp := range dropped {
			n += bp.Stats().Evictions
		}
		return n
	}
	evicted := evictions()
	tb := oracleCrashCreate(t, db, 0, false)
	load(tb, 400)
	if e := evictions(); e != evicted {
		t.Errorf("the new table evicted %d frames with the dropped table's frames free", e-evicted)
	}
	matched := map[string]int{}
	check := func(db *DB) {
		t.Helper()
		tb, err := db.Table(tb.Name)
		if err != nil {
			t.Fatal(err)
		}
		if rids, _ := oracleRows(t, tb); len(rids) != 400 {
			t.Fatalf("the new table holds %d rows, want its own 400", len(rids))
		}
		oracleCheckTable(t, r, tb, 20, matched)
	}
	check(db)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db = open()
	defer db.Close()
	check(db)
	oracleAllMatched(t, matched)
}

// TestSharedPoolFrames: PoolPages is the database's budget — SHOW STATS
// reports the frames the pool holds, however many files share it.
func TestSharedPoolFrames(t *testing.T) {
	db, err := Open(Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for ti := range oracleCrashTables {
		ot := oracleCrashTables[ti]
		if _, err := db.CreateTable(ot.name, []Column{{"k", ot.typ}, {"id", catalog.Int}}); err != nil {
			t.Fatal(err)
		}
		ix := ot.indexes[0]
		if _, err := db.CreateIndex(ix[0], ot.name, "k", ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]int64{}
	db.Obs().Each(func(name string, v int64) { got[name] = v })
	if got["pool_frames"] != 64 || got["pool_open"] != 7 {
		t.Errorf("pool_frames %d, pool_open %d; want 64 frames for the catalog, 3 heaps and 3 indexes",
			got["pool_frames"], got["pool_open"])
	}
}

// TestStorageCountersNeverFall: the pool's and the disk's *_total counters
// keep what a relation counted when it leaves the pool — by DROP INDEX,
// DROP TABLE or a failed CREATE INDEX — so none of them ever falls, and
// SHOW STATS RESET zeroes them all the same.
func TestStorageCountersNeverFall(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), WAL: true, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	names := []string{"pool_accesses_total", "disk_reads_total", "disk_writes_total"}
	counters := func() map[string]int64 {
		got := map[string]int64{}
		db.Obs().Each(func(name string, v int64) { got[name] = v })
		return got
	}
	tb, err := db.CreateTable("t", []Column{{"k", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]catalog.Tuple, 2000)
	for i := range rows {
		rows[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("key%05d", i)), catalog.NewInt(int64(i))}
	}
	if _, err := tb.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("t_trie", "t", "k", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Select(&Pred{Column: 0, Op: "#=", Arg: catalog.NewText("key01")}, func(Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	prev := counters()
	for _, n := range names {
		if prev[n] == 0 {
			t.Fatalf("%s is 0 before the drops; the test would be vacuous", n)
		}
	}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"DROP INDEX", func() error { return db.DropIndex("t_trie") }},
		{"a failed CREATE INDEX", func() error {
			if _, err := tb.Heap.Insert([]byte{0xFF, 0xFF, 0xFF}); err != nil {
				return err
			}
			if _, err := db.CreateIndex("t_trie", "t", "k", "spgist", "spgist_trie"); err == nil {
				return fmt.Errorf("CREATE INDEX over an undecodable row succeeded")
			}
			return nil
		}},
		{"DROP TABLE", func() error { return db.DropTable("t") }},
	} {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		got := counters()
		for _, n := range names {
			if got[n] < prev[n] {
				t.Errorf("after %s: %s fell from %d to %d", step.name, n, prev[n], got[n])
			}
		}
		prev = got
	}
	db.Obs().Reset()
	got := counters()
	for _, n := range names {
		if got[n] != 0 {
			t.Errorf("%s is %d after a reset, want 0", n, got[n])
		}
	}
}
