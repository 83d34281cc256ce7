package executor

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/heap"
	"repro/internal/storage"
)

// reuseTable creates table "words" (k VARCHAR, id INT) with a trie on k
// and loads rows 0..n-1 in one multi-row INSERT.
func reuseTable(t *testing.T, db *DB, words []string, n int) *Table {
	t.Helper()
	tb, err := db.CreateTable("words", []Column{{"k", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("w_trie", "words", "k", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertBatch(reuseRows(words, 0, n)); err != nil {
		t.Fatal(err)
	}
	return tb
}

// reuseRows are rows from..to-1: row i keys the i-th word (cycling).
func reuseRows(words []string, from, to int) []catalog.Tuple {
	tups := make([]catalog.Tuple, 0, to-from)
	for i := from; i < to; i++ {
		tups = append(tups, catalog.Tuple{catalog.NewText(words[i%len(words)]), catalog.NewInt(int64(i))})
	}
	return tups
}

func reuseIDPred(op string, id int) *Pred {
	return &Pred{Column: 1, Op: op, Arg: catalog.NewInt(int64(id))}
}

// reuseChurn runs one cycle of the churn a long-running workload applies:
// DELETE the rows of ids [*oldest, *oldest+n), INSERT n new ones in one
// multi-row statement (the heap's batch path), UPDATE the key of every
// 200th surviving row, one statement each (the single-row path), VACUUM.
func reuseChurn(t *testing.T, db *DB, tb *Table, words []string, oldest, next *int, n int) {
	t.Helper()
	if got, err := tb.DeleteWhere(reuseIDPred("<", *oldest+n)); err != nil || got != n {
		t.Fatalf("DELETE id < %d: %d rows, %v", *oldest+n, got, err)
	}
	*oldest += n
	if _, err := tb.InsertBatch(reuseRows(words, *next, *next+n)); err != nil {
		t.Fatal(err)
	}
	*next += n
	for id := *oldest; id < *next; id += 200 {
		set := []ColUpdate{{Column: 0, Value: catalog.NewText(words[(id*7+3)%len(words)])}}
		if got, err := tb.UpdateWhere(reuseIDPred("=", id), set); err != nil || got != 1 {
			t.Fatalf("UPDATE id = %d: %d rows, %v", id, got, err)
		}
	}
	if _, err := db.Vacuum(tb.Name); err != nil {
		t.Fatal(err)
	}
}

// TestHeapReusesVacuumedSpace: under balanced churn — as many rows
// inserted as deleted, plus updates — the heap refills the space VACUUM
// frees instead of growing with every cycle, and the trie still returns
// exactly what a sequential scan does.
func TestHeapReusesVacuumedSpace(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	words := datagen.Words(8000, 31)
	const rows, churn, cycles = 6000, 300, 12
	tb := reuseTable(t, db, words, rows)
	loaded := tb.Heap.NumPages()
	oldest, next := 0, rows
	for c := 0; c < cycles; c++ {
		reuseChurn(t, db, tb, words, &oldest, &next, churn)
		if pages := tb.Heap.NumPages(); pages*10 > loaded*11 {
			t.Fatalf("cycle %d: the heap has %d pages, %d after the load: freed space is not reused", c+1, pages, loaded)
		}
	}
	if got := tb.RowCountShared(); got != rows {
		t.Fatalf("%d rows after the churn, want %d", got, rows)
	}
	matched := map[string]int{}
	oracleCheckTable(t, rand.New(rand.NewSource(31)), tb, 40, matched)
	oracleAllMatched(t, matched)
}

// TestReusedHeapSlotsAcrossCrash: rows a transaction places in space
// VACUUM freed on pages before the heap's last are redone like any
// others. Crashed before COMMIT they are invisible after recovery;
// crashed after, they are all there. Either way the trie agrees with a
// sequential scan.
func TestReusedHeapSlotsAcrossCrash(t *testing.T) {
	for _, commit := range []bool{false, true} {
		t.Run(fmt.Sprintf("committed=%v", commit), func(t *testing.T) {
			dir := t.TempDir()
			open := func() *DB {
				db, err := Open(Options{Dir: dir, WAL: true, PoolPages: 64})
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			words := datagen.Words(3000, 32)
			const rows = 2000
			tb := reuseTable(t, db, words, rows)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Free a stretch of rows in the middle of the heap.
			if n, err := tb.DeleteWhere(&Pred{Column: 1, Op: "<", Arg: catalog.NewInt(1400)}); err != nil || n != 1400 {
				t.Fatalf("DELETE: %d rows, %v", n, err)
			}
			if n, err := db.Vacuum("words"); err != nil || n != 1400 {
				t.Fatalf("VACUUM: %d versions, %v", n, err)
			}
			tail := storage.PageID(tb.Heap.NumPages() - 1)
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			rids, err := tb.InsertBatchTx(tx, reuseRows(words, rows, rows+300))
			if err != nil {
				t.Fatal(err)
			}
			rid, err := tb.InsertTx(tx, reuseRows(words, rows+300, rows+301)[0])
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
			// The target page, the last, takes what fits; the rest go to
			// freed space, and the file does not grow.
			reused := 0
			for _, rid := range rids {
				if rid.Page < tail {
					reused++
				}
			}
			if reused < len(rids)/2 || storage.PageID(tb.Heap.NumPages()-1) != tail {
				t.Fatalf("%d of %d rows on pages before the last, %d, and the heap has %d pages",
					reused, len(rids), tail, tb.Heap.NumPages())
			}
			if commit {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			db = open()
			defer db.Close()
			if tb, err = db.Table("words"); err != nil {
				t.Fatal(err)
			}
			want := map[int64]bool{}
			for id := 1400; id < rows; id++ {
				want[int64(id)] = true
			}
			if commit {
				for id := rows; id <= rows+300; id++ {
					want[int64(id)] = true
				}
			}
			got := map[int64]bool{}
			if _, err := tb.Select(nil, func(r Row) bool { got[r.Tuple[1].I] = true; return true }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d rows visible after recovery, want %d", len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("row %d is missing after recovery", id)
				}
			}
			matched := map[string]int{}
			oracleCheckTable(t, rand.New(rand.NewSource(32)), tb, 40, matched)
			oracleAllMatched(t, matched)
		})
	}
}

// TestEqualHistoriesBuildEqualHeaps: two databases given the same
// statements — churn that has inserts land in freed space — hold the same
// heap, byte for byte: placement takes the lowest-numbered page with
// room, not whichever a map iteration offers first.
func TestEqualHistoriesBuildEqualHeaps(t *testing.T) {
	words := datagen.Words(3000, 33)
	build := func() *Table {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		tb := reuseTable(t, db, words, 2000)
		oldest, next := 0, 2000
		for c := 0; c < 6; c++ {
			reuseChurn(t, db, tb, words, &oldest, &next, 250)
		}
		return tb
	}
	a, b := build(), build()
	if a.Heap.FreeBytes() == 0 {
		t.Fatal("VACUUM left nothing in the free-space map: the histories test no reuse")
	}
	if a.Heap.NumPages() != b.Heap.NumPages() {
		t.Fatalf("%d heap pages against %d", a.Heap.NumPages(), b.Heap.NumPages())
	}
	reused := false
	for pid := storage.PageID(1); uint32(pid) < a.Heap.NumPages(); pid++ {
		pa := reusePage(t, a.Heap, pid)
		if pb := reusePage(t, b.Heap, pid); !bytes.Equal(pa, pb) {
			t.Fatalf("heap page %d differs between equal histories", pid)
		}
		// A row of the last cycle's INSERT (ids 3250 and up) on a page
		// before the last is one that went to freed space.
		if uint32(pid)+1 < a.Heap.NumPages() {
			a.Heap.ScanPageVersions(pid, func(_ heap.RID, _ heap.TupleHeader, payload []byte) bool {
				tup, err := catalog.DecodeTuple(payload)
				reused = reused || (err == nil && tup[1].I >= 3250)
				return !reused
			})
		}
	}
	if !reused {
		t.Fatal("no row of the last cycle went to a page before the last: the histories test no reuse")
	}
}

// reusePage returns a copy of heap page pid.
func reusePage(t *testing.T, f *heap.File, pid storage.PageID) []byte {
	t.Helper()
	p, err := f.Pool().Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Pool().Unpin(p, false)
	return append([]byte(nil), p.Data...)
}

// TestHeapFreeBytesBesideInserts: SHOW STATS reads the free-space map
// while inserts fill the space it lists — under the race detector, the
// table's page latch must order the two.
func TestHeapFreeBytesBesideInserts(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	words := datagen.Words(1000, 34)
	tb := reuseTable(t, db, words, 1000)
	if _, err := tb.DeleteWhere(reuseIDPred("<", 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Vacuum("words"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 1000; i < 1300; i++ {
			if _, err := tb.Insert(reuseRows(words, i, i+1)[0]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	free := func() int64 {
		stats, err := tb.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			if s.Name == "heap_free_bytes" {
				return s.Value
			}
		}
		t.Fatal("SHOW STATS has no heap_free_bytes")
		return 0
	}
	before := free()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if after := free(); after >= before {
				t.Fatalf("heap_free_bytes %d after 300 inserts into freed space, %d before", after, before)
			}
			return
		default:
			free()
		}
	}
}
