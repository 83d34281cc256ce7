package executor_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/geom"
	"repro/internal/wal"
)

// loadedWriteDB opens an on-disk WAL database holding a trie-indexed table
// of `loaded` random 8-digit names and a kd-tree-indexed table of `loaded`
// uniform points — the shapes of the end-to-end benchmark's words and pts
// tables — checkpointed, so every page's first-touch image is behind it
// once a page has been written again. next(name) yields fresh rows.
func loadedWriteDB(tb testing.TB, loaded int) (db *executor.DB, tables map[string]*executor.Table, next func(name string) catalog.Tuple) {
	tb.Helper()
	db, err := executor.Open(executor.Options{Dir: tb.TempDir(), WAL: true, WALSync: wal.SyncLazy})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(21))
	id := int64(0)
	next = func(name string) catalog.Tuple {
		id++
		if name == "words" {
			return catalog.Tuple{catalog.NewText(fmt.Sprintf("%08d", rng.Intn(100000000))), catalog.NewInt(id)}
		}
		p := geom.Point{X: float64(rng.Intn(1000000)) / 1000, Y: float64(rng.Intn(1000000)) / 1000}
		return catalog.Tuple{catalog.NewPoint(p), catalog.NewInt(id)}
	}
	tables = map[string]*executor.Table{}
	for _, def := range []struct {
		name, opclass string
		typ           catalog.Type
	}{{"words", "spgist_trie", catalog.Text}, {"pts", "spgist_kdtree", catalog.Point}} {
		t, err := db.CreateTable(def.name, []executor.Column{{Name: "k", Type: def.typ}, {Name: "id", Type: catalog.Int}})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := db.CreateIndex(def.name+"_ix", def.name, "k", "spgist", def.opclass); err != nil {
			tb.Fatal(err)
		}
		for done := 0; done < loaded; done += 500 {
			tups := make([]catalog.Tuple, min(500, loaded-done))
			for i := range tups {
				tups[i] = next(def.name)
			}
			if _, err := t.InsertBatch(tups); err != nil {
				tb.Fatal(err)
			}
		}
		tables[def.name] = t
	}
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	return db, tables, next
}

// BenchmarkInsertTxSingleRow is the statement the end-to-end benchmark's
// write_mix times as kind.insert: one single-row InsertTx into a loaded
// indexed table inside an open transaction, committed every eight rows.
//
//	go test -run '^$' -bench InsertTxSingleRow -benchmem -cpuprofile p.prof ./internal/executor
func BenchmarkInsertTxSingleRow(b *testing.B) {
	for _, name := range []string{"words", "pts"} {
		b.Run(name, func(b *testing.B) {
			db, tables, next := loadedWriteDB(b, 40000)
			t := tables[name]
			b.ReportAllocs()
			b.ResetTimer()
			var tx *executor.Txn
			var err error
			for i := 0; i < b.N; i++ {
				if i%8 == 0 {
					if tx != nil {
						if err := tx.Commit(); err != nil {
							b.Fatal(err)
						}
					}
					if tx, err = db.Begin(); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := t.InsertTx(tx, next(name)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestInsertAllocBudget guards what one single-row INSERT inside a
// transaction allocates, beside TestIndexWALBudget's guard on what it
// logs: the leaf it lands in is extended inside its page, not decoded and
// re-encoded; compaction borrows its buffer; the record group and the
// commit point reuse theirs; Choose returns its match in a buffer the
// descent lends it, and the trie, kd-tree and point quadtree derive no
// traversal value nobody reads. The ceilings are about a quarter above
// what the last change measured: trie 29 allocations / 1.5 KB, kd-tree
// 53 / 2.5 KB. Before it: 46 / 1.7 KB and 97 / 3.8 KB — a traversal value
// and a match list at every level of the descent, and the kd-tree's paths
// are deep; before the in-page leaf append: 101 / 9.8 KB and
// 177 / 11.1 KB.
func TestInsertAllocBudget(t *testing.T) {
	db, tables, next := loadedWriteDB(t, 20000)
	for _, c := range []struct {
		table        string
		allocs, size float64
	}{{"words", 36, 1920}, {"pts", 66, 3104}} {
		// Warm up first: after the checkpoint every page's first touch
		// ships an image, and the log's buffer grows to hold them.
		const warm, runs = 4000, 2000
		tups := make([]catalog.Tuple, 0, warm+runs+1) // AllocsPerRun adds a call of its own
		for len(tups) < cap(tups) {
			tups = append(tups, next(c.table))
		}
		tb, i := tables[c.table], 0
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for ; i < warm; i++ {
			if _, err := tb.InsertTx(tx, tups[i]); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := tb.InsertTx(tx, tups[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		runtime.ReadMemStats(&after)
		size := float64(after.TotalAlloc-before.TotalAlloc) / float64(i-warm)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocations, %.0f B per single-row INSERT inside a transaction", c.table, allocs, size)
		if allocs > c.allocs {
			t.Errorf("%s: a single-row INSERT allocates %.0f times, the budget is %.0f", c.table, allocs, c.allocs)
		}
		if !poolsKeep() {
			t.Logf("sync.Pool drops what it is given (the race detector does that): the byte budget measures nothing here")
		} else if size > c.size {
			t.Errorf("%s: a single-row INSERT allocates %.0f B, the budget is %.0f B", c.table, size, c.size)
		}
	}
}

// TestAnalyzeAllocBudget guards what ANALYZE allocates over the shapes of
// the end-to-end benchmark's tables: words and pts at 40 000 rows each,
// 30 000 sampled. The sample's decoded tuples are most of it; the
// statistics sort positions into the sample and build no map of datums.
// The ceiling is 40 MB; the map-based statistics allocated 121 MB here.
func TestAnalyzeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 80 000 rows")
	}
	_, tables, _ := loadedWriteDB(t, 40000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for _, name := range []string{"words", "pts"} {
		if err := tables[name].Analyze(); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("ANALYZE words, pts: %.1f MB in %d allocations, %v", mb, after.Mallocs-before.Mallocs, took)
	if mb > 40 {
		t.Errorf("ANALYZE of words and pts allocates %.1f MB, the budget is 40 MB", mb)
	}
}

// poolsKeep reports whether a sync.Pool hands back what it was just given.
// Under the race detector Put drops a quarter of its arguments at random,
// so every borrowed page-size buffer is reallocated a quarter of the time.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}
