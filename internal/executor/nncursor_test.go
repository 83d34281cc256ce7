package executor_test

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestNNCursorExitPaths: an index kNN returns the right rows however its
// NN scan stops — at k rows, with the index exhausted, or on a heap page
// that fails to read in the middle of the scan — and LIMIT 0 reads no
// index page. Every path ends the scan through the index's NNSearch,
// which closes the cursor (TestNNSearchEndsItsScan in am pins that). The
// heap is cold (a 16-frame pool after a reopen), so the nearest rows'
// pages are read from disk and the fault lands between two of them. After
// the fault a clean kNN still matches a brute-force sort.
func TestNNCursorExitPaths(t *testing.T) {
	const rows = 6000
	dir := t.TempDir()
	var fmu sync.Mutex
	var heapFaults []*storage.FaultDiskManager
	open := func(poolPages int) *executor.DB {
		db, err := executor.Open(executor.Options{
			Dir: dir, WAL: true, WALSync: wal.SyncLazy, PoolPages: poolPages,
			DiskFaults: func(name string, dm storage.DiskManager) storage.DiskManager {
				if !strings.HasSuffix(name, ".tbl") {
					return dm
				}
				f := storage.WithFaults(dm, 1)
				f.Disarm()
				fmu.Lock()
				heapFaults = append(heapFaults, f)
				fmu.Unlock()
				return f
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	// Loaded through the default pool: no-steal keeps a statement's
	// pages in memory until it commits, more than 16 frames hold.
	db := open(0)
	tb, err := db.CreateTable("pts", []executor.Column{{Name: "p", Type: catalog.Point}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(40))
	pts := make([]geom.Point, rows)
	tups := make([]catalog.Tuple, 0, 500)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		if tups = append(tups, catalog.Tuple{catalog.NewPoint(pts[i])}); len(tups) == cap(tups) {
			if _, err := tb.InsertBatch(tups); err != nil {
				t.Fatal(err)
			}
			tups = tups[:0]
		}
	}
	if _, err := db.CreateIndex("pts_kd", "pts", "p", "spgist", "spgist_kdtree"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	fmu.Lock()
	heapFaults = nil
	fmu.Unlock()
	db = open(16)
	defer db.Close()
	if tb, err = db.Table("pts"); err != nil {
		t.Fatal(err)
	}
	fmu.Lock()
	if len(heapFaults) != 1 {
		t.Fatalf("%d heap files wrapped, want 1", len(heapFaults))
	}
	faults := heapFaults[0]
	fmu.Unlock()

	// knn runs one kNN through the executor, which must plan an index NN
	// scan.
	knn := func(q geom.Point, k int, analyzed bool) ([]executor.NNResult, *executor.RunStats, error) {
		t.Helper()
		var res []executor.NNResult
		var plan *executor.Plan
		var rs *executor.RunStats
		if analyzed {
			res, plan, rs, err = tb.SelectNNAnalyzed(nil, "p", catalog.NewPoint(q), k)
		} else {
			res, plan, err = tb.SelectNNTx(nil, "p", catalog.NewPoint(q), k)
		}
		if err == nil && plan.Kind != executor.IndexNNScan {
			t.Fatalf("kNN k=%d planned %s, want an index NN scan", k, plan)
		}
		return res, rs, err
	}
	// brute checks res against the k nearest of pts by distance.
	brute := func(q geom.Point, res []executor.NNResult, k int) {
		t.Helper()
		all := make([]float64, len(pts))
		for i, p := range pts {
			all[i] = q.Dist(p)
		}
		sort.Float64s(all)
		if len(res) != min(k, len(all)) {
			t.Fatalf("kNN around %v returned %d rows, want %d", q, len(res), min(k, len(all)))
		}
		for i, nn := range res {
			if own := nn.Tuple[0].P.Dist(q); math.Abs(nn.Distance-all[i]) > 1e-9 || own != nn.Distance {
				t.Fatalf("kNN around %v: #%d at %g (really %g), brute force has %g", q, i, nn.Distance, own, all[i])
			}
		}
	}

	q := geom.Point{X: 500, Y: 500}
	// The fault first: with the heap still cold, fail the third heap page
	// read from here on, and every one after it.
	faults.AddRule(storage.FaultRule{Op: storage.FaultRead, Kind: storage.FaultPermanent, Nth: faults.Calls(storage.FaultRead) + 3})
	faults.Arm()
	if _, _, err := knn(q, 50, false); !errors.Is(err, storage.ErrInjectedPermanentIO) {
		t.Fatalf("kNN over a failing heap page: err %v, want the injected read error", err)
	}
	faults.Disarm()

	for _, analyzed := range []bool{false, true} {
		// k reached.
		res, _, err := knn(q, 10, analyzed)
		if err != nil {
			t.Fatal(err)
		}
		brute(q, res, 10)
		// The index exhausted before k rows.
		if res, _, err = knn(geom.Point{X: 10, Y: 990}, rows+5, analyzed); err != nil {
			t.Fatal(err)
		}
		brute(geom.Point{X: 10, Y: 990}, res, rows+5)
		// LIMIT 0 returns before the scan.
		res, rs, err := knn(q, 0, analyzed)
		if err != nil || len(res) != 0 {
			t.Fatalf("LIMIT 0: %d rows, err %v", len(res), err)
		}
		if analyzed && (rs.IndexPages != 0 || rs.Scanned != 0) {
			t.Fatalf("LIMIT 0 read %d index pages and %d heap versions, want none", rs.IndexPages, rs.Scanned)
		}
	}
}

// TestSelectNNAllocBudget pins what a warm kNN statement allocates in the
// executor: SelectNNTx with k = 10 over the end-to-end benchmark's 15 000
// points, autocommit. The NN cursor is recycled and its traversal values
// are bytes in its arena, so what is left is the statement's own (query
// value, result slice, the callback) and the rows it fetches from the
// heap. The budget is the measured count plus 10 % (28; 84 with a fresh
// cursor per statement and a boxed traversal value per inner node).
func TestSelectNNAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 30 000 rows")
	}
	_, tables, _ := loadedWriteDB(t, 15000)
	tb := tables["pts"]
	q := catalog.NewPoint(geom.Point{X: 500, Y: 500})
	run := func() {
		res, plan, err := tb.SelectNNTx(nil, "k", q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != executor.IndexNNScan || len(res) != 10 {
			t.Fatalf("kNN planned %s and returned %d rows, want an index NN scan and 10", plan, len(res))
		}
	}
	run()
	allocs := testing.AllocsPerRun(200, run)
	t.Logf("kNN k=10 over 15 000 points: %.0f allocations per statement", allocs)
	if !poolsKeep() {
		t.Log("sync.Pool drops what it is given (the race detector does that): the budget measures nothing here")
	} else if allocs > budgetKNN {
		t.Errorf("a warm kNN k=10 allocates %.0f times, the budget is %d", allocs, budgetKNN)
	}
}

const budgetKNN = 31
