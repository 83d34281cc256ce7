package executor

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
)

// These tests pin the two legs that close the missing-statistics
// planner cliff — statistics that follow the data (ensureStats) and the
// Mackert–Lohman page-fetch estimate (indexScanCost) — separately and
// together: an exact match on a table nobody ANALYZEd must be an Index
// Scan from a thousand rows up, whichever leg is looked at alone.

// linearIndexScanCost is indexScanCost before the page-fetch estimate:
// one full random heap fetch per matched row, capped at the heap size.
// Kept here as the "Leg B disabled" reference.
func linearIndexScanCost(rows, heapPages, indexPages, sel float64) float64 {
	matched := sel * rows
	return randomPageCost +
		sel*indexPages*randomPageCost +
		matched*(cpuIndexCost+cpuTupleCost+cpuOperCost) +
		math.Min(matched, heapPages)*randomPageCost
}

func TestPagesFetched(t *testing.T) {
	// Few fetches into a large heap: essentially one page each.
	if got := pagesFetched(10, 218); got > 10 || got < 9.7 {
		t.Errorf("pagesFetched(10, 218) = %g, want just under 10", got)
	}
	// Saturation: never more pages than the heap has, never more than
	// the fetches made, monotone in n.
	prev := 0.0
	for n := 1.0; n <= 1e6; n *= 3 {
		got := pagesFetched(n, 500)
		if got > 500 || got > n || got < prev {
			t.Fatalf("pagesFetched(%g, 500) = %g (prev %g)", n, got, prev)
		}
		prev = got
	}
	if prev != 500 {
		t.Errorf("pagesFetched saturates at %g, want the heap's 500 pages", prev)
	}
	if pagesFetched(0, 500) != 0 || pagesFetched(5, 0) != 0 {
		t.Error("degenerate inputs must cost nothing")
	}
}

// TestCostModelPlanChoiceMatrix table-tests the plan comparison as a
// pure function of the table's shape, 10² to 10⁶ rows at three row
// densities, with each leg disabled in turn.
func TestCostModelPlanChoiceMatrix(t *testing.T) {
	for _, rowsPerPage := range []float64{20, 180, 400} {
		for rows := 1e2; rows <= 1e6; rows *= 10 {
			heapPages := math.Ceil(rows/rowsPerPage) + 1 // + the meta page
			indexPages := math.Max(2, math.Ceil(heapPages/2))
			seq := seqScanCost(rows, heapPages)
			name := fmt.Sprintf("%g rows at %g/page", rows, rowsPerPage)

			// Leg B alone: no usable statistics, the default selectivity.
			def := indexScanCost(rows, heapPages, indexPages, catalog.DefaultEqSel)
			switch {
			case heapPages <= 2 && def < seq:
				t.Errorf("%s: default-selectivity index scan %.1f beats seq scan %.1f on a one-page table", name, def, seq)
			case rows >= 1e4 && def >= seq:
				t.Errorf("%s: default-selectivity index scan %.1f loses to seq scan %.1f", name, def, seq)
			case rows == 1e3 && rowsPerPage <= 180 && def >= seq:
				t.Errorf("%s: default-selectivity index scan %.1f loses to seq scan %.1f", name, def, seq)
			}
			// The old linear charge is the cliff: at the density of the
			// benchmark's word tables (0.02·rows against 0.018·rows) it
			// loses to the seq scan at every size.
			if old := linearIndexScanCost(rows, heapPages, indexPages, catalog.DefaultEqSel); rowsPerPage == 180 && old < seq {
				t.Errorf("%s: linear model %.1f beat seq scan %.1f — the cliff this test documents is gone", name, old, seq)
			}

			// Leg A alone: refreshed statistics on a unique key (sel =
			// 1/rows) estimate one row and win even under the old charge.
			sel := 1 / rows
			if got := clampRows(sel * rows); got != 1 {
				t.Errorf("%s: unique-key estimate = %d rows, want 1", name, got)
			}
			if old := linearIndexScanCost(rows, heapPages, indexPages, sel); rows >= 1e3 && old >= seq {
				t.Errorf("%s: unique-key index scan %.1f loses to seq scan %.1f under the linear model", name, old, seq)
			}
			// Real statistics — a handful of estimated rows — choose
			// under the page-fetch estimate what they chose before it.
			for _, n := range []float64{1, 10} {
				a := indexScanCost(rows, heapPages, indexPages, n/rows)
				b := linearIndexScanCost(rows, heapPages, indexPages, n/rows)
				if (a < seq) != (b < seq) {
					t.Errorf("%s, %g rows matched: page-fetch %.2f vs linear %.2f (seq %.1f)", name, n, a, b, seq)
				}
			}
		}
	}
}

func TestClampRowsAndQError(t *testing.T) {
	for _, c := range []struct {
		est  float64
		want int64
	}{{0, 1}, {0.2, 1}, {1.4, 1}, {1.5, 2}, {24.9, 25}, {1e6, 1e6}} {
		if got := clampRows(c.est); got != c.want {
			t.Errorf("clampRows(%g) = %d, want %d", c.est, got, c.want)
		}
	}
	for _, c := range []struct {
		est, actual int64
		want        float64
	}{{25, 1, 25}, {1, 25, 25}, {1, 0, 1}, {0, 0, 1}, {7, 7, 1}, {50, 0, 50}} {
		if got := QError(c.est, c.actual); got != c.want {
			t.Errorf("QError(%d, %d) = %g, want %g", c.est, c.actual, got, c.want)
		}
	}
}

func cliffKey(i int) string { return fmt.Sprintf("key%07d", i) }

// loadCliffTable builds a (name, id) table of n unique keys with one
// index on name, created before or after the load, and never ANALYZEs.
func loadCliffTable(t testing.TB, db *DB, n int, method, opclass string, indexFirst bool) *Table {
	t.Helper()
	tb, err := db.CreateTable("cliff", []Column{{"name", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	createIndex := func() {
		if _, err := db.CreateIndex("cliff_ix", "cliff", "name", method, opclass); err != nil {
			t.Fatal(err)
		}
	}
	if indexFirst {
		createIndex()
	}
	insertCliffKeys(t, tb, 0, n)
	if !indexFirst {
		createIndex()
	}
	return tb
}

// insertCliffKeys inserts keys [from, to) in batches of 500.
func insertCliffKeys(t testing.TB, tb *Table, from, to int) {
	t.Helper()
	const batch = 500
	for base := from; base < to; base += batch {
		tups := make([]catalog.Tuple, 0, batch)
		for i := base; i < base+batch && i < to; i++ {
			tups = append(tups, catalog.Tuple{catalog.NewText(cliffKey(i)), catalog.NewInt(int64(i))})
		}
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatal(err)
		}
	}
}

func eqPred(key string) *Pred {
	return &Pred{Column: 0, Op: "=", Arg: catalog.NewText(key)}
}

// TestNeverAnalyzedPlanMatrix is the plan-choice regression matrix:
// trie and B+-tree, 10² to 10⁵ rows, index created before and after the
// load, nobody runs ANALYZE. From 10³ rows up an exact match is an
// Index Scan estimating one row, and UPDATE / DELETE by key read O(1)
// tuples.
func TestNeverAnalyzedPlanMatrix(t *testing.T) {
	sizes := []int{100, 1000, 10000, 100000}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, am := range []struct{ method, opclass string }{{"spgist", "spgist_trie"}, {"btree", "btree_text"}} {
		for _, n := range sizes {
			for _, indexFirst := range []bool{true, false} {
				name := fmt.Sprintf("%s/%d/indexFirst=%v", am.opclass, n, indexFirst)
				t.Run(name, func(t *testing.T) {
					db := memDB(t)
					defer db.Close()
					tb := loadCliffTable(t, db, n, am.method, am.opclass, indexFirst)
					wantKind := IndexScan
					if n < 1000 {
						wantKind = SeqScan // two pages: the scan is cheaper
					}

					// The first statement.
					got := 0
					plan, err := tb.Select(eqPred(cliffKey(n/2)), func(Row) bool { got++; return true })
					if err != nil {
						t.Fatal(err)
					}
					if plan.Kind != wantKind || got != 1 {
						t.Fatalf("first exact match: %s, %d rows; want %v and 1 row", plan, got, wantKind)
					}
					// After it the estimate is right, not merely harmless.
					plan, err = tb.PlanSelect(eqPred(cliffKey(n / 3)))
					if err != nil {
						t.Fatal(err)
					}
					if plan.Kind != wantKind || QError(plan.Rows, 1) >= 10 {
						t.Fatalf("second plan: %s; want %v within 10× of one row", plan, wantKind)
					}
					if si := tb.statsInfoLocked(); si.Source != StatsFromSample || si.Rows != int64(n) || si.StalePct != 0 {
						t.Fatalf("statistics provenance = %+v, want a lazy sample of all %d rows", si, n)
					}
					if wantKind == SeqScan {
						return
					}

					// UPDATE and DELETE by key plan through the same path.
					read := db.met.tuplesRead
					before := read.Load()
					if k, err := tb.UpdateWhere(eqPred(cliffKey(n/4)), []ColUpdate{{Column: 1, Value: catalog.NewInt(-1)}}); err != nil || k != 1 {
						t.Fatalf("UPDATE by key: %d rows, %v", k, err)
					}
					if k, err := tb.DeleteWhere(eqPred(cliffKey(n / 5))); err != nil || k != 1 {
						t.Fatalf("DELETE by key: %d rows, %v", k, err)
					}
					if d := read.Load() - before; d > 4 {
						t.Fatalf("UPDATE + DELETE by key read %d tuples, want O(1)", d)
					}
				})
			}
		}
	}
}

// TestLazyRefreshFollowsGrowth: the lazy sample re-runs at doublings of
// a growing table — O(log N) refreshes — stays in memory, and costs the
// plans in between nothing.
func TestLazyRefreshFollowsGrowth(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	tb := loadCliffTable(t, db, 0, "spgist", "spgist_trie", true)
	refreshes := db.met.statsRefresh
	next := 0
	for _, size := range []int{1000, 1400, 2000, 3900, 4000, 16000} {
		insertCliffKeys(t, tb, next, size)
		next = size
		for i := 0; i < 3; i++ {
			if _, err := tb.PlanSelect(eqPred(cliffKey(i))); err != nil {
				t.Fatal(err)
			}
		}
		// Plans with current statistics never touch the heap.
		tb.Heap.Pool().ResetStats()
		plan, err := tb.PlanSelect(eqPred(cliffKey(1)))
		if err != nil {
			t.Fatal(err)
		}
		if s := tb.Heap.Pool().Stats(); s.Accesses != 0 {
			t.Fatalf("at %d rows a plan with current statistics read %d heap pages", size, s.Accesses)
		}
		if plan.Kind != IndexScan {
			t.Fatalf("at %d rows: %s", size, plan)
		}
	}
	// Sampled at 1000, 2000 (1400 is 40% stale: blended), 4000 (3900 is
	// 95% stale: still blended) and 16000.
	if got := refreshes.Load(); got != 4 {
		t.Fatalf("lazy refreshes = %d, want 4 (one per doubling)", got)
	}
	if got := db.Catalog().AllStats(); len(got) != 0 {
		t.Fatalf("lazy refresh persisted %d statistics records", len(got))
	}
}

// TestLazyRefreshAmortisedInsideTransaction: a bulk load that looks its
// keys up as it goes, all in one open transaction. A fresh snapshot sees
// none of those rows, so the analyzed live count stays 0 — the refresh
// must still amortise against the heap versions it walked (doublings),
// not fire on every statement.
func TestLazyRefreshAmortisedInsideTransaction(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	tb := loadCliffTable(t, db, 0, "spgist", "spgist_trie", true)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := tb.InsertTx(tx, catalog.Tuple{catalog.NewText(cliffKey(i)), catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		got := 0
		if _, err := tb.SelectTx(tx, eqPred(cliffKey(i)), func(Row) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("key %d: %d rows inside its own transaction, want 1", i, got)
		}
	}
	// 1, 2, 4, … 1024: one refresh per doubling of the heap.
	if got := db.met.statsRefresh.Load(); got > 12 {
		t.Fatalf("lazy refreshes during a %d-row in-transaction load = %d, want ≤ 12 (one per doubling)", n, got)
	}
	// Another session planning while the load is open is amortised too.
	before := db.met.statsRefresh.Load()
	for i := 0; i < 50; i++ {
		if _, err := tb.PlanSelect(eqPred(cliffKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.met.statsRefresh.Load() - before; got > 1 {
		t.Fatalf("50 plans beside an open load transaction refreshed %d times, want ≤ 1", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyRefreshSettlesOverDeadVersions: a table whose dead versions
// outnumber its live rows (every row updated, no VACUUM) must refresh
// once and then stop — the drift baseline is the heap's version count,
// not the live row count it can never return to.
func TestLazyRefreshSettlesOverDeadVersions(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	tb := loadCliffTable(t, db, 2000, "spgist", "spgist_trie", false)
	for round := 0; round < 2; round++ {
		if _, err := tb.UpdateWhere(nil, []ColUpdate{{Column: 1, Value: catalog.NewInt(int64(round))}}); err != nil {
			t.Fatal(err)
		}
	}
	if v := tb.Heap.Count(); v < 6000 {
		t.Fatalf("heap holds %d versions, want 6000 (2000 live + 4000 dead)", v)
	}
	before := db.met.statsRefresh.Load()
	for i := 0; i < 5; i++ {
		plan, err := tb.PlanSelect(eqPred(cliffKey(i)))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != IndexScan {
			t.Fatalf("plan %d: %s", i, plan)
		}
	}
	if got := db.met.statsRefresh.Load() - before; got != 1 {
		t.Fatalf("refreshes over a dead-version-heavy table = %d, want exactly 1", got)
	}
	if si := tb.statsInfoLocked(); si.Rows != 2000 || si.StalePct != 0 {
		t.Fatalf("statistics after the refresh = %+v, want 2000 live rows, 0%% stale", si)
	}
}

// TestLazyRefreshBacksOffAfterFailure: a failed sample is best effort —
// the statement still plans (and, thanks to the page-fetch estimate,
// still picks the index) — but it is not retried on every plan, only
// once the churn has doubled.
func TestLazyRefreshBacksOffAfterFailure(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	tb := loadCliffTable(t, db, 2000, "spgist", "spgist_trie", true)
	attempts := 0
	db.statsRefreshHook = func(*Table) error { attempts++; return errors.New("injected sample failure") }
	for i := 0; i < 20; i++ {
		plan, err := tb.PlanSelect(eqPred(cliffKey(i)))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != IndexScan || plan.Selectivity != catalog.DefaultEqSel {
			t.Fatalf("plan without statistics: %s (sel %g)", plan, plan.Selectivity)
		}
	}
	if attempts != 1 {
		t.Fatalf("failed sample attempted %d times over 20 plans, want 1", attempts)
	}
	// Churn doubles: one more attempt, which now succeeds.
	db.statsRefreshHook = func(*Table) error { attempts++; return nil }
	insertCliffKeys(t, tb, 2000, 3000)
	if _, err := tb.PlanSelect(eqPred(cliffKey(1))); err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("retried at 1.5× the failed churn (attempts = %d)", attempts)
	}
	insertCliffKeys(t, tb, 3000, 4000)
	plan, err := tb.PlanSelect(eqPred(cliffKey(1)))
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || plan.Rows != 1 || plan.Selectivity >= catalog.DefaultEqSel {
		t.Fatalf("after the churn doubled: attempts = %d, plan %s (sel %g); want a second, successful sample", attempts, plan, plan.Selectivity)
	}
}

// TestLazyRefreshSingleFlight runs 8 planners and a batch writer against
// one table (run it under -race). At most one refresh is ever in
// flight, and while one is — held open by the hook — the other planners
// keep planning with the statistics they have instead of queueing
// behind it, as they did behind the old sync.Once.
func TestLazyRefreshSingleFlight(t *testing.T) {
	db := memDB(t)
	defer db.Close()
	tb := loadCliffTable(t, db, 2000, "spgist", "spgist_trie", true)

	var inflight, maxInflight, refreshes atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	db.statsRefreshHook = func(*Table) error {
		n := inflight.Add(1)
		for {
			m := maxInflight.Load()
			if n <= m || maxInflight.CompareAndSwap(m, n) {
				break
			}
		}
		if refreshes.Add(1) == 1 {
			close(entered)
			<-release // hold the first refresh open
		}
		inflight.Add(-1)
		return nil
	}

	var plans atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// On every exit — a failed assertion included — let the held refresh
	// go and the planners finish before the deferred Close needs the
	// exclusive statement lock.
	var releaseOnce, stopOnce sync.Once
	unblock := func() {
		releaseOnce.Do(func() { close(release) })
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer unblock()
	fail := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				plan, err := tb.PlanSelect(eqPred(cliffKey((g*131 + i) % 2000)))
				if err != nil {
					fail <- err
					return
				}
				if plan.Kind != IndexScan {
					fail <- fmt.Errorf("planner %d: %s", g, plan)
					return
				}
				plans.Add(1)
			}
		}(g)
	}

	// Phase 1: the first refresh is in flight and stays there.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no lazy refresh started")
	}
	base := plans.Load()
	deadline := time.Now().Add(10 * time.Second)
	for plans.Load() < base+200 {
		if time.Now().After(deadline) {
			t.Fatalf("planners made %d plans while a refresh was in flight; they are blocked on it", plans.Load()-base)
		}
		time.Sleep(time.Millisecond)
	}
	if got := refreshes.Load(); got != 1 {
		t.Fatalf("%d refreshes started while the first was still in flight", got)
	}
	releaseOnce.Do(func() { close(release) })

	// Phase 2: a writer grows the table through three doublings while
	// the planners keep going.
	for next := 2000; next < 16000; next += 500 {
		insertCliffKeys(t, tb, next, next+500)
		time.Sleep(time.Millisecond) // let the planners see each size
	}
	unblock()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if m := maxInflight.Load(); m != 1 {
		t.Fatalf("max refreshes in flight = %d, want 1", m)
	}
	// 2000 → 16000 is three doublings; a refresh that lands between two
	// batches can add one. Far fewer than the 28 batches written.
	if got := refreshes.Load(); got < 2 || got > 6 {
		t.Fatalf("refreshes = %d over three doublings, want 2..6", got)
	}
	if plan, err := tb.PlanSelect(eqPred(cliffKey(15999))); err != nil || plan.Kind != IndexScan {
		t.Fatalf("final plan: %v, %v", plan, err)
	}
}
