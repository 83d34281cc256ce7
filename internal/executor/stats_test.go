package executor_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
)

// These tests cover persisted planner statistics: ANALYZE samples the
// heap and commits a statistics record in the system catalog, a reopen
// loads it with the schema (so the first plan reads no heap data page),
// plan choice is stable across reopens, a crashed ANALYZE keeps the old
// statistics whole, and a catalog without statistics records (the
// pre-stats on-disk format) keeps the lazy sampling behavior.

// fillSkewed inserts a skewed word column: `common` common times plus
// distinct rare words, so the MCV list carries a high-frequency entry
// while the rest stays selective.
func fillSkewed(t *testing.T, tb *executor.Table, common, rare int) {
	t.Helper()
	for i := 0; i < common; i++ {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewText("common"), catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rare; i++ {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewText(fmt.Sprintf("w%04d", i)), catalog.NewInt(int64(common + i))}); err != nil {
			t.Fatal(err)
		}
	}
}

func planFor(t *testing.T, tb *executor.Table, op, arg string) *executor.Plan {
	t.Helper()
	plan, err := tb.PlanSelect(&executor.Pred{Column: 0, Op: op, Arg: catalog.NewText(arg)})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestAnalyzePersistsStatsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillSkewed(t, tb, 1400, 600)
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	st, ok := db.Catalog().GetStats(tb.OID())
	if !ok {
		t.Fatal("ANALYZE left no statistics record")
	}
	if st.Rows != 2000 || st.SampleRows != 2000 {
		t.Fatalf("stats rows=%d sampled=%d, want 2000/2000", st.Rows, st.SampleRows)
	}
	if nd := st.Cols[0].NDistinct; nd != 601 {
		t.Fatalf("name ndistinct = %d, want 601", nd)
	}
	if len(st.Cols[0].MCVals) == 0 || st.Cols[0].MCVals[0].S != "common" || st.Cols[0].MCFreqs[0] != 0.7 {
		t.Fatalf("MCV list should lead with common@0.7: %+v", st.Cols[0])
	}
	if !st.Cols[0].HasRange || len(st.Cols[0].Histogram) < 2 {
		t.Fatalf("ordered column missing range/histogram: %+v", st.Cols[0])
	}

	// Plans before the reopen: the common value seqscans (sel 0.7), a
	// rare one uses the index.
	wantCommon := planFor(t, tb, "=", "common").String()
	wantRare := planFor(t, tb, "=", "w0042").String()
	if !strings.HasPrefix(wantCommon, "Seq Scan") {
		t.Fatalf("common-value plan: %s", wantCommon)
	}
	if !strings.HasPrefix(wantRare, "Index Scan") {
		t.Fatalf("rare-value plan: %s", wantRare)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	tb, err = db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	// The first plan after the reopen must read no heap data page: the
	// persisted statistics loaded with the catalog.
	tb.Heap.Pool().ResetStats()
	gotCommon := planFor(t, tb, "=", "common").String()
	gotRare := planFor(t, tb, "=", "w0042").String()
	if s := tb.Heap.Pool().Stats(); s.Accesses != 0 {
		t.Fatalf("first plan touched %d heap pages; want 0", s.Accesses)
	}
	if gotCommon != wantCommon {
		t.Fatalf("common-value plan changed across reopen:\n before %s\n after  %s", wantCommon, gotCommon)
	}
	if gotRare != wantRare {
		t.Fatalf("rare-value plan changed across reopen:\n before %s\n after  %s", wantRare, gotRare)
	}
}

func TestCrashedAnalyzeKeepsOldStatsWhole(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected crash")
	crashNext := false
	db := openCatalogDB(t, dir, executor.FaultInjection{
		BeforeDDLCommit: func(stmt string) error {
			if crashNext && strings.HasPrefix(stmt, "ANALYZE") {
				return boom
			}
			return nil
		},
	})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 200)
	if err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	// Grow the table, then crash the second ANALYZE right before its
	// commit: the replacement record is appended but uncommitted.
	fillWords(t, tb, 300)
	crashNext = true
	if err := tb.Analyze(); !errors.Is(err, boom) {
		t.Fatalf("ANALYZE error = %v, want injected crash", err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	tb, err = db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := db.Catalog().GetStats(tb.OID())
	if !ok {
		t.Fatal("old statistics vanished after crashed ANALYZE")
	}
	if st.Rows != 200 {
		t.Fatalf("stats rows = %d, want the pre-crash 200 (never torn, never half-replaced)", st.Rows)
	}
	// The table itself holds all 500 rows; planning still works.
	if plan := planFor(t, tb, "=", "wab001"); plan == nil {
		t.Fatal("planning failed")
	}
}

// A catalog written without statistics records — the on-disk format of
// the releases before ANALYZE persistence — must open cleanly and keep
// the lazy sampling behavior: the first predicate plan scans the heap,
// and nothing is persisted behind the planner's back.
func TestPreStatsCatalogKeepsLazyAnalyze(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 400)
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	// No ANALYZE statement ran, so the catalog must hold no statistics
	// records — byte-compatible with a pre-stats database.
	if got := db.Catalog().AllStats(); len(got) != 0 {
		t.Fatalf("catalog holds %d statistics records without ANALYZE", len(got))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	tb, err = db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	// First plan: the lazy path samples the heap (O(rows), as before).
	tb.Heap.Pool().ResetStats()
	if _, err := tb.PlanSelect(&executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText("wab001")}); err != nil {
		t.Fatal(err)
	}
	if s := tb.Heap.Pool().Stats(); s.Accesses == 0 {
		t.Fatal("lazy path should have sampled the heap on the first plan")
	}
	// Second plan: cached, no further scans.
	tb.Heap.Pool().ResetStats()
	if _, err := tb.PlanSelect(&executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText("wab002")}); err != nil {
		t.Fatal(err)
	}
	if s := tb.Heap.Pool().Stats(); s.Accesses != 0 {
		t.Fatalf("second plan rescanned the heap (%d accesses)", s.Accesses)
	}
	// Lazy statistics stay in memory only.
	if got := db.Catalog().AllStats(); len(got) != 0 {
		t.Fatalf("lazy ANALYZE persisted %d statistics records", len(got))
	}
}

func TestDropTableRemovesStats(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 100)
	if err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Catalog().GetStats(tb.OID()); !ok {
		t.Fatal("stats missing after ANALYZE")
	}
	if err := db.DropTable("words"); err != nil {
		t.Fatal(err)
	}
	if got := db.Catalog().AllStats(); len(got) != 0 {
		t.Fatalf("DROP TABLE left %d statistics records", len(got))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	if got := db.Catalog().AllStats(); len(got) != 0 {
		t.Fatalf("reopen resurrected %d statistics records", len(got))
	}
}

// Churn discounts stale statistics, then replaces them: after ANALYZE,
// inserts blend the equality estimate away from the (aging) MCV
// frequency toward the default in proportion to the churn, and once the
// churn amounts to the whole analyzed table the planner re-samples —
// in memory — instead of planning from the default.
func TestChurnDiscountsStaleStats(t *testing.T) {
	db, err := executor.Open(executor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillSkewed(t, tb, 700, 300)
	if err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	fresh := planFor(t, tb, "=", "common").Selectivity
	if fresh != 0.7 {
		t.Fatalf("fresh MCV selectivity = %g, want 0.7", fresh)
	}
	analyzed, _ := db.Catalog().GetStats(tb.OID())

	// Half the analyzed size churned: an even blend of the MCV frequency
	// and the default, from the statistics ANALYZE left.
	fillSkewed(t, tb, 0, 500)
	half := planFor(t, tb, "=", "common").Selectivity
	if want := 0.5*0.7 + 0.5*catalog.DefaultEqSel; math.Abs(half-want) > 1e-12 {
		t.Fatalf("50%%-stale selectivity = %g, want the blend %g", half, want)
	}
	if si, _ := tb.StatsInfo(); si.Source != executor.StatsFromAnalyze || si.StalePct != 50 {
		t.Fatalf("statistics at 50%% churn = %+v, want ANALYZE's, 50%% stale", si)
	}

	// The table doubled: the statistics describe none of it, so the next
	// plan samples it afresh — 700 of 2000 rows are 'common'.
	fillSkewed(t, tb, 0, 500)
	stale := planFor(t, tb, "=", "common").Selectivity
	if stale != 0.35 {
		t.Fatalf("fully-stale selectivity = %g, want the re-sampled MCV frequency 0.35", stale)
	}
	si, _ := tb.StatsInfo()
	if si.Source != executor.StatsFromSample || si.Rows != 2000 || si.Churn != 0 || si.StalePct != 0 {
		t.Fatalf("statistics after the refresh = %+v, want a fresh lazy sample of 2000 rows", si)
	}
	// In memory only: the catalog still holds what ANALYZE wrote.
	if now, _ := db.Catalog().GetStats(tb.OID()); now.Rows != analyzed.Rows || now.Rows != 1000 {
		t.Fatalf("lazy refresh changed the persisted statistics: rows %d → %d", analyzed.Rows, now.Rows)
	}
}

// A table of several wide VARCHAR columns could produce a statistics
// record larger than one catalog heap page; ANALYZE must shrink the
// record (dropping histograms, then MCVs, then min/max) rather than
// fail — and bare ANALYZE over many tables must not abort on one bad
// table.
func TestAnalyzeWideColumnsShrinksToFit(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	cols := []executor.Column{
		{Name: "a", Type: catalog.Text},
		{Name: "b", Type: catalog.Text},
		{Name: "c", Type: catalog.Text},
		{Name: "d", Type: catalog.Text},
	}
	tb, err := db.CreateTable("wide", cols)
	if err != nil {
		t.Fatal(err)
	}
	// ~250-byte values, each repeated (so they qualify as MCVs) plus
	// distinct ones (so histograms form): worst-case stats bloat.
	wide := func(tag string, i int) catalog.Datum {
		return catalog.NewText(fmt.Sprintf("%s%04d%s", tag, i, strings.Repeat("x", 240)))
	}
	for i := 0; i < 120; i++ {
		tup := catalog.Tuple{wide("a", i%20), wide("b", i%20), wide("c", i), wide("d", i)}
		if _, err := tb.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Analyze(); err != nil {
		t.Fatalf("ANALYZE of wide table failed: %v", err)
	}
	st, ok := db.Catalog().GetStats(tb.OID())
	if !ok {
		t.Fatal("no stats persisted")
	}
	// The scalars survive whatever shrinking happened.
	for i, cs := range st.Cols {
		if cs.NDistinct == 0 {
			t.Fatalf("column %d lost ndistinct", i)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// And the record round-trips through a reopen.
	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	tb, err = db.Table("wide")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Catalog().GetStats(tb.OID()); !ok {
		t.Fatal("shrunk stats lost across reopen")
	}
}

// A balanced insert/delete mix (net row count unchanged) must still
// discount statistics after a clean close and reopen: the session's
// churn counter is folded into the persisted record at Close, so the
// reopened planner does not trust a dead MCV list at full weight.
func TestBalancedChurnSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillSkewed(t, tb, 140, 60)
	if err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	// Replace every 'common' row with fresh distinct values: row count
	// is back to 200, but the analyzed distribution is dead.
	if _, err := tb.DeleteWhere(&executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText("common")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 140; i++ {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewText(fmt.Sprintf("x%04d", i)), catalog.NewInt(int64(1000 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	tb, err = db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	st, ok := db.Catalog().GetStats(tb.OID())
	if !ok {
		t.Fatal("stats record lost")
	}
	if st.Churn < 280 {
		t.Fatalf("persisted churn = %d, want >= 280 (140 deletes + 140 inserts)", st.Churn)
	}
	// 280 churned rows against 200 analyzed rows: fully stale, so the
	// dead MCV frequency (0.7) must not survive — the planner re-samples
	// the 200 distinct rows that exist now and estimates one of them
	// (of 340 heap versions: the deleted rows await VACUUM).
	plan := planFor(t, tb, "=", "common")
	if plan.Selectivity != 1.0/200 || plan.Rows > 2 {
		t.Fatalf("estimate for dead MCV after reopen: sel %g rows %d, want 1/200 and a row or two", plan.Selectivity, plan.Rows)
	}
}
