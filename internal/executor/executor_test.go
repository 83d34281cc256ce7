package executor

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/wal"
)

func memDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func wordTable(t testing.TB, db *DB, n int, seed int64) (*Table, []string) {
	t.Helper()
	tb, err := db.CreateTable("words", []Column{{"name", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	words := datagen.Words(n, seed)
	for i, w := range words {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewText(w), catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tb, words
}

func countSelect(t testing.TB, tb *Table, pred *Pred) (int, *Plan) {
	t.Helper()
	n := 0
	plan, err := tb.Select(pred, func(Row) bool { n++; return true })
	if err != nil {
		t.Fatal(err)
	}
	return n, plan
}

func TestSeqScanWithoutIndex(t *testing.T) {
	db := memDB(t)
	tb, words := wordTable(t, db, 500, 1)
	n, plan := countSelect(t, tb, &Pred{Column: 0, Op: "=", Arg: catalog.NewText(words[7])})
	if plan.Kind != SeqScan {
		t.Fatalf("plan = %v, want SeqScan", plan.Kind)
	}
	want := 0
	for _, w := range words {
		if w == words[7] {
			want++
		}
	}
	if n != want {
		t.Fatalf("got %d rows, want %d", n, want)
	}
}

func TestIndexScanChosenAndCorrect(t *testing.T) {
	db := memDB(t)
	tb, words := wordTable(t, db, 3000, 2)
	if _, err := db.CreateIndex("trie_idx", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	// A 2-character prefix selects ~1/26² of the rows. (A 1-character
	// prefix selects ~4% — with the histogram-backed LikeSel estimate
	// that is correctly priced at the seqscan break-even, so it is no
	// longer a reliable index-scan probe.)
	prefix := ""
	for _, w := range words {
		if len(w) >= 2 {
			prefix = w[:2]
			break
		}
	}
	for _, probe := range []struct{ op, arg string }{
		{"=", words[0]},
		{"#=", prefix},
		{"?=", "?" + words[2][1:]},
	} {
		pred := &Pred{Column: 0, Op: probe.op, Arg: catalog.NewText(probe.arg)}
		n, plan := countSelect(t, tb, pred)
		if plan.Kind != IndexScan {
			t.Fatalf("%s %q: plan = %v, want IndexScan", probe.op, probe.arg, plan.Kind)
		}
		// Compare with a forced sequential scan.
		op, _ := catalog.LookupOperator(probe.op, catalog.Text)
		want := 0
		for _, w := range words {
			if op.Proc(catalog.NewText(w), catalog.NewText(probe.arg)) {
				want++
			}
		}
		if n != want {
			t.Fatalf("%s %q: got %d rows, want %d", probe.op, probe.arg, n, want)
		}
	}
}

// Index and sequential scans must return identical row sets for every
// operator — the executor-level equivalent of the opclass brute-force
// tests.
func TestIndexVsSeqScanAgree(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("pts", []Column{{"p", catalog.Point}})
	if err != nil {
		t.Fatal(err)
	}
	pts := datagen.Points(2000, 3, geom.MakeBox(0, 0, 100, 100))
	for _, p := range pts {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewPoint(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex("kd_idx", "pts", "p", "spgist", "spgist_kdtree"); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		box := geom.MakeBox(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		pred := &Pred{Column: 0, Op: "^", Arg: catalog.NewBox(box)}
		nIdx, plan := countSelect(t, tb, pred)
		if plan.Kind != IndexScan {
			t.Fatalf("expected IndexScan, got %v", plan.Kind)
		}
		want := 0
		for _, p := range pts {
			if box.Contains(p) {
				want++
			}
		}
		if nIdx != want {
			t.Fatalf("box %v: index scan %d, brute force %d", box, nIdx, want)
		}
	}
}

func TestRtreeSegmentLossyRecheck(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("segs", []Column{{"s", catalog.Segment}})
	if err != nil {
		t.Fatal(err)
	}
	segs := datagen.Segments(1500, 5, geom.MakeBox(0, 0, 100, 100), 10)
	for _, s := range segs {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewSegment(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex("rt_idx", "segs", "s", "rtree", ""); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 30; i++ {
		w := geom.MakeBox(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		pred := &Pred{Column: 0, Op: "&&", Arg: catalog.NewBox(w)}
		n, plan := countSelect(t, tb, pred)
		if plan.Kind != IndexScan {
			t.Fatalf("expected IndexScan, got %v", plan.Kind)
		}
		want := 0
		for _, s := range segs {
			if s.IntersectsBox(w) {
				want++
			}
		}
		// The R-tree over MBRs is lossy; the executor's recheck must
		// remove all false positives.
		if n != want {
			t.Fatalf("window %v: got %d, want %d (recheck broken)", w, n, want)
		}
	}
}

func TestSelectNNWithIndexAndFallback(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("pts", []Column{{"p", catalog.Point}})
	if err != nil {
		t.Fatal(err)
	}
	pts := datagen.Points(1000, 7, geom.MakeBox(0, 0, 100, 100))
	for _, p := range pts {
		tb.Insert(catalog.Tuple{catalog.NewPoint(p)})
	}
	q := geom.Point{X: 50, Y: 50}

	// Without an index: fallback (scan + sort).
	res1, plan1, err := tb.SelectNN("p", catalog.NewPoint(q), 10)
	if err != nil {
		t.Fatal(err)
	}
	if plan1.Kind != SeqScan {
		t.Fatalf("without index: plan %v", plan1.Kind)
	}
	// With an index: incremental NN.
	if _, err := db.CreateIndex("kd_idx", "pts", "p", "spgist", ""); err != nil {
		t.Fatal(err)
	}
	res2, plan2, err := tb.SelectNN("p", catalog.NewPoint(q), 10)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Kind != IndexNNScan {
		t.Fatalf("with index: plan %v", plan2.Kind)
	}
	if len(res1) != 10 || len(res2) != 10 {
		t.Fatalf("result sizes: %d, %d", len(res1), len(res2))
	}
	for i := range res1 {
		if res1[i].Distance != res2[i].Distance {
			t.Fatalf("NN #%d: fallback %g, index %g", i, res1[i].Distance, res2[i].Distance)
		}
	}
}

// TestSelectNNCountsTuplesRead: an ORDER BY <-> statement counts every
// heap version it fetches — the dead ones the index still points at
// included — once, on the fallback path and on the index path alike.
func TestSelectNNCountsTuplesRead(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("pts", []Column{{"p", catalog.Point}})
	if err != nil {
		t.Fatal(err)
	}
	// A 10×10 lattice; the ten points nearest the query die, and stay in
	// the heap (and, once it is built, in the index) as dead versions.
	q := geom.Point{X: 4.4, Y: 4.6}
	var pts []geom.Point
	for i := 0; i < 100; i++ {
		p := geom.Point{X: float64(i % 10), Y: float64(i / 10)}
		pts = append(pts, p)
		if _, err := tb.Insert(catalog.Tuple{catalog.NewPoint(p)}); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return q.Dist(pts[i]) < q.Dist(pts[j]) })
	for _, p := range pts[:10] {
		if n, err := tb.DeleteWhere(&Pred{Column: 0, Op: "@", Arg: catalog.NewPoint(p)}); err != nil || n != 1 {
			t.Fatalf("delete %v: %d rows, %v", p, n, err)
		}
	}
	nn5 := func(wantKind PlanKind) (read, returned int64) {
		t.Helper()
		r0, o0 := db.met.tuplesRead.Load(), db.met.rowsReturned.Load()
		res, plan, err := tb.SelectNN("p", catalog.NewPoint(q), 5)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != wantKind || len(res) != 5 || res[0].Distance != q.Dist(pts[10]) {
			t.Fatalf("plan %v returned %d rows, nearest at %g; want %v, 5 rows, nearest at %g",
				plan.Kind, len(res), res[0].Distance, wantKind, q.Dist(pts[10]))
		}
		return db.met.tuplesRead.Load() - r0, db.met.rowsReturned.Load() - o0
	}
	if read, returned := nn5(SeqScan); read != 100 || returned != 5 {
		t.Fatalf("fallback: counted %d tuples read and %d rows returned, want 100 versions scanned and 5", read, returned)
	}
	if _, err := db.CreateIndex("kd_idx", "pts", "p", "spgist", ""); err != nil {
		t.Fatal(err)
	}
	// The cursor surfaces the ten dead neighbors first, each fetched and
	// skipped, then the five results.
	if read, returned := nn5(IndexNNScan); read != 15 || returned != 5 {
		t.Fatalf("index NN: counted %d tuples read and %d rows returned, want 15 (10 dead + 5 live) and 5", read, returned)
	}
}

func TestDeleteWhereMaintainsIndexes(t *testing.T) {
	db := memDB(t)
	tb, words := wordTable(t, db, 1000, 8)
	if _, err := db.CreateIndex("trie_idx", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	target := words[3]
	wantGone := 0
	for _, w := range words {
		if w == target {
			wantGone++
		}
	}
	n, err := tb.DeleteWhere(&Pred{Column: 0, Op: "=", Arg: catalog.NewText(target)})
	if err != nil {
		t.Fatal(err)
	}
	if n != wantGone {
		t.Fatalf("deleted %d, want %d", n, wantGone)
	}
	got, _ := countSelect(t, tb, &Pred{Column: 0, Op: "=", Arg: catalog.NewText(target)})
	if got != 0 {
		t.Fatalf("%d rows survive delete", got)
	}
	// MVCC delete: the raw index entries stay (the heap visibility
	// recheck hides them) until VACUUM reclaims the dead versions along
	// with their index entries.
	rawCount := func() int {
		cnt := 0
		if err := tb.Indexes[0].Idx.Scan("=", catalog.NewText(target), func(heap.RID) bool { cnt++; return true }); err != nil {
			t.Fatal(err)
		}
		return cnt
	}
	if cnt := rawCount(); cnt != wantGone {
		t.Fatalf("index holds %d raw entries for deleted key before vacuum, want %d", cnt, wantGone)
	}
	reclaimed, err := db.Vacuum("words")
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != wantGone {
		t.Fatalf("vacuum reclaimed %d versions, want %d", reclaimed, wantGone)
	}
	if cnt := rawCount(); cnt != 0 {
		t.Fatalf("index still holds %d entries for deleted key after vacuum", cnt)
	}
	if got, _ := countSelect(t, tb, nil); got != len(words)-wantGone {
		t.Fatalf("%d rows after vacuum, want %d", got, len(words)-wantGone)
	}
}

func TestCreateIndexBackfillsExistingRows(t *testing.T) {
	db := memDB(t)
	tb, words := wordTable(t, db, 800, 9)
	// Index created after the inserts must still see them all.
	if _, err := db.CreateIndex("trie_idx", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	n, plan := countSelect(t, tb, &Pred{Column: 0, Op: "=", Arg: catalog.NewText(words[0])})
	if plan.Kind != IndexScan {
		t.Fatalf("plan %v", plan.Kind)
	}
	want := 0
	for _, w := range words {
		if w == words[0] {
			want++
		}
	}
	if n != want {
		t.Fatalf("got %d, want %d", n, want)
	}
}

func TestPlannerPrefersSeqScanForTinyTables(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("tiny", []Column{{"name", catalog.Text}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Insert(catalog.Tuple{catalog.NewText("a")})
	if _, err := db.CreateIndex("tiny_idx", "tiny", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	_, plan := countSelect(t, tb, &Pred{Column: 0, Op: "=", Arg: catalog.NewText("a")})
	if plan.Kind != SeqScan {
		t.Fatalf("tiny table should seqscan, got %v", plan.Kind)
	}
}

func TestSchemaValidation(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("t", []Column{{"name", catalog.Text}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(catalog.Tuple{catalog.NewInt(5)}); err == nil {
		t.Fatal("type mismatch not rejected")
	}
	if _, err := tb.Insert(catalog.Tuple{}); err == nil {
		t.Fatal("arity mismatch not rejected")
	}
	if _, err := db.CreateTable("t", nil); err == nil {
		t.Fatal("duplicate table not rejected")
	}
	if _, err := db.CreateIndex("i", "t", "nope", "spgist", ""); err == nil {
		t.Fatal("unknown column not rejected")
	}
	if _, err := db.CreateIndex("i", "t", "name", "nope", ""); err == nil {
		t.Fatal("unknown AM not rejected")
	}
	if _, err := db.CreateIndex("i", "t", "name", "spgist", "spgist_kdtree"); err == nil {
		t.Fatal("type-mismatched opclass not rejected")
	}
}

func TestOnDiskPersistenceOfTableAndIndex(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, PageSize: 1024, PoolPages: 64, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("w", []Column{{"name", catalog.Text}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		tb.Insert(catalog.Tuple{catalog.NewText(fmt.Sprintf("word%03d", i))})
	}
	if _, err := db.CreateIndex("w_idx", "w", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The persistent catalog rediscovers the table and its index; no
	// re-declaration.
	db2, err := Open(Options{Dir: dir, PageSize: 1024, PoolPages: 64, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tb2, err := db2.Table("w")
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Heap.Count() != 300 {
		t.Fatalf("rows after reopen: %d", tb2.Heap.Count())
	}
	if len(tb2.Indexes) != 1 || tb2.Indexes[0].Name != "w_idx" || tb2.Indexes[0].OpClass.Name != "spgist_trie" {
		t.Fatalf("index not rediscovered: %+v", tb2.Indexes)
	}
	n, plan := countSelect(t, tb2, &Pred{Column: 0, Op: "=", Arg: catalog.NewText("word042")})
	if plan.Kind != IndexScan {
		t.Fatalf("plan after reopen: %v", plan.Kind)
	}
	if n != 1 {
		t.Fatalf("found %d rows after reopen", n)
	}
}
