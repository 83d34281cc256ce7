package executor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
)

// TestNNFallbackSortCost pins the PlanNN fallback cost model: the full
// sort by distance is priced at n·log₂(n) comparisons, not the linear
// n the model used to charge (which made large-table NN fallbacks
// absurdly cheap).
func TestNNFallbackSortCost(t *testing.T) {
	// Formula pins: the superlinear factor is exactly log₂(n), so the
	// new/old cost ratio crosses 10× at n=1024 — the crossover where a
	// large table's sort work becomes an order of magnitude dearer than
	// the old estimate admitted.
	if got := nnSortCost(1024) / (1024 * cpuOperCost); got != 10 {
		t.Fatalf("sort-cost ratio at n=1024 = %g, want exactly 10 (log2)", got)
	}
	if got := nnSortCost(512) / (512 * cpuOperCost); got >= 10 {
		t.Fatalf("sort-cost ratio at n=512 = %g, want < 10", got)
	}
	// Degenerate sizes stay linear (log2 of <2 rows would go negative).
	if got := nnSortCost(1); got != cpuOperCost {
		t.Fatalf("nnSortCost(1) = %g", got)
	}

	// Integration pin: a real fallback plan's total is the seqscan plus
	// exactly the n·log n sort term.
	db := memDB(t)
	tb, err := db.CreateTable("pts", []Column{{"p", catalog.Point}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range datagen.Points(4096, 11, geom.MakeBox(0, 0, 100, 100)) {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewPoint(p)}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := tb.PlanNN(0, catalog.NewPoint(geom.Point{X: 50, Y: 50}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != SeqScan {
		t.Fatalf("fallback plan kind = %v", plan.Kind)
	}
	want := tb.seqScanCost() + 4096*math.Log2(4096)*cpuOperCost
	if math.Abs(plan.TotalCost-want) > 1e-9 {
		t.Fatalf("fallback cost = %g, want %g", plan.TotalCost, want)
	}
	// And the sort term dominates the old linear estimate twelvefold.
	if old := tb.seqScanCost() + 4096*cpuOperCost; plan.TotalCost <= old {
		t.Fatalf("n·log n cost %g not above old linear estimate %g", plan.TotalCost, old)
	}
}

// TestPlanFlipAtExpectedSelectivity pins where the seqscan↔indexscan
// flip lands with persisted-quality statistics: an equality against the
// 70%-frequency MCV must seqscan, an equality against a rare value must
// use the index, and the estimated selectivities are the exact sample
// frequencies (the sample covers the whole table here).
func TestPlanFlipAtExpectedSelectivity(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("words", []Column{{"name", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1400; i++ {
		tb.Insert(catalog.Tuple{catalog.NewText("common"), catalog.NewInt(int64(i))})
	}
	for i := 0; i < 600; i++ {
		tb.Insert(catalog.Tuple{catalog.NewText("w" + string(rune('a'+i%26)) + string(rune('a'+i/26))), catalog.NewInt(int64(i))})
	}
	if _, err := db.CreateIndex("w_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}

	common, err := tb.PlanSelect(&Pred{Column: 0, Op: "=", Arg: catalog.NewText("common")})
	if err != nil {
		t.Fatal(err)
	}
	if common.Kind != SeqScan || common.Selectivity != 0.7 {
		t.Fatalf("common plan = %v sel=%g, want SeqScan at exactly 0.7", common.Kind, common.Selectivity)
	}
	rare, err := tb.PlanSelect(&Pred{Column: 0, Op: "=", Arg: catalog.NewText("waa")})
	if err != nil {
		t.Fatal(err)
	}
	if rare.Kind != IndexScan {
		t.Fatalf("rare plan = %v, want IndexScan", rare.Kind)
	}
	if rare.Selectivity >= common.Selectivity/10 {
		t.Fatalf("rare selectivity %g not well below common %g", rare.Selectivity, common.Selectivity)
	}
}

// TestIneqSelUsesHistogram pins the histogram interpolation: with a
// uniform integer column 0..999, `id < 250` must estimate near 25%, not
// the 33% inequality default.
func TestIneqSelUsesHistogram(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("nums", []Column{{"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tb.Insert(catalog.Tuple{catalog.NewInt(int64(i))})
	}
	if err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	plan, err := tb.PlanSelect(&Pred{Column: 0, Op: "<", Arg: catalog.NewInt(250)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Selectivity < 0.2 || plan.Selectivity > 0.3 {
		t.Fatalf("id < 250 selectivity = %g, want ≈0.25 from the histogram", plan.Selectivity)
	}
	gt, err := tb.PlanSelect(&Pred{Column: 0, Op: ">", Arg: catalog.NewInt(250)})
	if err != nil {
		t.Fatal(err)
	}
	if gt.Selectivity < 0.7 || gt.Selectivity > 0.8 {
		t.Fatalf("id > 250 selectivity = %g, want ≈0.75", gt.Selectivity)
	}
}

// TestPlanStringMatchesFmt pins the plan line's text: Plan.String is
// built with appends (it is rendered on every SELECT), and must stay
// byte-identical to the fmt rendering it replaced — clients and the
// benchmark harness read it.
func TestPlanStringMatchesFmt(t *testing.T) {
	viaFmt := func(p *Plan) string {
		s := fmt.Sprintf("%s on %s", p.Kind, p.Table.Name)
		if p.Index != nil {
			s += fmt.Sprintf(" using %s (%s)", p.Index.Name, p.Index.OpClass.Name)
		}
		if p.Pred != nil {
			s += fmt.Sprintf("  filter: %s %s %s",
				p.Table.Columns[p.Pred.Column].Name, p.Pred.Op, p.Pred.Arg)
		}
		s += fmt.Sprintf("  (cost=%.2f..%.2f rows=%d)", p.StartupCost, p.TotalCost, p.Rows)
		return s
	}
	tb := &Table{Name: "t", Columns: []Column{
		{"name", catalog.Text}, {"id", catalog.Int}, {"f", catalog.Float},
		{"p", catalog.Point}, {"s", catalog.Segment},
	}}
	oc, _ := catalog.LookupOpClass("spgist_trie")
	ix := &IndexInfo{Name: "t_trie", OpClass: oc}
	args := []catalog.Datum{
		catalog.NewText("it's a\ttab"), catalog.NewInt(-42), catalog.NewFloat(1e21),
		catalog.NewFloat(0.1), catalog.NewPoint(geom.Point{X: 1.5, Y: -2}),
		catalog.NewBox(geom.MakeBox(0, 0, 5, 5.25)),
		catalog.NewSegment(geom.Segment{A: geom.Point{X: 1, Y: 2}, B: geom.Point{X: 3, Y: 4}}),
	}
	costs := []float64{0, 0.004, 0.005, 1, 12.345, 99.995, 123456789.125, 1e21, math.Inf(1)}
	for i, arg := range args {
		for j, c := range costs {
			p := &Plan{Kind: PlanKind(i % 3), Table: tb, StartupCost: c, TotalCost: costs[(j+3)%len(costs)], Rows: int64(i*1000 + j)}
			if i%2 == 0 {
				p.Index = ix
			}
			if j%4 != 3 {
				p.Pred = &Pred{Column: i % len(tb.Columns), Op: "#=", Arg: arg}
			}
			if got, want := p.String(), viaFmt(p); got != want {
				t.Errorf("Plan.String() = %q, fmt renders %q", got, want)
			}
		}
	}
}

// TestPrefixEstimateInsideVarcharBucket: a prefix is priced as the range
// [p, successor(p)), each end placed inside its histogram bucket. Placed at
// mid-bucket, a range that crosses a bound was priced at a whole bucket —
// thousands of rows of a 40 000-name table for a handful, and a Seq Scan —
// and one inside a bucket at nothing. Interpolated by the strings' bytes,
// as PostgreSQL's convert_string_to_scalar does, in the bounds' base so
// that "1009" and its successor "100:" read alike, every 4-digit prefix of
// the benchmark-shaped table (unique 8-digit names), the ones that
// straddle a bound included, must estimate within 10× of its true count
// and plan an Index Scan.
func TestPrefixEstimateInsideVarcharBucket(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("words", []Column{{"name", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("words_name", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	seen, matches := map[string]bool{}, map[string]int{}
	var batch []catalog.Tuple
	for len(seen) < 40000 {
		name := fmt.Sprintf("%08d", r.Intn(100000000))
		if seen[name] {
			continue
		}
		seen[name] = true
		matches[name[:4]]++
		if batch = append(batch, catalog.Tuple{catalog.NewText(name), catalog.NewInt(int64(len(seen)))}); len(batch) == 500 {
			if _, err := tb.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := tb.Analyze(); err != nil {
		t.Fatal(err)
	}
	if hist := tb.colStats[0].Histogram; len(hist) != catalog.HistogramBuckets+1 {
		t.Fatalf("histogram has %d bounds, want %d", len(hist), catalog.HistogramBuckets+1)
	}
	for i := 0; i < 10000; i++ {
		p := fmt.Sprintf("%04d", i)
		plan, err := tb.PlanSelect(&Pred{Column: 0, Op: "#=", Arg: catalog.NewText(p)})
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(max(matches[p], 1))
		if est := float64(plan.Rows); est > 10*truth || 10*est < truth {
			t.Errorf("prefix %q: estimated %d rows, %d match", p, plan.Rows, matches[p])
		}
		if plan.Kind != IndexScan {
			t.Errorf("prefix %q: %v, want an Index Scan", p, plan)
		}
	}
}

// TestSuffixIndexDrivesNoKNN: the suffix tree ranks suffixes, not rows,
// so with only a suffix index on the column `ORDER BY name <-> q LIMIT k`
// must not plan an Index NN Scan through it — the rows come back at
// their own distances, in brute-force order.
func TestSuffixIndexDrivesNoKNN(t *testing.T) {
	db := memDB(t)
	tb, err := db.CreateTable("w", []Column{{"name", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	var keys []catalog.Datum
	for i := 0; i < 500; i++ {
		b := make([]byte, 6)
		for j := range b {
			b[j] = "abcd"[r.Intn(4)]
		}
		keys = append(keys, catalog.NewText(string(b)))
		if _, err := tb.Insert(catalog.Tuple{keys[i], catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex("w_sfx", "w", "name", "spgist", "spgist_suffix"); err != nil {
		t.Fatal(err)
	}
	arg := catalog.NewText("abcd")
	res, plan, err := tb.SelectNN("name", arg, 10)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]float64, len(keys))
	for i, k := range keys {
		if all[i], err = Distance(k, arg); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(all)
	if len(res) != 10 {
		t.Fatalf("kNN returned %d rows, want 10", len(res))
	}
	for i, nn := range res {
		own, _ := Distance(nn.Tuple[0], arg)
		if nn.Distance != all[i] || own != nn.Distance {
			t.Fatalf("#%d is %s at reported distance %g (really %g), brute force has %g",
				i, nn.Tuple[0], nn.Distance, own, all[i])
		}
	}
	if plan.Kind == IndexNNScan {
		t.Fatalf("kNN planned %s through the suffix index", plan)
	}
}
