package executor_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/geom"
	"repro/internal/heap"
)

// visRow is one row of the brute-force model the transaction-visibility
// test compares every read form against.
type visRow struct {
	key catalog.Datum
	id  int64
}

// visModel is "what a reader should see": the committed rows, or the
// committed rows plus an open transaction's own writes.
type visModel []visRow

func (m visModel) idsWithKey(key catalog.Datum) []int64 {
	var ids []int64
	for _, r := range m {
		if r.key == key {
			ids = append(ids, r.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// nearest returns the k smallest distances from q, ascending.
func (m visModel) nearest(t *testing.T, q catalog.Datum, k int) []float64 {
	t.Helper()
	var ds []float64
	for _, r := range m {
		d, err := executor.Distance(r.key, q)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

func (m visModel) has(key catalog.Datum, id int64) bool {
	for _, r := range m {
		if r.key == key && r.id == id {
			return true
		}
	}
	return false
}

// checkReadForms runs every read form the executor offers through tx
// (nil: a plain autocommit reader) and compares each with the model.
func checkReadForms(t *testing.T, who string, tb *executor.Table, tx *executor.Txn, m visModel,
	eqOp string, probes []catalog.Datum, q catalog.Datum, k int, nnKind executor.PlanKind) {
	t.Helper()
	collect := func(ids *[]int64) func(executor.Row) bool {
		return func(r executor.Row) bool {
			*ids = append(*ids, r.Tuple[1].I)
			return true
		}
	}
	sorted := func(ids []int64) string {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return fmt.Sprint(ids)
	}
	for _, key := range probes {
		pred := &executor.Pred{Column: 0, Op: eqOp, Arg: key}
		want := fmt.Sprint(m.idsWithKey(key))
		var got []int64
		if _, err := tb.SelectTx(tx, pred, collect(&got)); err != nil {
			t.Fatal(err)
		}
		if g := sorted(got); g != want {
			t.Errorf("%s: WHERE %s %v: ids %s, model %s", who, eqOp, key, g, want)
		}
		got = nil
		_, rs, err := tb.SelectAnalyzed(tx, pred, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		if g := sorted(got); g != want || rs.Rows != int64(len(got)) {
			t.Errorf("%s: EXPLAIN ANALYZE WHERE %s %v: ids %s rows=%d, model %s", who, eqOp, key, g, rs.Rows, want)
		}
	}

	wantD := m.nearest(t, q, k)
	checkNN := func(form string, res []executor.NNResult, plan *executor.Plan) {
		t.Helper()
		if plan.Kind != nnKind {
			t.Fatalf("%s: %s ran as %v, want %v", who, form, plan.Kind, nnKind)
		}
		var gotD []float64
		for _, r := range res {
			gotD = append(gotD, r.Distance)
			if !m.has(r.Tuple[0], r.Tuple[1].I) {
				t.Errorf("%s: %s returned (%v, %d), which the model does not hold", who, form, r.Tuple[0], r.Tuple[1].I)
			}
		}
		if fmt.Sprint(gotD) != fmt.Sprint(wantD) {
			t.Errorf("%s: %s distances %v, model %v", who, form, gotD, wantD)
		}
	}
	res, plan, err := tb.SelectNNTx(tx, tb.Columns[0].Name, q, k)
	if err != nil {
		t.Fatal(err)
	}
	checkNN("ORDER BY <->", res, plan)
	res, plan, rs, err := tb.SelectNNAnalyzed(tx, tb.Columns[0].Name, q, k)
	if err != nil {
		t.Fatal(err)
	}
	checkNN("EXPLAIN ANALYZE ORDER BY <->", res, plan)
	if rs.Rows != int64(len(wantD)) {
		t.Errorf("%s: EXPLAIN ANALYZE ORDER BY <-> rows=%d, model %d", who, rs.Rows, len(wantD))
	}
}

// TestTxnVisibilityReadForms: inside an open transaction, after an
// INSERT, an UPDATE and a DELETE that each change the answer, every read
// form — WHERE, ORDER BY <-> through an index and through the
// scan-and-sort fallback, EXPLAIN ANALYZE of both, and the RID fetch —
// agrees with a brute-force model of "committed + own writes"; a reader
// outside the transaction sees none of it; after ROLLBACK nobody does.
func TestTxnVisibilityReadForms(t *testing.T) {
	point := func(x, y float64) catalog.Datum { return catalog.NewPoint(geom.Point{X: x, Y: y}) }
	cases := []struct {
		name    string
		typ     catalog.Type
		opclass string // "" for no index
		eqOp    string
		seed    func(i int) catalog.Datum
		query   catalog.Datum // the NN query; also the key the transaction inserts
		moved   catalog.Datum // where the UPDATE moves the nearest committed row
		nnKind  executor.PlanKind
	}{
		{"kdtree", catalog.Point, "spgist_kdtree", "@",
			func(i int) catalog.Datum { return point(float64(1+i%5), float64(1+i/5)) },
			point(0, 0), point(90, 90), executor.IndexNNScan},
		{"points-fallback", catalog.Point, "", "@",
			func(i int) catalog.Datum { return point(float64(1+i%5), float64(1+i/5)) },
			point(0, 0), point(90, 90), executor.SeqScan},
		{"trie", catalog.Text, "spgist_trie", "=",
			func(i int) catalog.Datum { return catalog.NewText(fmt.Sprintf("w%c%c", 'a'+i%5, 'b'+i/5)) },
			catalog.NewText("waa"), catalog.NewText("zzzzzz"), executor.IndexNNScan},
		{"text-fallback", catalog.Text, "", "=",
			func(i int) catalog.Datum { return catalog.NewText(fmt.Sprintf("w%c%c", 'a'+i%5, 'b'+i/5)) },
			catalog.NewText("waa"), catalog.NewText("zzzzzz"), executor.SeqScan},
	}
	const k = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := executor.OpenMemory()
			defer db.Close()
			tb, err := db.CreateTable("r", []executor.Column{{Name: "k", Type: tc.typ}, {Name: "id", Type: catalog.Int}})
			if err != nil {
				t.Fatal(err)
			}
			if tc.opclass != "" {
				if _, err := db.CreateIndex("r_ix", "r", "k", "spgist", tc.opclass); err != nil {
					t.Fatal(err)
				}
			}
			var committed visModel
			for i := 0; i < 25; i++ {
				row := visRow{tc.seed(i), int64(i)}
				committed = append(committed, row)
				if _, err := tb.Insert(catalog.Tuple{row.key, catalog.NewInt(row.id)}); err != nil {
					t.Fatal(err)
				}
			}
			// seed(0) is a committed row nearest the query and seed(1) one
			// of the next nearest: the transaction moves the first away and
			// deletes the second, after putting a row of its own on the
			// query itself.
			first, second := tc.seed(0), tc.seed(1)
			probes := []catalog.Datum{tc.query, first, second, tc.moved, tc.seed(12)}
			var deletedRID heap.RID
			if _, err := tb.Select(&executor.Pred{Column: 0, Op: tc.eqOp, Arg: second}, func(r executor.Row) bool {
				deletedRID = r.RID
				return false
			}); err != nil {
				t.Fatal(err)
			}

			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			own := append(visModel(nil), committed...)
			check := func(step string) {
				t.Helper()
				checkReadForms(t, step+", in txn", tb, tx, own, tc.eqOp, probes, tc.query, k, tc.nnKind)
				checkReadForms(t, step+", other session", tb, nil, committed, tc.eqOp, probes, tc.query, k, tc.nnKind)
			}

			insertedRID, err := tb.InsertTx(tx, catalog.Tuple{tc.query, catalog.NewInt(1000)})
			if err != nil {
				t.Fatal(err)
			}
			own = append(own, visRow{tc.query, 1000})
			check("after INSERT")
			if tup, err := tb.GetTx(tx, insertedRID); err != nil || tup == nil {
				t.Errorf("GetTx of the transaction's own insert: %v, %v", tup, err)
			}
			if tup, err := tb.Get(insertedRID); err != nil || tup != nil {
				t.Errorf("Get of another transaction's uncommitted insert: %v, %v", tup, err)
			}

			n, _, err := tb.UpdateWhereTx(tx, &executor.Pred{Column: 0, Op: tc.eqOp, Arg: first},
				[]executor.ColUpdate{{Column: 0, Value: tc.moved}})
			if err != nil || n != 1 {
				t.Fatalf("UPDATE: %d rows, %v", n, err)
			}
			own[0].key = tc.moved
			check("after UPDATE")

			n, _, err = tb.DeleteWhereTx(tx, &executor.Pred{Column: 0, Op: tc.eqOp, Arg: second})
			if err != nil || n != 1 {
				t.Fatalf("DELETE: %d rows, %v", n, err)
			}
			own = append(own[:1:1], own[2:]...)
			check("after DELETE")
			if tup, err := tb.GetTx(tx, deletedRID); err != nil || tup != nil {
				t.Errorf("GetTx of a row the transaction deleted: %v, %v", tup, err)
			}
			if tup, err := tb.Get(deletedRID); err != nil || tup == nil {
				t.Errorf("Get of a row another transaction deleted but did not commit: %v, %v", tup, err)
			}

			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			checkReadForms(t, "after ROLLBACK", tb, nil, committed, tc.eqOp, probes, tc.query, k, tc.nnKind)
			if tup, err := tb.Get(insertedRID); err != nil || tup != nil {
				t.Errorf("Get of a rolled-back insert: %v, %v", tup, err)
			}
			if tup, err := tb.Get(deletedRID); err != nil || tup == nil {
				t.Errorf("Get of a row whose delete rolled back: %v, %v", tup, err)
			}
		})
	}
}
