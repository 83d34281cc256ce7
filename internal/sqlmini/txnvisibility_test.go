package sqlmini

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
)

// sqlRow is one row of the brute-force model: the key as its SQL
// literal text, and the id.
type sqlRow struct {
	key string
	id  int64
}

// checkSQLReadForms runs every executing read statement the SQL layer
// has through session s and compares each with the model of what s
// should see.
func checkSQLReadForms(t *testing.T, who string, s *Session, m []sqlRow,
	typ catalog.Type, eqOp string, probes []string, q string, nnPlan string) {
	t.Helper()
	for _, key := range probes {
		var want []int64
		for _, r := range m {
			if r.key == key {
				want = append(want, r.id)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sel := fmt.Sprintf("SELECT * FROM r WHERE k %s '%s'", eqOp, key)
		var got []int64
		for _, row := range mustExec(t, s, sel).Rows {
			got = append(got, row[1].I)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: %s: ids %v, model %v", who, sel, got, want)
		}
		line := mustExec(t, s, "EXPLAIN ANALYZE "+sel).Rows[0][0].S
		if !strings.Contains(line, fmt.Sprintf(" ms rows=%d scanned=", len(want))) {
			t.Errorf("%s: EXPLAIN ANALYZE %s: %q, model has %d rows", who, sel, line, len(want))
		}
	}

	qd, err := catalog.ParseLiteral(typ, q)
	if err != nil {
		t.Fatal(err)
	}
	var wantD []float64
	for _, r := range m {
		kd, err := catalog.ParseLiteral(typ, r.key)
		if err != nil {
			t.Fatal(err)
		}
		d, err := executor.Distance(kd, qd)
		if err != nil {
			t.Fatal(err)
		}
		wantD = append(wantD, d)
	}
	sort.Float64s(wantD)
	nn := fmt.Sprintf("SELECT * FROM r ORDER BY k <-> '%s'", q)
	res := mustExec(t, s, nn+" LIMIT 3")
	if !strings.Contains(res.Plan, nnPlan) {
		t.Fatalf("%s: %s ran as %q, want %s", who, nn, res.Plan, nnPlan)
	}
	if fmt.Sprint(res.Distances) != fmt.Sprint(wantD[:3]) {
		t.Errorf("%s: %s LIMIT 3: distances %v, model %v", who, nn, res.Distances, wantD[:3])
	}
	// Without a LIMIT the analysed statement returns every visible row,
	// so its row count is the size of the model.
	line := mustExec(t, s, "EXPLAIN ANALYZE "+nn).Rows[0][0].S
	if !strings.Contains(line, nnPlan) || !strings.Contains(line, fmt.Sprintf(" ms rows=%d scanned=", len(m))) {
		t.Errorf("%s: EXPLAIN ANALYZE %s: %q, model has %d rows through %s", who, nn, line, len(m), nnPlan)
	}
}

// TestTxnVisibilityReadFormsSQL is the SQL-layer half of the executor's
// TestTxnVisibilityReadForms: inside BEGIN, after an INSERT, an UPDATE
// and a DELETE that each change the answer, WHERE, ORDER BY <-> (index
// and scan-and-sort fallback, kd-tree and trie) and EXPLAIN ANALYZE of
// both agree with "committed + own writes"; a second session sees none
// of it, and after ROLLBACK the first sees none of it either.
func TestTxnVisibilityReadFormsSQL(t *testing.T) {
	pointSeed := func(i int) string { return fmt.Sprintf("(%d,%d)", 1+i%5, 1+i/5) }
	textSeed := func(i int) string { return fmt.Sprintf("w%c%c", 'a'+i%5, 'b'+i/5) }
	cases := []struct {
		name, colType, index, eqOp string
		typ                        catalog.Type
		seed                       func(int) string
		query, moved, nnPlan       string
	}{
		{"kdtree", "POINT", "CREATE INDEX r_ix ON r USING spgist (k)", "@",
			catalog.Point, pointSeed, "(0,0)", "(90,90)", "Index NN Scan"},
		{"points-fallback", "POINT", "", "@",
			catalog.Point, pointSeed, "(0,0)", "(90,90)", "Seq Scan"},
		{"trie", "VARCHAR", "CREATE INDEX r_ix ON r USING spgist (k spgist_trie)", "=",
			catalog.Text, textSeed, "waa", "zzzzzz", "Index NN Scan"},
		{"text-fallback", "VARCHAR", "", "=",
			catalog.Text, textSeed, "waa", "zzzzzz", "Seq Scan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newSession(t)
			b := NewSession(a.DB)
			mustExec(t, a, fmt.Sprintf("CREATE TABLE r (k %s, id INT)", tc.colType))
			if tc.index != "" {
				mustExec(t, a, tc.index)
			}
			var committed []sqlRow
			for i := 0; i < 25; i++ {
				committed = append(committed, sqlRow{tc.seed(i), int64(i)})
				mustExec(t, a, fmt.Sprintf("INSERT INTO r VALUES ('%s', %d)", tc.seed(i), i))
			}
			first, second := tc.seed(0), tc.seed(1)
			probes := []string{tc.query, first, second, tc.moved, tc.seed(12)}
			own := append([]sqlRow(nil), committed...)
			check := func(step string) {
				t.Helper()
				checkSQLReadForms(t, step+", in txn", a, own, tc.typ, tc.eqOp, probes, tc.query, tc.nnPlan)
				checkSQLReadForms(t, step+", other session", b, committed, tc.typ, tc.eqOp, probes, tc.query, tc.nnPlan)
			}

			mustExec(t, a, "BEGIN")
			mustExec(t, a, fmt.Sprintf("INSERT INTO r VALUES ('%s', 1000)", tc.query))
			own = append(own, sqlRow{tc.query, 1000})
			check("after INSERT")

			mustExec(t, a, fmt.Sprintf("UPDATE r SET k = '%s' WHERE k %s '%s'", tc.moved, tc.eqOp, first))
			own[0].key = tc.moved
			check("after UPDATE")

			mustExec(t, a, fmt.Sprintf("DELETE FROM r WHERE k %s '%s'", tc.eqOp, second))
			own = append(own[:1:1], own[2:]...)
			check("after DELETE")

			mustExec(t, a, "ROLLBACK")
			checkSQLReadForms(t, "after ROLLBACK", a, committed, tc.typ, tc.eqOp, probes, tc.query, tc.nnPlan)
		})
	}
}
