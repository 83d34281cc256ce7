package sqlmini

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
)

// statsMap flattens a SHOW STATS result for assertions.
func statsMap(t *testing.T, res *Result) map[string]int64 {
	t.Helper()
	if got := strings.Join(res.Columns, ","); got != "name,value" {
		t.Fatalf("SHOW STATS columns = %q", got)
	}
	m := make(map[string]int64, len(res.Rows))
	for _, row := range res.Rows {
		m[row[0].S] = row[1].I
	}
	return m
}

func TestShowStatsRegistry(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
	mustExec(t, s, `INSERT INTO w VALUES ('a', 1), ('b', 2), ('c', 3)`)
	mustExec(t, s, `SELECT * FROM w`)
	mustExec(t, s, `SELECT * FROM w WHERE id = 2`)

	m := statsMap(t, mustExec(t, s, `SHOW STATS`))
	if m["exec_select_total"] != 2 {
		t.Errorf("exec_select_total = %d, want 2", m["exec_select_total"])
	}
	if m["exec_insert_total"] != 1 {
		t.Errorf("exec_insert_total = %d, want 1", m["exec_insert_total"])
	}
	if m["exec_tuples_inserted_total"] != 3 {
		t.Errorf("exec_tuples_inserted_total = %d, want 3", m["exec_tuples_inserted_total"])
	}
	// 3 rows unqualified + 1 row filtered.
	if m["exec_rows_returned_total"] != 4 {
		t.Errorf("exec_rows_returned_total = %d, want 4", m["exec_rows_returned_total"])
	}
	if m["exec_plan_seqscan_total"] < 1 {
		t.Errorf("exec_plan_seqscan_total = %d, want >= 1", m["exec_plan_seqscan_total"])
	}
	// The storage sampler must contribute pool counters even in memory.
	if _, ok := m["pool_accesses_total"]; !ok {
		t.Errorf("pool_accesses_total missing from SHOW STATS: %v", m)
	}
	if m["pool_open"] < 2 { // catalog + heap
		t.Errorf("pool_open = %d, want >= 2", m["pool_open"])
	}
}

func TestShowStatsTable(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX w_trie ON w USING spgist (name spgist_trie)`)
	mustExec(t, s, `INSERT INTO w VALUES ('a', 1), ('b', 2), ('c', 3)`)

	m := statsMap(t, mustExec(t, s, `SHOW STATS w`))
	if m["rows"] != 3 {
		t.Errorf("rows = %d, want 3", m["rows"])
	}
	if m["heap_pages"] < 2 {
		t.Errorf("heap_pages = %d, want >= 2", m["heap_pages"])
	}
	if m["churn_since_analyze"] != 3 {
		t.Errorf("churn_since_analyze = %d, want 3", m["churn_since_analyze"])
	}
	if n, ok := m["index_w_trie_entries"]; ok {
		t.Errorf("index_w_trie_entries = %d: an index keeps no entry count to show", n)
	}
	if m["index_w_trie_pages"] < 2 {
		t.Errorf("index_w_trie_pages = %d, want >= 2", m["index_w_trie_pages"])
	}
	if m["heap_free_bytes"] != 0 {
		t.Errorf("heap_free_bytes = %d before any VACUUM, want 0", m["heap_free_bytes"])
	}
	// VACUUM's delete notes the page's free space; the next insert fills
	// it, and the figure follows.
	mustExec(t, s, `DELETE FROM w WHERE id = 2`)
	mustExec(t, s, `VACUUM w`)
	freed := statsMap(t, mustExec(t, s, `SHOW STATS w`))["heap_free_bytes"]
	if freed <= 0 || freed >= 8192 {
		t.Errorf("heap_free_bytes = %d after VACUUM, want the free bytes of the one heap page", freed)
	}
	mustExec(t, s, `INSERT INTO w VALUES ('d', 4)`)
	if got := statsMap(t, mustExec(t, s, `SHOW STATS w`))["heap_free_bytes"]; got >= freed {
		t.Errorf("heap_free_bytes = %d after an insert into the vacuumed page, was %d", got, freed)
	}

	if _, err := s.Exec(`SHOW STATS nope`); err == nil {
		t.Fatal("SHOW STATS on a missing table should fail")
	}
}

// TestExplainAnalyzeMatchesPageTrace pins the acceptance criterion: the
// index_pages number EXPLAIN ANALYZE reports for an index scan must
// agree with an independent PageTrace of the same scan.
func TestExplainAnalyzeMatchesPageTrace(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX w_trie ON w USING spgist (name spgist_trie)`)
	var vals []string
	for i := 0; i < 3000; i++ {
		vals = append(vals, fmt.Sprintf("('word%04d', %d)", i, i))
	}
	mustExec(t, s, `INSERT INTO w VALUES `+strings.Join(vals, ", "))
	mustExec(t, s, `ANALYZE w`)

	res := mustExec(t, s, `EXPLAIN ANALYZE SELECT * FROM w WHERE name = 'word0150'`)
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("EXPLAIN ANALYZE columns = %v", res.Columns)
	}
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[0].S)
	}
	text := strings.Join(out, "\n")
	if !strings.Contains(out[0], "Index Scan on w using w_trie") {
		t.Fatalf("selective equality did not run as an index scan:\n%s", text)
	}
	if !strings.Contains(out[0], "actual time=") || !strings.Contains(out[0], "rows=1 scanned=1") {
		t.Errorf("missing actuals in %q", out[0])
	}
	if !strings.Contains(text, "Execution Time:") || !strings.Contains(text, "WAL: bytes=") {
		t.Errorf("missing trailer lines:\n%s", text)
	}
	var eaPages int
	if _, err := fmt.Sscanf(findLine(t, out, "index_pages="), "index_pages=%d", &eaPages); err != nil {
		t.Fatalf("no index_pages in:\n%s", text)
	}
	if eaPages <= 0 {
		t.Fatalf("index_pages = %d, want > 0", eaPages)
	}

	// Independent trace of the same scan, through the access-method API.
	tab, err := s.DB.Table("w")
	if err != nil {
		t.Fatal(err)
	}
	ix := tab.Indexes[0]
	ix.Pool().StartPageTrace()
	if err := tab.SelectIndexed(ix, &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText("word0150")}, func(executor.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if traced := ix.Pool().PageTraceCount(); traced != eaPages {
		t.Errorf("EXPLAIN ANALYZE index_pages=%d, independent PageTrace=%d", eaPages, traced)
	}
}

// findLine returns the whitespace-trimmed token of the first line
// containing sub, starting at sub.
func findLine(t *testing.T, lines []string, sub string) string {
	t.Helper()
	for _, l := range lines {
		if i := strings.Index(l, sub); i >= 0 {
			return l[i:]
		}
	}
	t.Fatalf("no line contains %q in %v", sub, lines)
	return ""
}

func TestExplainAnalyzeNN(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE pts (p POINT)`)
	mustExec(t, s, `CREATE INDEX pts_kd ON pts USING spgist (p)`)
	mustExec(t, s, `INSERT INTO pts VALUES ('(1,1)'), ('(2,2)'), ('(50,50)'), ('(51,51)'), ('(100,100)')`)
	res := mustExec(t, s, `EXPLAIN ANALYZE SELECT * FROM pts ORDER BY p <-> '(50,50)' LIMIT 2`)
	if len(res.Rows) == 0 || !strings.Contains(res.Rows[0][0].S, "rows=2") {
		t.Fatalf("EXPLAIN ANALYZE NN output: %v", res.Rows)
	}
}

// TestExplainAnalyzeOneStatementKind: EXPLAIN ANALYZE really executes,
// whichever form the SELECT has — it counts once in the executed form's
// statement counter (and not in the other's), takes its buffer deltas
// inside the statement's lock window, and reports index_pages= exactly
// when the statement ran through an index.
func TestExplainAnalyzeOneStatementKind(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE pts (p POINT, id INT)`)
	mustExec(t, s, `CREATE TABLE bare (p POINT, id INT)`)
	mustExec(t, s, `CREATE INDEX pts_kd ON pts USING spgist (p)`)
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("('(%d,%d)', %d)", i*37%2003, i*91%1999, i))
	}
	mustExec(t, s, `INSERT INTO pts VALUES `+strings.Join(vals, ", "))
	mustExec(t, s, `INSERT INTO bare VALUES `+strings.Join(vals[:50], ", "))
	mustExec(t, s, `ANALYZE`)

	for _, tc := range []struct {
		stmt, plan, counter, other string
		indexed                    bool
	}{
		{`SELECT * FROM pts WHERE p @ '(259,637)'`, "Index Scan", "exec_select_total", "exec_select_nn_total", true},
		{`SELECT * FROM pts ORDER BY p <-> '(260,640)' LIMIT 5`, "Index NN Scan", "exec_select_nn_total", "exec_select_total", true},
		{`SELECT * FROM bare WHERE p @ '(259,637)'`, "Seq Scan", "exec_select_total", "exec_select_nn_total", false},
		{`SELECT * FROM bare ORDER BY p <-> '(260,640)' LIMIT 5`, "Seq Scan", "exec_select_nn_total", "exec_select_total", false},
	} {
		before := statsMap(t, mustExec(t, s, `SHOW STATS`))
		var out []string
		for _, row := range mustExec(t, s, `EXPLAIN ANALYZE `+tc.stmt).Rows {
			out = append(out, row[0].S)
		}
		after := statsMap(t, mustExec(t, s, `SHOW STATS`))
		text := strings.Join(out, "\n")
		if !strings.HasPrefix(out[0], tc.plan+" on ") {
			t.Fatalf("%s ran as %q, want %s", tc.stmt, out[0], tc.plan)
		}
		if d := after[tc.counter] - before[tc.counter]; d != 1 {
			t.Errorf("EXPLAIN ANALYZE %s: %s moved by %d, want 1", tc.stmt, tc.counter, d)
		}
		if d := after[tc.other] - before[tc.other]; d != 0 {
			t.Errorf("EXPLAIN ANALYZE %s: %s moved by %d, want 0", tc.stmt, tc.other, d)
		}
		var hits, misses, pages int
		buffers := findLine(t, out, "Buffers: ")
		if tc.indexed {
			if _, err := fmt.Sscanf(buffers, "Buffers: hits=%d misses=%d index_pages=%d", &hits, &misses, &pages); err != nil || pages <= 0 {
				t.Errorf("EXPLAIN ANALYZE %s ran through an index but reports %q:\n%s", tc.stmt, buffers, text)
			}
		} else if strings.Contains(buffers, "index_pages=") {
			t.Errorf("EXPLAIN ANALYZE %s touched no index but reports %q", tc.stmt, buffers)
		} else if _, err := fmt.Sscanf(buffers, "Buffers: hits=%d misses=%d", &hits, &misses); err != nil {
			t.Errorf("EXPLAIN ANALYZE %s: unreadable %q", tc.stmt, buffers)
		}
		if hits+misses <= 0 {
			t.Errorf("EXPLAIN ANALYZE %s reports no buffer traffic: %q", tc.stmt, buffers)
		}
	}
}

func TestExplainAnalyzeNonSelect(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (id INT)`)
	if _, err := s.Exec(`EXPLAIN ANALYZE INSERT INTO w VALUES (1)`); err == nil {
		t.Fatal("EXPLAIN ANALYZE of non-SELECT should fail")
	}
}

// TestShowTablesConcurrentWithWriters pins the PR 5 data race: SHOW
// TABLES used to read each heap's row counter after dropping the shared
// statement lock, racing concurrent writers. Run with -race.
func TestShowTablesConcurrentWithWriters(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE a (id INT)`)
	mustExec(t, s, `CREATE TABLE b (id INT)`)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, tbl := range []string{"a", "b"} {
		wg.Add(1)
		go func(tbl string) {
			defer wg.Done()
			w := NewSession(s.DB)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (%d)`, tbl, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(tbl)
	}
	for i := 0; i < 50; i++ {
		res := mustExec(t, s, `SHOW TABLES`)
		if len(res.Rows) != 2 {
			t.Fatalf("SHOW TABLES returned %d rows", len(res.Rows))
		}
	}
	close(stop)
	wg.Wait()
	// Counts observed under the locks must now be exact.
	res := mustExec(t, s, `SHOW TABLES`)
	for _, row := range res.Rows {
		tab, err := s.DB.Table(row[0].S)
		if err != nil {
			t.Fatal(err)
		}
		if row[2].I != tab.RowCount() {
			t.Errorf("table %s: SHOW TABLES rows=%d, RowCount=%d", row[0].S, row[2].I, tab.RowCount())
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	db, err := executor.Open(executor.Options{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog:       &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(db)
	mustExec(t, s, `CREATE TABLE w (id INT)`)
	mustExec(t, s, `INSERT INTO w VALUES (1)`)
	mustExec(t, s, `SELECT * FROM w`)
	logged := buf.String()
	if !strings.Contains(logged, "slow query (") || !strings.Contains(logged, "SELECT * FROM w") {
		t.Fatalf("slow-query log missing entries:\n%s", logged)
	}
	if !strings.Contains(logged, "hits=") || !strings.Contains(logged, "misses=") {
		t.Fatalf("slow-query log missing buffer counters:\n%s", logged)
	}
	// An executed SELECT is logged with the plan it ran and how the
	// planner's row estimate compared with the rows it returned.
	mustExec(t, s, `SELECT * FROM w WHERE id = 1`)
	if !strings.Contains(buf.String(), ", plan=Seq Scan est=1 actual=1, ok): SELECT * FROM w WHERE id = 1") {
		t.Fatalf("slow-query log missing plan kind and est/actual rows:\n%s", buf.String())
	}
	// A LIMIT that stops the scan leaves only the plan kind: the rows
	// returned say nothing about the estimate.
	mustExec(t, s, `INSERT INTO w VALUES (2), (3)`)
	mustExec(t, s, `SELECT * FROM w LIMIT 1`)
	if !strings.Contains(buf.String(), ", plan=Seq Scan, ok): SELECT * FROM w LIMIT 1") {
		t.Fatalf("slow-query log of a LIMIT-stopped scan:\n%s", buf.String())
	}
	// UPDATE and DELETE are logged with the plan of the scan that found
	// their rows, and the rows they changed as its actual count.
	mustExec(t, s, `UPDATE w SET id = 4 WHERE id = 3`)
	mustExec(t, s, `DELETE FROM w WHERE id = 2`)
	for _, want := range []string{
		", plan=Seq Scan est=1 actual=1, ok): UPDATE w SET id = 4 WHERE id = 3",
		", plan=Seq Scan est=1 actual=1, ok): DELETE FROM w WHERE id = 2",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("slow-query log missing %q:\n%s", want, buf.String())
		}
	}
	// Through an index, by key.
	mustExec(t, s, `CREATE TABLE k (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX k_trie ON k USING spgist (name spgist_trie)`)
	var ins strings.Builder
	ins.WriteString(`INSERT INTO k VALUES `)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "('k%04d', %d)", i, i)
	}
	mustExec(t, s, ins.String())
	mustExec(t, s, `ANALYZE k`)
	mustExec(t, s, `UPDATE k SET id = 7 WHERE name = 'k0042'`)
	mustExec(t, s, `DELETE FROM k WHERE name = 'k0043'`)
	mustExec(t, s, `DELETE FROM k WHERE name = 'nokey'`)
	for _, want := range []string{
		", plan=Index Scan est=1 actual=1, ok): UPDATE k SET id = 7 WHERE name = 'k0042'",
		", plan=Index Scan est=1 actual=1, ok): DELETE FROM k WHERE name = 'k0043'",
		", plan=Index Scan est=1 actual=0, ok): DELETE FROM k WHERE name = 'nokey'",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("slow-query log missing %q:\n%s", want, buf.String())
		}
	}

	// Zero threshold (the default) logs nothing.
	buf.Reset()
	db2, err := executor.Open(executor.Options{SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(db2)
	mustExec(t, s2, `CREATE TABLE w (id INT)`)
	mustExec(t, s2, `SELECT * FROM w`)
	if buf.Len() != 0 {
		t.Fatalf("slow-query log written with zero threshold:\n%s", buf.String())
	}
}

// loadFresh creates a word table whose index exists before its rows do
// and which nobody ANALYZEs — the shape of the benchmark's `fresh`
// table, where the planner used to fall off the Seq Scan cliff.
func loadFresh(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE fresh (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX fresh_trie ON fresh USING spgist (name spgist_trie)`)
	for base := 0; base < n; base += 500 {
		var b strings.Builder
		b.WriteString(`INSERT INTO fresh VALUES `)
		for i := base; i < base+500 && i < n; i++ {
			if i > base {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "('word%05d', %d)", i, i)
		}
		mustExec(t, s, b.String())
	}
}

// TestExplainAnalyzeNeverAnalyzedTable pins the acceptance criterion of
// the planner-cliff fix: the first exact match on a table loaded after
// CREATE INDEX and never ANALYZEd is an Index Scan estimating one row,
// with no misestimate flag, and the plan-quality metrics are exported.
func TestExplainAnalyzeNeverAnalyzedTable(t *testing.T) {
	s := newSession(t)
	loadFresh(t, s, 5000)
	res := mustExec(t, s, `EXPLAIN ANALYZE SELECT * FROM fresh WHERE name = 'word02500'`)
	first := res.Rows[0][0].S
	if !strings.HasPrefix(first, "Index Scan on fresh using fresh_trie") ||
		!strings.Contains(first, " rows=1)") || !strings.Contains(first, "rows=1 scanned=1)") {
		t.Fatalf("first exact match on the never-ANALYZEd table:\n%s", first)
	}
	if strings.Contains(first, "misestimate") {
		t.Fatalf("a right estimate was flagged:\n%s", first)
	}

	tm := mustExec(t, s, `SHOW STATS fresh`)
	provenance := map[string]string{}
	for _, row := range tm.Rows {
		provenance[row[0].S] = row[1].String()
	}
	for name, want := range map[string]string{
		"stats_source": "lazy sample", "stats_rows": "5000", "stats_sample_rows": "5000",
		"churn_since_analyze": "0", "stats_stale_pct": "0", "analyzed": "1",
	} {
		if got := provenance[name]; got != want {
			t.Errorf("SHOW STATS fresh: %s = %q, want %q", name, got, want)
		}
	}

	m := statsMap(t, mustExec(t, s, `SHOW STATS`))
	if m["exec_stats_refresh_total"] != 1 {
		t.Errorf("exec_stats_refresh_total = %d, want the one lazy sample", m["exec_stats_refresh_total"])
	}
	// One executed predicate plan, estimate = actual: q-error exactly 1,
	// the first (inclusive) bucket.
	if m["exec_plan_qerror_count"] != 1 || m["exec_plan_qerror_p99_milli"] != 1000 {
		t.Errorf("exec_plan_qerror count=%d p99_milli=%d, want 1 and 1000",
			m["exec_plan_qerror_count"], m["exec_plan_qerror_p99_milli"])
	}
}

// TestExplainAnalyzeFlagsMisestimate pins the wording of the flag on
// statistics that are stale but not stale enough to be replaced: an MCV
// whose rows were since deleted.
func TestExplainAnalyzeFlagsMisestimate(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX w_trie ON w USING spgist (name spgist_trie)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO w VALUES `)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		if i < 30 {
			fmt.Fprintf(&b, "('hot', %d)", i)
		} else {
			fmt.Fprintf(&b, "('word%04d', %d)", i, i)
		}
	}
	mustExec(t, s, b.String())
	mustExec(t, s, `ANALYZE w`)
	// 'hot' is an MCV at 3%. Delete all but one of its rows: 2.9% of the
	// table churned, so the statistics are kept and barely discounted.
	mustExec(t, s, `DELETE FROM w WHERE id < 29`)
	res := mustExec(t, s, `EXPLAIN ANALYZE SELECT * FROM w WHERE name = 'hot'`)
	first := res.Rows[0][0].S
	// (0.971·0.03 + 0.029·0.005) · 1000 heap versions = 29 rows, actual 1.
	if !strings.Contains(first, " rows=29)") || !strings.HasSuffix(first, " rows=1 scanned=971) misestimate=29×") {
		t.Fatalf("stale-MCV plan line:\n%s", first)
	}
	// A LIMIT that cuts the scan short says nothing about the estimate.
	res = mustExec(t, s, `EXPLAIN ANALYZE SELECT * FROM w LIMIT 1`)
	if line := res.Rows[0][0].S; strings.Contains(line, "misestimate") {
		t.Fatalf("LIMIT-truncated scan was flagged:\n%s", line)
	}
	m := statsMap(t, mustExec(t, s, `SHOW STATS`))
	if m["exec_plan_qerror_p99_milli"] != 32000 {
		t.Errorf("exec_plan_qerror_p99_milli = %d, want 32000 (the 16–32× bucket)", m["exec_plan_qerror_p99_milli"])
	}
}
