package sqlmini

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/executor"
)

func newSession(t testing.TB) *Session {
	t.Helper()
	db, err := executor.Open(executor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(db)
}

func mustExec(t testing.TB, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// The paper's Table 6, nearly verbatim.
func TestPaperTable6Statements(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE word_data (name VARCHAR(50), id INT)`)
	mustExec(t, s, `CREATE INDEX sp_trie_index ON word_data USING spgist (name spgist_trie)`)
	mustExec(t, s, `INSERT INTO word_data VALUES ('random', 1), ('spade', 2), ('spark', 3), ('rondom', 4)`)

	res := mustExec(t, s, `SELECT * FROM word_data WHERE name = 'random'`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "random" {
		t.Fatalf("equality query: %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT * FROM word_data WHERE name ?= 'r?nd?m'`)
	if len(res.Rows) != 2 {
		t.Fatalf("regular expression query returned %d rows, want 2", len(res.Rows))
	}

	mustExec(t, s, `CREATE TABLE point_data (p POINT, id INT)`)
	mustExec(t, s, `CREATE INDEX sp_kdtree_index ON point_data USING spgist (p spgist_kdtree)`)
	mustExec(t, s, `INSERT INTO point_data VALUES ('(0,1)', 1), ('(2,3)', 2), ('(7,8)', 3)`)

	res = mustExec(t, s, `SELECT * FROM point_data WHERE p @ '(0,1)'`)
	if len(res.Rows) != 1 {
		t.Fatalf("point equality: %d rows", len(res.Rows))
	}
	res = mustExec(t, s, `SELECT * FROM point_data WHERE p ^ '(0,0,5,5)'`)
	if len(res.Rows) != 2 {
		t.Fatalf("range query: %d rows, want 2", len(res.Rows))
	}
}

func TestPrefixAndSubstring(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR)`)
	mustExec(t, s, `CREATE INDEX w_sfx ON w USING spgist (name spgist_suffix)`)
	mustExec(t, s, `INSERT INTO w VALUES ('database'), ('databank'), ('bass'), ('abase')`)
	// 'bas' occurs in database, bass, abase — not in databank.
	res := mustExec(t, s, `SELECT * FROM w WHERE name @= 'bas'`)
	if len(res.Rows) != 3 {
		t.Fatalf("substring: %d rows, want 3", len(res.Rows))
	}
	res = mustExec(t, s, `SELECT * FROM w WHERE name #= 'data'`)
	if len(res.Rows) != 2 {
		t.Fatalf("prefix: %d rows, want 2", len(res.Rows))
	}
}

func TestOrderByDistanceLimit(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE pts (p POINT)`)
	mustExec(t, s, `CREATE INDEX pts_kd ON pts USING spgist (p)`)
	mustExec(t, s, `INSERT INTO pts VALUES ('(1,1)'), ('(2,2)'), ('(50,50)'), ('(51,51)'), ('(100,100)')`)
	res := mustExec(t, s, `SELECT * FROM pts ORDER BY p <-> '(50,50)' LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("NN limit: %d rows", len(res.Rows))
	}
	if res.Rows[0][0].P.X != 50 || res.Rows[1][0].P.X != 51 {
		t.Fatalf("NN order wrong: %v", res.Rows)
	}
	if len(res.Distances) != 2 || res.Distances[0] != 0 {
		t.Fatalf("distances: %v", res.Distances)
	}
	if !strings.Contains(res.Plan, "NN") {
		t.Fatalf("plan should be an NN scan: %s", res.Plan)
	}
}

func TestSegmentsWindow(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE segs (s SEGMENT)`)
	mustExec(t, s, `CREATE INDEX segs_pmr ON segs USING spgist (s spgist_pmr)`)
	mustExec(t, s, `INSERT INTO segs VALUES ('(1,1,9,9)'), ('(20,20,30,20)'), ('(50,1,50,99)')`)
	res := mustExec(t, s, `SELECT * FROM segs WHERE s && '(0,0,10,10)'`)
	if len(res.Rows) != 1 {
		t.Fatalf("window: %d rows, want 1", len(res.Rows))
	}
	res = mustExec(t, s, `SELECT * FROM segs WHERE s = '(20,20,30,20)'`)
	if len(res.Rows) != 1 {
		t.Fatalf("segment equality: %d rows", len(res.Rows))
	}
}

func TestExplain(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR)`)
	for i := 0; i < 50; i++ {
		mustExec(t, s, `INSERT INTO w VALUES ('filler`+string(rune('a'+i%26))+`')`)
	}
	res := mustExec(t, s, `EXPLAIN SELECT * FROM w WHERE name = 'fillera'`)
	if !strings.Contains(res.Plan, "Seq Scan") {
		t.Fatalf("expected seq scan without index: %s", res.Plan)
	}
	if len(res.Rows) != 0 {
		t.Fatal("EXPLAIN must not return rows")
	}
	mustExec(t, s, `CREATE INDEX w_bt ON w USING btree (name)`)
	// B+-tree equality on a 50-row table may still seqscan; force more
	// data so the index wins.
	for i := 0; i < 2000; i++ {
		mustExec(t, s, `INSERT INTO w VALUES ('bulk`+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+`')`)
	}
	// Fresh statistics let the planner see how rare 'fillera' actually is
	// (the lazily-sampled ndistinct estimate alone prices the heap
	// fetches too high now that MVCC headers fatten the heap pages).
	mustExec(t, s, `ANALYZE w`)
	res = mustExec(t, s, `EXPLAIN SELECT * FROM w WHERE name = 'fillera'`)
	if !strings.Contains(res.Plan, "Index Scan") || !strings.Contains(res.Plan, "btree_text") {
		t.Fatalf("expected btree index scan: %s", res.Plan)
	}
}

func TestDeleteStatement(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR)`)
	mustExec(t, s, `CREATE INDEX w_trie ON w USING spgist (name)`)
	mustExec(t, s, `INSERT INTO w VALUES ('keep'), ('drop'), ('drop'), ('keep2')`)
	res := mustExec(t, s, `DELETE FROM w WHERE name = 'drop'`)
	if res.Affected != 2 {
		t.Fatalf("DELETE affected %d, want 2", res.Affected)
	}
	res = mustExec(t, s, `SELECT * FROM w`)
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows remain, want 2", len(res.Rows))
	}
}

func TestSQLComments(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR) -- trailing comment`)
	mustExec(t, s, "INSERT INTO w VALUES ('x') -- comment\n;")
}

func TestStringEscapes(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR)`)
	mustExec(t, s, `INSERT INTO w VALUES ('it''s')`)
	res := mustExec(t, s, `SELECT * FROM w WHERE name = 'it''s'`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "it's" {
		t.Fatalf("escape handling: %v", res.Rows)
	}
}

func TestSyntaxErrors(t *testing.T) {
	s := newSession(t)
	for _, bad := range []string{
		`SELECT`,
		`CREATE`,
		`SELECT * FROM missing`,
		`CREATE TABLE t (x NOTATYPE)`,
		`INSERT INTO nowhere VALUES (1)`,
		`SELECT name FROM t`,
		`SELECT * FROM t WHERE`,
		`BOGUS STATEMENT`,
		`SELECT * FROM t WHERE x == 'y'`,
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("statement %q should fail", bad)
		}
	}
}

func TestLimitStopsScan(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR)`)
	for i := 0; i < 100; i++ {
		mustExec(t, s, `INSERT INTO w VALUES ('x')`)
	}
	res := mustExec(t, s, `SELECT * FROM w LIMIT 7`)
	if len(res.Rows) != 7 {
		t.Fatalf("LIMIT: %d rows", len(res.Rows))
	}
	if res := mustExec(t, s, `SELECT * FROM w LIMIT 0`); len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0: %d rows", len(res.Rows))
	}
	// A limit that is not a non-negative int is an error, never "no
	// limit": an overflowing one used to return every row.
	for _, bad := range []string{`99999999999999999999`, `-1`, `2.5`, `1e3`} {
		_, err := s.Exec(`SELECT * FROM w LIMIT ` + bad)
		if err == nil || !strings.HasPrefix(err.Error(), "sql: LIMIT") {
			t.Errorf("LIMIT %s: err = %v, want a sql: LIMIT error", bad, err)
		}
	}
}

// CHECKPOINT flushes the pools (and, with a WAL attached, truncates the
// log); as a statement it must parse and confirm even in-memory.
func TestCheckpointStatement(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE ck (name VARCHAR, id INT)`)
	mustExec(t, s, `INSERT INTO ck VALUES ('a', 1)`)
	res := mustExec(t, s, `CHECKPOINT`)
	if res.Msg != "CHECKPOINT" {
		t.Fatalf("CHECKPOINT replied %q", res.Msg)
	}
	res = mustExec(t, s, `CHECKPOINT;`)
	if res.Msg != "CHECKPOINT" {
		t.Fatalf("CHECKPOINT with semicolon replied %q", res.Msg)
	}
	if res2 := mustExec(t, s, `SELECT * FROM ck`); len(res2.Rows) != 1 {
		t.Fatalf("rows after checkpoint: %d", len(res2.Rows))
	}
}

// SHOW TABLES / SHOW INDEXES answer from the persistent system catalog,
// and DROP TABLE / DROP INDEX remove the entries they report.
func TestShowAndDropStatements(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE word_data (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX wd_trie ON word_data USING spgist (name spgist_trie)`)
	mustExec(t, s, `INSERT INTO word_data VALUES ('random', 1), ('spade', 2)`)
	mustExec(t, s, `CREATE TABLE pts (p POINT)`)

	res := mustExec(t, s, `SHOW TABLES`)
	if len(res.Rows) != 2 {
		t.Fatalf("SHOW TABLES: %d rows", len(res.Rows))
	}
	// Catalog order is creation (OID) order.
	if res.Rows[0][0].S != "word_data" || res.Rows[1][0].S != "pts" {
		t.Fatalf("SHOW TABLES names: %v / %v", res.Rows[0][0].S, res.Rows[1][0].S)
	}
	if res.Rows[0][1].S != "name VARCHAR, id INT" {
		t.Fatalf("SHOW TABLES columns: %q", res.Rows[0][1].S)
	}
	if res.Rows[0][2].I != 2 {
		t.Fatalf("SHOW TABLES row count: %d", res.Rows[0][2].I)
	}

	res = mustExec(t, s, `SHOW INDEXES`)
	if len(res.Rows) != 1 {
		t.Fatalf("SHOW INDEXES: %d rows", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].S != "wd_trie" || row[1].S != "word_data" || row[2].S != "name" ||
		row[3].S != "spgist" || row[4].S != "spgist_trie" || !strings.HasSuffix(row[5].S, ".idx") {
		t.Fatalf("SHOW INDEXES row: %v", row)
	}

	if res := mustExec(t, s, `DROP INDEX wd_trie`); res.Msg != "DROP INDEX wd_trie" {
		t.Fatalf("DROP INDEX replied %q", res.Msg)
	}
	if res := mustExec(t, s, `SHOW INDEXES`); len(res.Rows) != 0 {
		t.Fatalf("index survived DROP INDEX: %v", res.Rows)
	}
	if res := mustExec(t, s, `DROP TABLE word_data`); res.Msg != "DROP TABLE word_data" {
		t.Fatalf("DROP TABLE replied %q", res.Msg)
	}
	if res := mustExec(t, s, `SHOW TABLES`); len(res.Rows) != 1 || res.Rows[0][0].S != "pts" {
		t.Fatalf("SHOW TABLES after drop: %v", res.Rows)
	}
	if _, err := s.Exec(`SELECT * FROM word_data`); err == nil {
		t.Fatal("dropped table still queryable")
	}
	for _, bad := range []string{
		`DROP TABLE missing`,
		`DROP INDEX missing`,
		`DROP VIEW v`,
		`SHOW COLUMNS`,
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("statement %q should fail", bad)
		}
	}
}

// TestTrailingInputChangesNothing: a statement followed by anything but a
// final semicolon fails as a parse error before it executes, for every
// statement kind, autocommit and inside a transaction. Rows, tables,
// indexes, the log (a CHECKPOINT, VACUUM or ANALYZE appends to it, SHOW
// STATS RESET zeroes its counters) and the open transaction are as they
// were. Exec is a single-statement API, so a second statement after a
// semicolon is trailing input too. Inside a transaction, DDL and
// maintenance fail first for running there.
func TestTrailingInputChangesNothing(t *testing.T) {
	type state struct {
		rows, tables, indexes string
		walBytes, checkpoints int64
		inTxn                 bool
	}
	snapshot := func(t *testing.T, s *Session) state {
		t.Helper()
		ws := s.DB.WAL().Stats()
		return state{
			rows:        fmt.Sprint(mustExec(t, s, `SELECT * FROM w`).Rows),
			tables:      fmt.Sprint(mustExec(t, s, `SHOW TABLES`).Rows),
			indexes:     fmt.Sprint(mustExec(t, s, `SHOW INDEXES`).Rows),
			walBytes:    ws.AppendedBytes,
			checkpoints: ws.Checkpoints,
			inTxn:       s.InTxn(),
		}
	}
	for _, c := range []struct {
		stmt  string
		noTxn bool // refused inside a transaction
	}{
		{`BEGIN junk`, false},
		{`COMMIT junk`, false},
		{`ROLLBACK junk`, false},
		{`CREATE TABLE v (name VARCHAR) junk`, true},
		{`CREATE INDEX ut ON u USING spgist (name spgist_trie) junk`, true},
		{`DROP TABLE u junk`, true},
		{`DROP INDEX wt junk`, true},
		{`DROP TABLE u; DROP TABLE w`, true},
		{`SHOW TABLES junk`, false},
		{`SHOW INDEXES junk`, false},
		{`SHOW STATS 42`, false},
		{`SHOW STATS w junk`, false},
		{`SHOW STATS RESET junk`, false},
		{`SHOW ACTIVITY junk`, false},
		{`SHOW STATE junk`, false},
		{`INSERT INTO w VALUES ('delta', 4) junk`, false},
		{`SELECT * FROM w junk`, false},
		{`EXPLAIN SELECT * FROM w WHERE id = 1 junk`, false},
		{`EXPLAIN ANALYZE SELECT * FROM w junk`, false},
		{`EXPLAIN (TRACE) DELETE FROM w junk`, false},
		{`DELETE FROM w junk`, false},
		{`DELETE FROM w WHERE id = 1 junk`, false},
		{`UPDATE w SET id = 9 WHERE name = 'alpha' junk`, false},
		{`UPDATE w SET id = 9; DELETE FROM w`, false},
		{`VACUUM w junk`, true},
		{`ANALYZE w junk`, true},
		{`SCRUB w junk`, true},
		{`CHECKPOINT junk`, true},
	} {
		for _, inTxn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/txn=%v", c.stmt, inTxn), func(t *testing.T) {
				db, err := executor.Open(executor.Options{Dir: t.TempDir(), WAL: true})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				s := NewSession(db)
				defer s.Close()
				mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
				mustExec(t, s, `CREATE INDEX wt ON w USING spgist (name spgist_trie)`)
				mustExec(t, s, `INSERT INTO w VALUES ('alpha', 1), ('beta', 2), ('gamma', 3)`)
				mustExec(t, s, `CREATE TABLE u (name VARCHAR)`)
				want := "sql: trailing input at "
				if inTxn {
					mustExec(t, s, `BEGIN`)
					mustExec(t, s, `INSERT INTO w VALUES ('epsilon', 5)`)
					if c.noTxn {
						want = "cannot run inside a transaction"
					}
				}
				before := snapshot(t, s)
				if _, err := s.Exec(c.stmt); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%q returned %v, want an error saying %q", c.stmt, err, want)
				}
				if after := snapshot(t, s); after != before {
					t.Fatalf("%q failed but changed the database:\n before %+v\n after  %+v", c.stmt, before, after)
				}
			})
		}
	}
	// A final semicolon ends a statement.
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (name VARCHAR);`)
	mustExec(t, s, `CREATE INDEX ti ON t USING spgist (name spgist_trie);`)
	mustExec(t, s, `DROP INDEX ti;`)
	mustExec(t, s, `DROP TABLE t;`)
}

// A malformed DROP must fail as a parse error BEFORE the drop executes —
// the destructive side effect must not precede the syntax check.
func TestMalformedDropDoesNotDrop(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (name VARCHAR)`)
	mustExec(t, s, `CREATE INDEX ti ON t USING spgist (name spgist_trie)`)
	if _, err := s.Exec(`DROP INDEX ti garbage`); err == nil {
		t.Fatal("malformed DROP INDEX accepted")
	}
	if res := mustExec(t, s, `SHOW INDEXES`); len(res.Rows) != 1 {
		t.Fatal("malformed DROP INDEX still dropped the index")
	}
	if _, err := s.Exec(`DROP TABLE t garbage`); err == nil {
		t.Fatal("malformed DROP TABLE accepted")
	}
	if res := mustExec(t, s, `SELECT * FROM t`); res == nil {
		t.Fatal("table unexpectedly gone")
	}
	// Well-formed drops (with and without semicolon) still work.
	mustExec(t, s, `DROP INDEX ti;`)
	mustExec(t, s, `DROP TABLE t`)
}

// Exec is a single-statement API: `DROP TABLE t; DROP TABLE u` must
// parse-fail without having dropped t.
func TestMultiStatementDropDoesNotHalfExecute(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE t (name VARCHAR)`)
	mustExec(t, s, `CREATE TABLE u (name VARCHAR)`)
	if _, err := s.Exec(`DROP TABLE t; DROP TABLE u`); err == nil {
		t.Fatal("multi-statement DROP accepted")
	}
	if res := mustExec(t, s, `SHOW TABLES`); len(res.Rows) != 2 {
		t.Fatalf("multi-statement DROP half-executed: %d tables left", len(res.Rows))
	}
}

// ANALYZE persists planner statistics in the system catalog; the bare
// form covers every table, the targeted form one table, and a reopened
// session plans identically from the persisted record with no heap scan.
func TestAnalyzeStatement(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(db)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX wt ON w USING spgist (name spgist_trie)`)
	var vals []string
	for i := 0; i < 700; i++ {
		vals = append(vals, fmt.Sprintf("('common', %d)", i))
	}
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("('w%03d', %d)", i, 700+i))
	}
	mustExec(t, s, `INSERT INTO w VALUES `+strings.Join(vals, ", "))
	mustExec(t, s, `CREATE TABLE pts (p POINT)`)

	if res := mustExec(t, s, `ANALYZE w`); res.Msg != "ANALYZE w" {
		t.Fatalf("ANALYZE w replied %q", res.Msg)
	}
	if res := mustExec(t, s, `ANALYZE;`); res.Msg != "ANALYZE" {
		t.Fatalf("bare ANALYZE replied %q", res.Msg)
	}
	if got := db.Catalog().AllStats(); len(got) != 2 {
		t.Fatalf("ANALYZE persisted %d statistics records, want 2", len(got))
	}
	if _, err := s.Exec(`ANALYZE w garbage`); err == nil {
		t.Fatal("malformed ANALYZE accepted")
	}
	if _, err := s.Exec(`ANALYZE nope`); err == nil {
		t.Fatal("ANALYZE of unknown table accepted")
	}

	// Golden EXPLAIN pair: the skewed value seqscans, the rare one uses
	// the index.
	wantCommon := mustExec(t, s, `EXPLAIN SELECT * FROM w WHERE name = 'common'`).Plan
	wantRare := mustExec(t, s, `EXPLAIN SELECT * FROM w WHERE name = 'w007'`).Plan
	if !strings.HasPrefix(wantCommon, "Seq Scan on w") {
		t.Fatalf("common plan: %s", wantCommon)
	}
	if !strings.HasPrefix(wantRare, "Index Scan on w using wt (spgist_trie)") {
		t.Fatalf("rare plan: %s", wantRare)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = executor.Open(executor.Options{Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s = NewSession(db)
	tb, err := db.Table("w")
	if err != nil {
		t.Fatal(err)
	}
	tb.Heap.Pool().ResetStats()
	gotCommon := mustExec(t, s, `EXPLAIN SELECT * FROM w WHERE name = 'common'`).Plan
	gotRare := mustExec(t, s, `EXPLAIN SELECT * FROM w WHERE name = 'w007'`).Plan
	if st := tb.Heap.Pool().Stats(); st.Accesses != 0 {
		t.Fatalf("EXPLAIN after reopen read %d heap pages, want 0", st.Accesses)
	}
	if gotCommon != wantCommon || gotRare != wantRare {
		t.Fatalf("plans diverged across reopen:\n before %q / %q\n after  %q / %q",
			wantCommon, wantRare, gotCommon, gotRare)
	}
}

// TestMultiRowInsertIsOneStatement: the whole VALUES list parses before
// anything executes, so a malformed row anywhere — even after valid
// rows — inserts nothing, and a successful multi-row INSERT reports
// every row.
func TestMultiRowInsertIsOneStatement(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE w (name VARCHAR, id INT)")

	if res := mustExec(t, s, "INSERT INTO w VALUES ('a', 1), ('b', 2), ('c', 3)"); res.Affected != 3 {
		t.Fatalf("affected %d, want 3", res.Affected)
	}
	for _, bad := range []string{
		"INSERT INTO w VALUES ('d', 4), ('e')",         // arity, last row
		"INSERT INTO w VALUES ('d', 4), ('e', 5) junk", // trailing garbage
		"INSERT INTO w VALUES ('d', 4), ('e', 5), (",   // truncated
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Fatalf("%q did not fail", bad)
		}
	}
	res := mustExec(t, s, "SELECT * FROM w")
	if len(res.Rows) != 3 {
		t.Fatalf("failed statements leaked rows: %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].S == "d" || row[0].S == "e" {
			t.Fatalf("row %v from a failed statement is visible", row)
		}
	}
}

// A multi-row INSERT of lattice points used to fail with
// "spgist_kdtree.Choose did not converge": the batch sorts its keys, a
// bucket-size-1 kd-tree fed sorted points with many equal coordinates
// grows one long path, and the retry guard of the insert descent — meant
// per node — counted the whole path.
func TestLatticeInsertIntoKdTree(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE lattice (p POINT, id INT)`)
	mustExec(t, s, `CREATE INDEX lattice_kd ON lattice USING spgist (p spgist_kdtree)`)
	vals := make([]string, 2000)
	for i := range vals {
		vals[i] = fmt.Sprintf("('(%d,%d)', %d)", i%50, i/50, i)
	}
	if res := mustExec(t, s, `INSERT INTO lattice VALUES `+strings.Join(vals, ", ")); res.Affected != len(vals) {
		t.Fatalf("INSERT affected %d rows, want %d", res.Affected, len(vals))
	}
	res := mustExec(t, s, `SELECT * FROM lattice WHERE p ^ '(0,0,4,4)'`)
	if !strings.Contains(res.Plan, "lattice_kd") {
		t.Fatalf("box query planned as %q, want the kd-tree", res.Plan)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("box (0,0,4,4) holds %d lattice points, want 25", len(res.Rows))
	}
}
