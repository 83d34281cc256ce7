package executor_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/sqlmini"
	"repro/internal/wal"
)

// The crash-recovery tests run a deterministic workload over three
// SP-GiST opclasses — a patricia trie over VARCHAR, a kd-tree over
// POINT, and a PMR quadtree over SEGMENT — then compare index-scan
// results between a clean shutdown and a simulated crash (all unflushed
// buffer-pool frames discarded) followed by WAL redo recovery.

func openRecoveryDB(t *testing.T, dir string) *executor.DB {
	t.Helper()
	db, err := executor.Open(executor.Options{
		Dir:       dir,
		WAL:       true,
		PoolPages: 7 * 8, // tiny pool, 8 frames for each of the 7 files: most of the workload lives only in WAL + evicted pages
		WALSync:   wal.SyncCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func declareRecoverySchema(t *testing.T, db *executor.DB) *sqlmini.Session {
	t.Helper()
	s := sqlmini.NewSession(db)
	for _, stmt := range []string{
		`CREATE TABLE words (name VARCHAR, id INT)`,
		`CREATE TABLE pts (p POINT, id INT)`,
		`CREATE TABLE segs (s SEGMENT, id INT)`,
		`CREATE INDEX words_trie ON words USING spgist (name spgist_trie)`,
		`CREATE INDEX pts_kd ON pts USING spgist (p spgist_kdtree)`,
		`CREATE INDEX segs_pmr ON segs USING spgist (s spgist_pmr)`,
	} {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return s
}

// lcg is a tiny deterministic generator so both runs insert identical data.
type lcg uint64

func (g *lcg) next() uint64 { *g = *g*6364136223846793005 + 1442695040888963407; return uint64(*g) }
func (g *lcg) f(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(g.next()%1000000)/1000000.0
}

func runRecoveryWorkload(t *testing.T, s *sqlmini.Session) {
	t.Helper()
	g := lcg(42)
	for i := 0; i < 240; i++ {
		word := fmt.Sprintf("w%c%c%d", 'a'+i%7, 'a'+i%11, i)
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO words VALUES ('%s', %d)`, word, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 240; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO pts VALUES ('(%g,%g)', %d)`, g.f(0, 100), g.f(0, 100), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 160; i++ {
		x, y := g.f(0, 90), g.f(0, 90)
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO segs VALUES ('(%g,%g,%g,%g)', %d)`, x, y, x+g.f(1, 9), y+g.f(1, 9), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes exercise the heap-delete logical records and index removal.
	for _, stmt := range []string{
		`DELETE FROM words WHERE name #= 'waa'`,
		`DELETE FROM pts WHERE p ^ '(0,0,10,10)'`,
	} {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
}

// Verification queries, each forced through its index so the test
// exercises the recovered index structures rather than a seq scan.
var recoveryQueries = []struct {
	table, op, literal string
}{
	{"words", "#=", "wb"},
	{"words", "=", "wcc2"},
	{"words", "?=", "w?d1?"},
	{"pts", "^", "(20,20,60,60)"},
	{"segs", "&&", "(30,30,50,50)"},
}

// queryAll runs every verification query as a forced index scan and
// returns a canonical sorted form of each result set.
func queryAll(t *testing.T, db *executor.DB) []string {
	t.Helper()
	var out []string
	for _, q := range recoveryQueries {
		tbl, err := db.Table(q.table)
		if err != nil {
			t.Fatal(err)
		}
		ix := tbl.Indexes[0]
		op, ok := catalog.LookupOperator(q.op, tbl.Columns[ix.Column].Type)
		if !ok {
			t.Fatalf("no operator %q for %s", q.op, q.table)
		}
		arg, err := catalog.ParseLiteral(op.Right, q.literal)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		err = tbl.SelectIndexed(ix, &executor.Pred{Column: ix.Column, Op: q.op, Arg: arg}, func(r executor.Row) bool {
			var cells []string
			for _, d := range r.Tuple {
				cells = append(cells, d.String())
			}
			rows = append(rows, strings.Join(cells, "|"))
			return true
		})
		if err != nil {
			t.Fatalf("%s %s %q: %v", q.table, q.op, q.literal, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s %s %q returned no rows; the comparison would be vacuous", q.table, q.op, q.literal)
		}
		sort.Strings(rows)
		out = append(out, fmt.Sprintf("%s %s %s => %s", q.table, q.op, q.literal, strings.Join(rows, " ; ")))
	}
	return out
}

func TestCrashRecoveryMatchesCleanShutdown(t *testing.T) {
	// Reference run: workload, clean shutdown, reopen, query.
	cleanDir := t.TempDir()
	db := openRecoveryDB(t, cleanDir)
	runRecoveryWorkload(t, declareRecoverySchema(t, db))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the persistent catalog rediscovers the schema; nothing is
	// re-declared.
	db = openRecoveryDB(t, cleanDir)
	cleanRows := queryAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash run: identical workload, then every unflushed buffer-pool
	// frame is discarded instead of written back.
	crashDir := t.TempDir()
	db = openRecoveryDB(t, crashDir)
	runRecoveryWorkload(t, declareRecoverySchema(t, db))
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// Reopen: redo recovery must reconstruct heap and index files.
	db = openRecoveryDB(t, crashDir)
	rs := db.RecoveryStats()
	if rs.Records == 0 || rs.PagesWritten == 0 {
		t.Fatalf("crash reopen performed no recovery: %+v", rs)
	}
	if rs.HeapInserts == 0 || rs.SlotPuts == 0 {
		t.Fatalf("recovery exercised only one record family: %+v", rs)
	}
	crashRows := queryAll(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if len(cleanRows) != len(crashRows) {
		t.Fatalf("result-set count mismatch: %d vs %d", len(cleanRows), len(crashRows))
	}
	for i := range cleanRows {
		if cleanRows[i] != crashRows[i] {
			t.Errorf("query %d diverged after crash recovery:\n clean: %s\n crash: %s", i, cleanRows[i], crashRows[i])
		}
	}
}

func TestCheckpointBoundsLogAndSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db := openRecoveryDB(t, dir)
	s := declareRecoverySchema(t, db)
	runRecoveryWorkload(t, s)

	segsBefore := db.WAL().Segments()
	if _, err := s.Exec(`CHECKPOINT`); err != nil {
		t.Fatal(err)
	}
	if got := db.WAL().Segments(); got != 1 {
		t.Fatalf("checkpoint left %d segments (had %d)", got, segsBefore)
	}
	// More work after the checkpoint, then crash: recovery replays only
	// the post-checkpoint suffix on top of the checkpointed files.
	if _, err := s.Exec(`INSERT INTO words VALUES ('postcheckpoint', 9999)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db = openRecoveryDB(t, dir)
	if db.RecoveryStats().Checkpoints != 1 {
		t.Fatalf("recovery did not see the checkpoint: %+v", db.RecoveryStats())
	}
	s = sqlmini.NewSession(db)
	res, err := s.Exec(`SELECT * FROM words WHERE name = 'postcheckpoint'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("post-checkpoint row lost: %d rows", len(res.Rows))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRequiresDir(t *testing.T) {
	if _, err := executor.Open(executor.Options{WAL: true}); err == nil {
		t.Fatal("in-memory database accepted WAL option")
	}
}

func TestOpenWithoutWALRefusesLeftoverLog(t *testing.T) {
	// Skipping recovery of a leftover log and writing unlogged data
	// would corrupt the files when the stale log is replayed later; the
	// open must refuse instead.
	dir := t.TempDir()
	db := openRecoveryDB(t, dir)
	declareRecoverySchema(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := executor.Open(executor.Options{Dir: dir}); err == nil {
		t.Fatal("open without WAL accepted a directory holding a log")
	}
	db = openRecoveryDB(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashWithoutRecoveryLosesData(t *testing.T) {
	// Sanity check that the crash simulation actually loses unflushed
	// state when WAL is off — otherwise the recovery tests above would
	// pass vacuously.
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := sqlmini.NewSession(db)
	if _, err := s.Exec(`CREATE TABLE w (name VARCHAR, id INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO w VALUES ('row%d', %d)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db, err = executor.Open(executor.Options{Dir: dir, PoolPages: 8})
	if err != nil {
		// The system catalog (or a heap meta page) was entirely lost;
		// that is fine — the point is only that state is missing without
		// a WAL.
		return
	}
	s = sqlmini.NewSession(db)
	res, err := s.Exec(`SELECT * FROM w`)
	if err != nil {
		// The table did not survive the crash — also data loss.
		return
	}
	if len(res.Rows) == 50 {
		t.Fatal("crash simulation lost nothing; recovery tests are vacuous")
	}
}
