package executor_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/sqlmini"
	"repro/internal/storage"
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
	// The heap's puts and patches the log holds (a batch put's rows
	// counted one by one), and the index nodes'.
	var heapRecs, indexRecs int64
	if _, err := wal.Replay(filepath.Join(crashDir, "wal"), func(r *wal.Record) error {
		n := int64(1)
		switch r.Type {
		case wal.RecSlotBatchPut:
			n = int64(len(r.Slots))
		case wal.RecSlotPut, wal.RecSlotPatch:
		default:
			return nil
		}
		if strings.HasSuffix(r.File, ".idx") {
			indexRecs += n
		} else {
			heapRecs += n
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if heapRecs == 0 || indexRecs == 0 {
		t.Fatalf("the log holds %d heap and %d index slot records", heapRecs, indexRecs)
	}

	// Reopen: redo recovery must reconstruct heap and index files.
	db = openRecoveryDB(t, crashDir)
	rs := db.RecoveryStats()
	if rs.Records == 0 || rs.PagesWritten == 0 {
		t.Fatalf("crash reopen performed no recovery: %+v", rs)
	}
	// Redo applied index records too: more puts and patches than all the
	// heap's in the log.
	if rs.SlotBatches == 0 || rs.SlotPuts+rs.SlotPatches <= heapRecs {
		t.Fatalf("recovery exercised only one record family (%d heap records in the log): %+v", heapRecs, rs)
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

// TestDirOnlyOpenRecoversLog: an Open that names only a directory logs,
// so it recovers the log a crashed logged session left there.
func TestDirOnlyOpenRecoversLog(t *testing.T) {
	dir := t.TempDir()
	db := openRecoveryDB(t, dir)
	runRecoveryWorkload(t, declareRecoverySchema(t, db))
	want := queryAll(t, db)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db, err := executor.Open(executor.Options{Dir: dir, PoolPages: 7 * 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.WAL() == nil {
		t.Fatal("an Open with a directory attached no log")
	}
	if rs := db.RecoveryStats(); rs.Records == 0 || rs.PagesWritten == 0 {
		t.Fatalf("the open recovered nothing: %+v", rs)
	}
	got := queryAll(t, db)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d after recovery:\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestCrashWithoutRecoveryLosesData checks that the crash simulation is
// not vacuous: Crash leaves the committed rows out of the data files, so
// the reopen's redo must write pages to bring every one of them back.
func TestCrashWithoutRecoveryLosesData(t *testing.T) {
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
		t.Fatal(err)
	}
	defer db.Close()
	if rs := db.RecoveryStats(); rs.PagesWritten == 0 {
		t.Fatalf("redo wrote no page, so the crash lost nothing and the recovery tests are vacuous: %+v", rs)
	}
	res, err := sqlmini.NewSession(db).Exec(`SELECT * FROM w`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("%d of 50 committed rows came back", len(res.Rows))
	}
}

// crashAfterLoad loads rows rows into a trie-indexed table words, 100 to
// a statement, through a pool that holds every page the load touches,
// and crashes: the data files hold nothing of the load, and the reopen's
// redo rebuilds all of it from the log.
func crashAfterLoad(t *testing.T, rows int) string {
	t.Helper()
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := sqlmini.NewSession(db)
	for _, stmt := range []string{
		`CREATE TABLE words (name VARCHAR, id INT)`,
		`CREATE INDEX words_trie ON words USING spgist (name spgist_trie)`,
	} {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i += 100 {
		var b strings.Builder
		b.WriteString(`INSERT INTO words VALUES `)
		for j := i; j < i+100; j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "('w%07d', %d)", j*7919%rows, j)
		}
		if _, err := s.Exec(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkRecoveredLoad checks that every row crashAfterLoad committed came
// back, in the heap and in the index alike.
func checkRecoveredLoad(t *testing.T, db *executor.DB, rows int) {
	t.Helper()
	tb, err := db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	want := seqPrefixRows(t, tb, "w")
	if len(want) != rows {
		t.Fatalf("%d of %d committed rows came back", len(want), rows)
	}
	if got := indexedPrefixRows(t, tb, "w"); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("an index scan finds %d rows, a sequential scan %d", len(got), len(want))
	}
}

// dataFilePages counts the pages of the relation and catalog files of
// the database in dir.
func dataFilePages(t *testing.T, dir string) int64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.*"))
	if err != nil {
		t.Fatal(err)
	}
	var pages int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		pages += fi.Size() / storage.DefaultPageSize
	}
	return pages
}

// TestRedoWritesEachPageOnce: redo patches a page in its frame as often
// as the log changes it and writes it back once, so a reopen whose pool
// holds every page redo touches writes no more pages than the data files
// have, where a write per record would be one per row here.
func TestRedoWritesEachPageOnce(t *testing.T) {
	const rows = 4000
	dir := crashAfterLoad(t, rows)
	db, err := executor.Open(executor.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rs := db.RecoveryStats()
	if pages := dataFilePages(t, dir); rs.PagesWritten <= 0 || rs.PagesWritten > pages {
		t.Fatalf("redo of %d records wrote %d pages, want between 1 and the %d pages of the data files", rs.Records, rs.PagesWritten, pages)
	}
	checkRecoveredLoad(t, db, rows)
}

// TestRedoUnderSmallerBudget: redo runs within the database's frame
// budget, here far smaller than the pages it touches, so pages are
// evicted and written back in the middle of the pass, and come back in
// later records' fetches.
func TestRedoUnderSmallerBudget(t *testing.T) {
	const rows, frames = 20000, 16
	dir := crashAfterLoad(t, rows)
	if pages := dataFilePages(t, dir); pages < 4*frames {
		t.Fatalf("the load left %d pages, too few to overflow %d frames", pages, frames)
	}
	db, err := executor.Open(executor.Options{Dir: dir, PoolPages: frames})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// More pages written than frames held means evictions wrote some.
	if rs := db.RecoveryStats(); rs.PagesWritten <= frames {
		t.Fatalf("redo wrote %d pages through %d frames: nothing was evicted mid-pass", rs.PagesWritten, frames)
	}
	checkRecoveredLoad(t, db, rows)
}
