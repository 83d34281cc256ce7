package executor_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/heap"
	"repro/internal/wal"
)

// These tests cover the persistent system catalog: schema rediscovery on
// reopen with zero re-declaration, and DDL crash-atomicity — a crash
// anywhere inside CREATE TABLE / CREATE INDEX must leave either nothing
// or (after recovery) a complete relation, never a silently reattached
// partial index file.

func openCatalogDB(t *testing.T, dir string, faults executor.FaultInjection) *executor.DB {
	t.Helper()
	db, err := executor.Open(executor.Options{
		Dir:       dir,
		WAL:       true,
		PoolPages: 16,
		WALSync:   wal.SyncCommit,
		Faults:    faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// fillWords inserts n deterministic rows into table words.
func fillWords(t *testing.T, tb *executor.Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		word := fmt.Sprintf("w%c%c%03d", 'a'+i%5, 'a'+i%9, i)
		if _, err := tb.Insert(catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// indexedPrefixRows runs a forced index scan for name #= prefix and
// returns the sorted result rows.
func indexedPrefixRows(t *testing.T, tb *executor.Table, prefix string) []string {
	t.Helper()
	if len(tb.Indexes) == 0 {
		t.Fatal("table has no index to scan")
	}
	ix := tb.Indexes[0]
	var rows []string
	err := tb.SelectIndexed(ix, &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)}, func(r executor.Row) bool {
		rows = append(rows, r.Tuple[0].String()+"|"+r.Tuple[1].String())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

func TestReopenWithoutRedeclare(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 300)
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	want := indexedPrefixRows(t, tb, "wa")
	if len(want) == 0 {
		t.Fatal("reference query returned nothing; the test would be vacuous")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	if len(db.RebuiltIndexes()) != 0 {
		t.Fatalf("clean shutdown triggered index rebuilds: %v", db.RebuiltIndexes())
	}
	tb, err = db.Table("words")
	if err != nil {
		t.Fatalf("table not rediscovered: %v", err)
	}
	if got := indexedPrefixRows(t, tb, "wa"); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("indexed query diverged after reopen:\n want %v\n got  %v", want, got)
	}
	ie, ok := db.Catalog().GetIndex("words_trie")
	if !ok {
		t.Fatalf("catalog entry after reopen: %+v ok=%v", ie, ok)
	}
}

// crashMidCreateIndex drives a CREATE INDEX that fails at the given
// build row (or at the pre-commit point when failRow < 0), crashes, and
// returns the reopened database and its directory, after checking that
// the crash left a file of the build on disk.
func crashMidCreateIndex(t *testing.T, failRow int) (*executor.DB, string) {
	t.Helper()
	dir := t.TempDir()
	boom := errors.New("injected crash")
	faults := executor.FaultInjection{}
	if failRow >= 0 {
		faults.DuringIndexBuild = func(rows int) error {
			if rows >= failRow {
				return boom
			}
			return nil
		}
	} else {
		faults.BeforeDDLCommit = func(stmt string) error {
			if strings.HasPrefix(stmt, "CREATE INDEX") {
				return boom
			}
			return nil
		}
	}
	db := openCatalogDB(t, dir, faults)
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	// 600 rows over a 16-page pool: the build evicts pages into its
	// file before the fault hits.
	fillWords(t, tb, 600)
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); !errors.Is(err, boom) {
		t.Fatalf("CREATE INDEX did not hit the injected fault: %v", err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if len(indexFiles(t, dir)) == 0 {
		t.Fatal("no file of the build on disk at crash time; the scenario is vacuous")
	}
	return openCatalogDB(t, dir, executor.FaultInjection{}), dir
}

// indexFiles lists the index files in dir, built (rel*.idx) or in their
// build (rel*.idx.build).
func indexFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "rel*.idx*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// verifyCreateIndexLeftNothing checks a database reopened after a crashed
// CREATE INDEX of words_trie: no entry, no file, nothing rebuilt — and the
// name can be used again, for an index that agrees with the heap.
func verifyCreateIndexLeftNothing(t *testing.T, db *executor.DB, dir string) {
	t.Helper()
	defer db.Close()
	if _, ok := db.Catalog().GetIndex("words_trie"); ok {
		t.Fatal("the crashed CREATE INDEX left its catalog entry")
	}
	if files := indexFiles(t, dir); len(files) != 0 {
		t.Fatalf("the crashed CREATE INDEX left files: %v", files)
	}
	if got := db.RebuiltIndexes(); len(got) != 0 {
		t.Fatalf("the reopen rebuilt %v", got)
	}
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatalf("CREATE INDEX again: %v", err)
	}
	tb, err := db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	want := seqPrefixRows(t, tb, "wa")
	if got := indexedPrefixRows(t, tb, "wa"); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("the index created again diverges from the heap:\n want %v\n got  %v", want, got)
	}
}

// verifyRebuiltIndex checks that words_trie was built again at the open of
// db, and agrees with the heap.
func verifyRebuiltIndex(t *testing.T, db *executor.DB) {
	t.Helper()
	defer db.Close()
	tb, err := db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt := db.RebuiltIndexes(); len(rebuilt) != 1 || rebuilt[0] != "words_trie" {
		t.Fatalf("expected words_trie rebuilt, got %v", rebuilt)
	}
	if len(tb.Indexes) != 1 {
		t.Fatalf("index not reattached after rebuild: %d indexes", len(tb.Indexes))
	}
	ie, ok := db.Catalog().GetIndex("words_trie")
	if !ok {
		t.Fatalf("catalog entry after rebuild: %+v ok=%v", ie, ok)
	}
	// A reattached partial build would miss rows: the rebuilt index
	// must cover the whole heap ...
	got := int64(0)
	if err := tb.Indexes[0].Idx.Scan("#=", catalog.NewText(""), func(heap.RID) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if want := tb.Heap.Count(); got != want {
		t.Fatalf("rebuilt index covers %d of %d rows — partial build reattached", got, want)
	}
	// ... and a forced index scan must agree with a sequential scan.
	want := seqPrefixRows(t, tb, "wa")
	if got := indexedPrefixRows(t, tb, "wa"); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("rebuilt index diverges from heap:\n want %v\n got  %v", want, got)
	}
}

// seqPrefixRows answers the same prefix query by scanning the heap
// directly — ground truth independent of any index the planner might
// otherwise pick.
func seqPrefixRows(t *testing.T, tb *executor.Table, prefix string) []string {
	t.Helper()
	var out []string
	err := tb.Heap.Scan(func(_ heap.RID, rec []byte) bool {
		tup, err := catalog.DecodeTuple(rec)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(tup[0].S, prefix) {
			out = append(out, tup[0].String()+"|"+tup[1].String())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func TestCrashMidIndexBuildLeavesNothing(t *testing.T) {
	db, dir := crashMidCreateIndex(t, 300)
	verifyCreateIndexLeftNothing(t, db, dir)
}

func TestCrashBeforeIndexCommitLeavesNothing(t *testing.T) {
	// The fault fires after the whole build, with the complete file
	// renamed into place, but before the entry commits: the file is an
	// orphan all the same.
	db, dir := crashMidCreateIndex(t, -1)
	verifyCreateIndexLeftNothing(t, db, dir)
}

func TestCrashMidCreateTableLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected crash")
	db := openCatalogDB(t, dir, executor.FaultInjection{
		BeforeDDLCommit: func(stmt string) error {
			if strings.HasPrefix(stmt, "CREATE TABLE orphan") {
				return boom
			}
			return nil
		},
	})
	if _, err := db.CreateTable("keeper", []executor.Column{{Name: "x", Type: catalog.Int}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("orphan", []executor.Column{{Name: "x", Type: catalog.Int}}); !errors.Is(err, boom) {
		t.Fatalf("CREATE TABLE did not hit the injected fault: %v", err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	// The orphaned heap file exists on disk (its pages were allocated
	// eagerly) even though its catalog entry never committed.
	files, _ := filepath.Glob(filepath.Join(dir, "rel*.tbl"))
	if len(files) != 2 {
		t.Fatalf("expected keeper + orphan heap files before reopen, found %v", files)
	}

	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	if _, err := db.Table("orphan"); err == nil {
		t.Fatal("uncommitted CREATE TABLE survived the crash")
	}
	if _, err := db.Table("keeper"); err != nil {
		t.Fatalf("committed table lost: %v", err)
	}
	// The orphaned file was swept.
	files, _ = filepath.Glob(filepath.Join(dir, "rel*.tbl"))
	if len(files) != 1 {
		t.Fatalf("orphan sweep left %v", files)
	}
	// Re-creating the table now must work and get a fresh file.
	tb, err := db.CreateTable("orphan", []executor.Column{{Name: "x", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(catalog.Tuple{catalog.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
}

func TestDropIndexAndTable(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 100)
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	idxFile := filepath.Join(dir, tb.Indexes[0].File())
	if _, err := os.Stat(idxFile); err != nil {
		t.Fatalf("index file missing before drop: %v", err)
	}

	if err := db.DropIndex("words_trie"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(idxFile); !os.IsNotExist(err) {
		t.Fatalf("index file survived DROP INDEX: %v", err)
	}
	if _, ok := db.Catalog().GetIndex("words_trie"); ok {
		t.Fatal("catalog entry survived DROP INDEX")
	}
	if len(tb.Indexes) != 0 {
		t.Fatal("in-memory index survived DROP INDEX")
	}
	// The table still answers queries (seq scan).
	n := 0
	if _, err := tb.Select(nil, func(executor.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("rows after DROP INDEX: %d", n)
	}

	tblFile := filepath.Join(dir, tb.File())
	if err := db.DropTable("words"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tblFile); !os.IsNotExist(err) {
		t.Fatalf("heap file survived DROP TABLE: %v", err)
	}
	if _, err := db.Table("words"); err == nil {
		t.Fatal("table survived DROP TABLE")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The drops are durable: a reopen rediscovers nothing.
	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	if len(db.Catalog().Tables()) != 0 || len(db.Catalog().Indexes()) != 0 {
		t.Fatalf("dropped relations resurfaced: %+v %+v", db.Catalog().Tables(), db.Catalog().Indexes())
	}
	// And the name can be reused with a different file (OIDs advance).
	tb2, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if tb2.File() == filepath.Base(tblFile) {
		t.Fatalf("recreated table reused file name %s", tb2.File())
	}
}

func TestDropRequiresExistingRelation(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	if err := db.DropTable("nope"); err == nil {
		t.Fatal("DROP TABLE of unknown table accepted")
	}
	if err := db.DropIndex("nope"); err == nil {
		t.Fatal("DROP INDEX of unknown index accepted")
	}
}

// A *failed* (as opposed to crashed) CREATE INDEX leaves nothing: the
// session keeps running, there is no entry and no file of the build, the
// name is reusable, and a reopen neither rebuilds nor errors.
func TestFailedIndexBuildHealsInSession(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 300)
	// Corrupt one key at the access-method level by hand-inserting an
	// undecodable heap record: the build's DecodeTuple fails mid-way.
	if _, err := tb.Heap.Insert([]byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("w_trie", "words", "name", "spgist", "spgist_trie"); err == nil {
		t.Fatal("CREATE INDEX over a corrupt row unexpectedly succeeded")
	}
	// The failed statement left nothing: no entry, no file, name free.
	if _, ok := db.Catalog().GetIndex("w_trie"); ok {
		t.Fatal("failed CREATE INDEX left its catalog entry")
	}
	if files := indexFiles(t, dir); len(files) != 0 {
		t.Fatalf("failed CREATE INDEX left files: %v", files)
	}
	// The database stays usable, and later statements' commit markers
	// must not resurrect the dead entry.
	if _, err := tb.Insert(catalog.Tuple{catalog.NewText("alive"), catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	if got := db.RebuiltIndexes(); len(got) != 0 {
		t.Fatalf("reopen rebuilt a healed index: %v", got)
	}
	if len(db.Catalog().Indexes()) != 0 {
		t.Fatalf("healed entry resurfaced: %+v", db.Catalog().Indexes())
	}
}

// DROP TABLE removes the entries of the table's indexes with its own.
func TestDropTableRemovesCatalogedIndexes(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 50)
	if _, err := db.CreateIndex("w_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("words"); err != nil {
		t.Fatal(err)
	}
	if n := len(db.Catalog().Indexes()); n != 0 {
		t.Fatalf("%d index entries survived DROP TABLE", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The catalog must load cleanly — a dangling index record would
	// fail the open.
	db = openCatalogDB(t, dir, executor.FaultInjection{})
	defer db.Close()
	if n := len(db.Catalog().Tables()) + len(db.Catalog().Indexes()); n != 0 {
		t.Fatalf("%d relations resurfaced after DROP TABLE", n)
	}
}

// Opening a fresh catalog over a directory holding pre-catalog
// (name-based) relation files must refuse loudly rather than present an
// empty schema that strands the old data.
func TestLegacyDirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	// Non-zero contents: a real pre-catalog file always has a non-zero
	// meta page (all-zero files are contentless husks and are healed,
	// not refused).
	legacyPage := make([]byte, 8192)
	legacyPage[0] = 0x50
	for _, f := range []string{"words.tbl", "words_trie.idx"} {
		if err := os.WriteFile(filepath.Join(dir, f), legacyPage, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := executor.Open(executor.Options{Dir: dir, WAL: true})
	if err == nil || !strings.Contains(err.Error(), "pre-catalog") {
		t.Fatalf("legacy directory not refused: %v", err)
	}

	// A pre-catalog table the user happened to name "rel5" produces a
	// file matching the catalog's own rel<oid> scheme; it must still be
	// refused, never swept as an orphan.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "rel5.tbl"), legacyPage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := executor.Open(executor.Options{Dir: dir2, WAL: true}); err == nil || !strings.Contains(err.Error(), "pre-catalog") {
		t.Fatalf("rel-named legacy directory not refused: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir2, "rel5.tbl")); err != nil {
		t.Fatalf("legacy file was destroyed: %v", err)
	}
}

// An index whose file vanished is rebuilt at open — and that rebuild must
// itself be crash-safe: it builds outside the log and renames the file
// into place complete, so an interrupted rebuild leaves the entry without
// its file, for the next open to build again.
func TestVanishedIndexFileRebuildIsCrashSafe(t *testing.T) {
	dir := t.TempDir()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 600)
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	idxFile := tb.Indexes[0].File()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, idxFile)); err != nil {
		t.Fatal(err)
	}

	// First reopen: the rebuild is interrupted after enough rows for the
	// 16-page pool of its build to have written pages.
	boom := errors.New("injected crash")
	_, err = executor.Open(executor.Options{
		Dir: dir, WAL: true, PoolPages: 16,
		Faults: executor.FaultInjection{DuringIndexBuild: func(rows int) error {
			if rows >= 300 {
				return boom
			}
			return nil
		}},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("open did not surface the injected rebuild crash: %v", err)
	}

	// Second reopen: the interrupted rebuild left no partial index to
	// reattach, and the index is built again.
	if _, err := os.Stat(filepath.Join(dir, idxFile)); !os.IsNotExist(err) {
		t.Fatalf("the interrupted rebuild left %s: %v", idxFile, err)
	}
	db = openCatalogDB(t, dir, executor.FaultInjection{})
	verifyRebuiltIndex(t, db)
}

// crashAfterCheckpoint loads 3 000 rows, builds a trie over them,
// checkpoints — the log then holds neither file's creation — inserts
// 300 rows more and crashes, returning the heap's and the index's file.
func crashAfterCheckpoint(t *testing.T, dir string) (heapFile, idxFile string) {
	t.Helper()
	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.CreateTable("words", []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	fillWords(t, tb, 3000)
	if _, err := db.CreateIndex("words_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 3000; i < 3300; i++ {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewText(fmt.Sprintf("wz%d", i)), catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	heapFile, idxFile = tb.File(), tb.Indexes[0].File()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	return heapFile, idxFile
}

// An index file deleted by hand after a crash comes back whole. The log
// holds the records of the statements since the last checkpoint but not
// the file's creation, so redo passes them rather than recreate the file
// from the pages they touch, and the open builds the index from the heap.
func TestHandDeletedIndexFileAfterCrashRebuiltWhole(t *testing.T) {
	dir := t.TempDir()
	_, idxFile := crashAfterCheckpoint(t, dir)
	if err := os.Remove(filepath.Join(dir, idxFile)); err != nil {
		t.Fatal(err)
	}

	db := openCatalogDB(t, dir, executor.FaultInjection{})
	tb, err := db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	want := seqPrefixRows(t, tb, "w")
	if len(want) != 3300 {
		t.Fatalf("the heap holds %d of 3300 rows after the crash", len(want))
	}
	if got := indexedPrefixRows(t, tb, "w"); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("an index scan finds %d rows, a sequential scan %d", len(got), len(want))
	}
	verifyRebuiltIndex(t, db)
}

// A heap file deleted by hand after a crash is not brought back as the
// pages the log's records touch: redo passes them, and the open refuses
// the table whose file is missing.
func TestHandDeletedHeapFileAfterCrashRefused(t *testing.T) {
	dir := t.TempDir()
	heapFile, _ := crashAfterCheckpoint(t, dir)
	if err := os.Remove(filepath.Join(dir, heapFile)); err != nil {
		t.Fatal(err)
	}
	_, err := executor.Open(executor.Options{Dir: dir, PoolPages: 16})
	if err == nil || !strings.Contains(err.Error(), "is missing") {
		t.Fatalf("open over a deleted heap file: %v, want the missing-file error", err)
	}
	// The open's check leaves the file it looked for, empty.
	if fi, err := os.Stat(filepath.Join(dir, heapFile)); err == nil && fi.Size() > 0 {
		t.Fatalf("redo wrote %d bytes into %s", fi.Size(), heapFile)
	}
}

// A DROP TABLE committed before a crash stays dropped: the reopen finds
// neither its entry nor its file, and the other table intact.
func TestDropSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	open := func() *executor.DB {
		db, err := executor.Open(executor.Options{Dir: dir, PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	for _, name := range []string{"keep", "victim"} {
		tb, err := db.CreateTable(name, []executor.Column{{Name: "x", Type: catalog.Int}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Insert(catalog.Tuple{catalog.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open()
	victim, err := db.Table("victim")
	if err != nil {
		t.Fatal(err)
	}
	victimFile := victim.File()
	if err := db.DropTable("victim"); err != nil {
		t.Fatal(err)
	}
	// Crash without Close: nothing buffered may be relied on.
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	if _, err := db.Table("victim"); err == nil {
		t.Fatal("dropped table resurfaced after a crash")
	}
	keep, err := db.Table("keep")
	if err != nil {
		t.Fatalf("surviving table lost: %v", err)
	}
	if n := keep.RowCount(); n != 1 {
		t.Fatalf("surviving table holds %d rows, want 1", n)
	}
	files, err := filepath.Glob(filepath.Join(dir, "rel*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != keep.File() {
		t.Fatalf("relation files after the reopen: %v, want only %s (%s was dropped)", files, keep.File(), victimFile)
	}
}

// A fresh on-disk database killed before its first commit reached the
// disk (or one an older build wrote without a log, killed before its
// first flush) leaves syscat.dat as eagerly-allocated zero pages;
// reopening must detect the contentless husk and heal, not fail forever
// on "bad magic".
func TestFreshCatalogHuskHeals(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "syscat.dat"), make([]byte, 16384), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := executor.Open(executor.Options{Dir: dir, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatalf("open over a zeroed catalog husk failed: %v", err)
	}
	if _, err := db.CreateTable("t", []executor.Column{{Name: "x", Type: catalog.Int}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A zeroed data-file husk alongside the catalog husk heals too (a
	// lazily-synced session crashed before its first fsync leaves this).
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "syscat.dat"), make([]byte, 16384), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "rel1.tbl"), make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := executor.Open(executor.Options{Dir: dir2, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatalf("zeroed husks not healed: %v", err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	// But a *non-zero* data file with no catalog is real stranded data:
	// the loud refusal wins.
	dir3 := t.TempDir()
	realPage := make([]byte, 8192)
	realPage[0] = 0x50
	if err := os.WriteFile(filepath.Join(dir3, "rel1.tbl"), realPage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := executor.Open(executor.Options{Dir: dir3, WALSync: wal.SyncLazy}); err == nil || !strings.Contains(err.Error(), "no system catalog") {
		t.Fatalf("stranded data file not refused: %v", err)
	}
}
