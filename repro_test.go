package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/wal"
)

func TestFacadeQuickstart(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	db.MustExec(`CREATE TABLE word_data (name VARCHAR, id INT)`)
	db.MustExec(`CREATE INDEX trie_idx ON word_data USING spgist (name spgist_trie)`)
	db.MustExec(`INSERT INTO word_data VALUES ('random', 1), ('spade', 2)`)
	res, err := db.Exec(`SELECT * FROM word_data WHERE name ?= 'r?nd?m'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].I != 1 {
		t.Fatalf("quickstart query: %+v", res.Rows)
	}
}

func TestCatalogExposure(t *testing.T) {
	ams := AccessMethods()
	names := map[string]bool{}
	for _, am := range ams {
		names[am.Name] = true
	}
	for _, want := range []string{"spgist", "btree", "rtree"} {
		if !names[want] {
			t.Errorf("access method %q missing", want)
		}
	}
	ocs := OperatorClasses()
	ocNames := map[string]bool{}
	for _, oc := range ocs {
		ocNames[oc.Name] = true
	}
	for _, want := range []string{"spgist_trie", "spgist_suffix", "spgist_kdtree",
		"spgist_pquadtree", "spgist_pmr", "btree_text", "rtree_point", "rtree_segment"} {
		if !ocNames[want] {
			t.Errorf("operator class %q missing", want)
		}
	}
}

func TestFacadeOnDisk(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE t (name VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES ('persisted')`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// The persistent catalog rediscovers the table; no re-declaration.
	res := db2.MustExec(`SELECT * FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "persisted" {
		t.Fatalf("reopen: %v", res.Rows)
	}
}

// TestDirOnlyDatabaseSurvivesCrash: an on-disk database opened with no
// option but its directory is write-ahead logged, so every row a
// statement committed comes back after a crash.
func TestDirOnlyDatabaseSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE t (name VARCHAR, id INT)`)
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = fmt.Sprintf("('row%03d', %d)", i, i)
	}
	db.MustExec(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
	if err := db.Engine().Crash(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Exec(`SELECT * FROM t`)
	if err != nil {
		t.Fatalf("after the crash: %v", err)
	}
	if len(res.Rows) != len(vals) {
		t.Fatalf("%d of %d committed rows came back after the crash", len(res.Rows), len(vals))
	}
	seen := make(map[int64]bool)
	for _, r := range res.Rows {
		if want := fmt.Sprintf("row%03d", r[1].I); r[0].S != want || seen[r[1].I] {
			t.Fatalf("row %v after the crash", r)
		}
		seen[r[1].I] = true
	}
}
