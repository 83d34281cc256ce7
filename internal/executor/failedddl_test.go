package executor_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/storage"
)

// failedDDLDB opens the database in dir, logged or not, in a 16-page
// pool, with the system catalog's file wrapped for fault injection; the
// wrapper is returned through *catFaults.
func failedDDLDB(t *testing.T, dir string, logged bool, catFaults **storage.FaultDiskManager) *executor.DB {
	t.Helper()
	db, err := executor.Open(executor.Options{
		Dir: dir, WAL: logged, PoolPages: 16,
		DiskFaults: func(name string, dm storage.DiskManager) storage.DiskManager {
			if name != "syscat.dat" || catFaults == nil {
				return dm
			}
			*catFaults = storage.WithFaults(dm, 1)
			return *catFaults
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// describeCatalog renders what the system catalog holds — every table,
// index and statistics record (the churn counter, which a clean Close
// folds in, left out) — skipping table skip and its indexes.
func describeCatalog(db *executor.DB, skip string) string {
	var b strings.Builder
	cat := db.Catalog()
	skipOID := uint64(0)
	for _, te := range cat.Tables() {
		if te.Name == skip {
			skipOID = te.OID
			continue
		}
		fmt.Fprintf(&b, "table %+v\n", te)
	}
	for _, ie := range cat.Indexes() {
		if ie.TableOID != skipOID {
			fmt.Fprintf(&b, "index %+v\n", ie)
		}
	}
	for _, s := range cat.AllStats() {
		if s.TableOID != skipOID {
			fmt.Fprintf(&b, "stats %d rows=%d sample=%d cols=%d\n", s.TableOID, s.Rows, s.SampleRows, len(s.Cols))
		}
	}
	return b.String()
}

// pushCatalogOut scans table t twice, so that every catalog page is
// evicted from the 16-page pool and the statement under test reads each
// page it touches. No checkpoint: the log keeps no page images, which
// would mask, on replay, records that should never have been logged.
func pushCatalogOut(t *testing.T, tb *executor.Table) {
	t.Helper()
	for range 2 {
		if _, err := tb.Select(nil, func(executor.Row) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
}

// failSecondCatalogRead makes the next read of the catalog's file succeed
// and the one after it fail for good: three transient faults in a row
// outlast the buffer pool's retries. The read after those succeeds again.
func failSecondCatalogRead(f *storage.FaultDiskManager) {
	next := f.Calls(storage.FaultRead) + 1
	for i := int64(1); i <= 3; i++ {
		f.AddRule(storage.FaultRule{Op: storage.FaultRead, Kind: storage.FaultTransient, Nth: next + i})
	}
}

// TestFailedDDLRestoresCatalog: a DDL statement that fails after writing
// catalog records leaves the catalog exactly as the last commit left it —
// in memory, under the next statement's commit marker, and on a reopen —
// and leaves the database healthy, with no index file the catalog does not
// name. Each statement but one fails on a read of a catalog page (its
// second one) after it changed another; CREATE INDEX also fails in its
// build, after it added its entry, on a row the build cannot decode.
// Logged and unlogged.
func TestFailedDDLRestoresCatalog(t *testing.T) {
	cases := []struct {
		name string
		// corrupt inserts a row no index build can decode, instead of
		// failing a catalog read.
		corrupt bool
		run     func(db *executor.DB, tb *executor.Table) error
	}{
		{name: "create table", run: func(db *executor.DB, _ *executor.Table) error {
			_, err := db.CreateTable("u", tortureCols())
			return err
		}},
		{name: "create table on a new page", run: func(db *executor.DB, _ *executor.Table) error {
			// A table record of 40 long column names fills most of a
			// page of its own.
			cols := make([]executor.Column, 40)
			for i := range cols {
				cols[i] = executor.Column{Name: fmt.Sprintf("%0150d", i), Type: catalog.Int}
			}
			_, err := db.CreateTable("u", cols)
			return err
		}},
		{name: "create index", run: func(db *executor.DB, _ *executor.Table) error {
			_, err := db.CreateIndex("t_bt", "t", "name", "btree", "btree_text")
			return err
		}},
		{name: "create index in its build", corrupt: true, run: func(db *executor.DB, _ *executor.Table) error {
			_, err := db.CreateIndex("t_bt", "t", "name", "btree", "btree_text")
			return err
		}},
		{name: "drop index", run: func(db *executor.DB, _ *executor.Table) error {
			return db.DropIndex("t_trie")
		}},
		{name: "drop table", run: func(db *executor.DB, _ *executor.Table) error {
			return db.DropTable("t")
		}},
		{name: "analyze", run: func(_ *executor.DB, tb *executor.Table) error {
			return tb.Analyze()
		}},
	}
	for _, logged := range []bool{true, false} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/logged=%v", c.name, logged), func(t *testing.T) {
				dir := t.TempDir()
				var catFaults *storage.FaultDiskManager
				db := failedDDLDB(t, dir, logged, &catFaults)
				defer func() { db.Crash() }()
				tb, err := db.CreateTable("t", tortureCols())
				if err != nil {
					t.Fatal(err)
				}
				rows := make([]catalog.Tuple, 1200)
				for i := range rows {
					rows[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("%0200d", i)), catalog.NewInt(int64(i))}
				}
				if _, err := tb.InsertBatch(rows); err != nil {
					t.Fatal(err)
				}
				if _, err := db.CreateIndex("t_trie", "t", "name", "spgist", "spgist_trie"); err != nil {
					t.Fatal(err)
				}
				if err := tb.Analyze(); err != nil {
					t.Fatal(err)
				}
				// New rows, so that a second ANALYZE would change the record.
				if _, err := tb.InsertBatch(rows[:100]); err != nil {
					t.Fatal(err)
				}
				if c.corrupt {
					if _, err := tb.Heap.Insert([]byte{0xFF, 0xFF, 0xFF}); err != nil {
						t.Fatal(err)
					}
				}
				before := describeCatalog(db, "")

				if !c.corrupt {
					pushCatalogOut(t, tb)
					failSecondCatalogRead(catFaults)
				}
				err = c.run(db, tb)
				switch {
				case err == nil:
					t.Fatal("the statement did not fail")
				case !c.corrupt && !errors.Is(err, storage.ErrInjectedIO):
					t.Fatalf("the statement failed on %v, not on the injected read fault", err)
				}
				if got := describeCatalog(db, ""); got != before {
					t.Fatalf("catalog after the failed statement:\n%s\nwant, as before it:\n%s", got, before)
				}
				if state, detail := db.State(); state != "ok" {
					t.Fatalf("SHOW STATE after the failed statement: %s %s", state, detail)
				}
				named := map[string]bool{}
				for _, ie := range db.Catalog().Indexes() {
					named[filepath.Join(dir, ie.File)] = true
				}
				files, err := filepath.Glob(filepath.Join(dir, "rel*.idx*"))
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range files {
					if !named[f] {
						t.Fatalf("the failed statement left %s", filepath.Base(f))
					}
				}
				if _, err := db.CreateTable("next", tortureCols()); err != nil {
					t.Fatalf("DDL after the failed statement: %v", err)
				}
				// Under a log, reopen from a crash: recovery replays the
				// next statement's log frame, where the failed statement's
				// records would ride had they not been dropped.
				if logged {
					err = db.Crash()
				} else {
					err = db.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
				db = failedDDLDB(t, dir, logged, nil)
				if got := describeCatalog(db, "next"); got != before {
					t.Fatalf("catalog after a reopen:\n%s\nwant, as before the failed statement:\n%s", got, before)
				}
				if got := db.RebuiltIndexes(); len(got) != 0 {
					t.Fatalf("the reopen rebuilt %v", got)
				}
			})
		}
	}
}

// TestFailedCreateTableBurnsItsOID: a reverted CREATE TABLE has handed out
// its OID, and its file stays behind (or is named in the log), so the
// next CREATE TABLE takes the OID after it and a fresh file name.
func TestFailedCreateTableBurnsItsOID(t *testing.T) {
	for _, logged := range []bool{true, false} {
		t.Run(fmt.Sprintf("logged=%v", logged), func(t *testing.T) {
			dir := t.TempDir()
			var catFaults *storage.FaultDiskManager
			db := failedDDLDB(t, dir, logged, &catFaults)
			defer func() { db.Crash() }()
			tb, err := db.CreateTable("t", tortureCols())
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]catalog.Tuple, 1200)
			for i := range rows {
				rows[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("%0200d", i)), catalog.NewInt(int64(i))}
			}
			if _, err := tb.InsertBatch(rows); err != nil {
				t.Fatal(err)
			}
			pushCatalogOut(t, tb)
			failSecondCatalogRead(catFaults)
			if _, err := db.CreateTable("u", tortureCols()); !errors.Is(err, storage.ErrInjectedIO) {
				t.Fatalf("CREATE TABLE u: %v, want the injected read fault", err)
			}
			burnt := fmt.Sprintf("rel%d.tbl", tb.OID()+1)
			if _, err := os.Stat(filepath.Join(dir, burnt)); err != nil {
				t.Fatalf("the failed CREATE TABLE's file: %v", err)
			}
			u, err := db.CreateTable("u", tortureCols())
			if err != nil {
				t.Fatal(err)
			}
			if want := tb.OID() + 2; u.OID() != want || u.File() != fmt.Sprintf("rel%d.tbl", want) {
				t.Fatalf("CREATE TABLE after the failed one: OID %d, file %s; want OID %d", u.OID(), u.File(), want)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = failedDDLDB(t, dir, logged, nil)
			v, err := db.CreateTable("v", tortureCols())
			if err != nil {
				t.Fatal(err)
			}
			if want := tb.OID() + 3; v.OID() != want {
				t.Fatalf("CREATE TABLE after a reopen: OID %d, want %d", v.OID(), want)
			}
		})
	}
}
