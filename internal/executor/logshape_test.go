package executor

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/wal"
)

// TestLogShapeImagesOnlyAtFirstTouch pins the one logging rule over one
// session with trie, B+-tree and R-tree indexes (and the kd-tree and
// quadtree beside them), run across a CHECKPOINT: every change to a page
// — heap, node or meta — is a record, and a page image is only ever the
// full-page write of a page's first touch whose content the log does not
// hold, shipped in the group whose records touch it. Before the checkpoint
// those are the pages each index build wrote outside the log, and every
// meta page is changed by slot records; after it, node pages of every
// index are imaged, each page at most once, and the first group with a
// record of a page carries that page's image.
func TestLogShapeImagesOnlyAtFirstTouch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WAL: true, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := rand.New(rand.NewSource(33))
	var tables []*Table
	built := map[string]uint32{} // pages each index build wrote
	id := int64(0)
	for ti := range oracleCrashTables[:2] {
		tb := oracleCrashCreate(t, db, ti, false)
		for _, ix := range tb.Indexes {
			built[ix.file] = ix.pool.DM().NumPages()
		}
		tups := make([]catalog.Tuple, 600)
		for i := range tups {
			tups[i] = catalog.Tuple{oracleCrashTables[ti].datum(r), catalog.NewInt(id)}
			id++
		}
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tb)
	}
	statements := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for ti, tb := range tables {
				var err error
				if i%4 == 3 {
					_, err = tb.DeleteWhere(&Pred{Column: 1, Op: "=", Arg: catalog.NewInt(r.Int63n(id))})
				} else {
					_, err = tb.Insert(catalog.Tuple{oracleCrashTables[ti].datum(r), catalog.NewInt(id)})
					id++
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	type pageKey struct {
		file string
		page uint32
	}
	// checkImages replays the log and checks that exactly the pages
	// needsImage names are imaged, each in the first group with a record
	// of it; it counts the meta records and node-page images per file.
	checkImages := func(when string, needsImage func(file string, page uint32) bool) (metaRecords, nodeImages map[string]int) {
		t.Helper()
		w := db.WAL()
		if err := w.Sync(w.AppendedLSN()); err != nil {
			t.Fatal(err)
		}
		metaRecords, nodeImages = map[string]int{}, map[string]int{}
		touched := map[pageKey]bool{} // pages a record of an earlier group covered
		inGroup := map[pageKey]bool{} // pages a record of this group covers
		imaged := map[pageKey]bool{}  // pages this group images
		if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
			key := pageKey{r.File, r.Page}
			switch {
			case r.Type == wal.RecCommit || r.Type == wal.RecCheckpoint:
				for k := range inGroup {
					// The converse, which recovery's torn-page license
					// relies on: a page's first group images it.
					if !touched[k] && !imaged[k] && needsImage(k.file, k.page) {
						t.Errorf("%s, LSN %d: the first group with a record of %s page %d carries no image of it", when, r.LSN, k.file, k.page)
					}
					touched[k] = true
				}
				clear(inGroup)
				clear(imaged)
			case r.Type == wal.RecPageImage:
				if touched[key] || imaged[key] || !inGroup[key] || !needsImage(r.File, r.Page) {
					t.Errorf("%s, LSN %d: image of %s page %d is not a first touch that needs one", when, r.LSN, r.File, r.Page)
				}
				imaged[key] = true
				if r.Page != 0 {
					nodeImages[r.File]++
				}
			case r.File != "" && r.Type != wal.RecFileCreate:
				inGroup[key] = true
				if r.Page == 0 {
					metaRecords[r.File]++
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return metaRecords, nodeImages
	}

	statements(40)
	metaRecords, _ := checkImages("before the first checkpoint", func(file string, page uint32) bool {
		return page < built[file]
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	statements(40)
	_, nodeImages := checkImages("after the checkpoint", func(string, uint32) bool { return true })
	for _, tb := range tables {
		for _, ix := range tb.Indexes {
			if metaRecords[ix.file] == 0 || nodeImages[ix.file] == 0 {
				t.Errorf("%s (%s): %d meta records before the checkpoint and %d node-page images after it, want some of both",
					ix.Name, ix.OpClass.Name, metaRecords[ix.file], nodeImages[ix.file])
			}
		}
	}
}
