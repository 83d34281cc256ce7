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
// full-page write of a page's first touch since the checkpoint, shipped
// in the group whose records touch it. Before the checkpoint the log holds
// no image at all and every meta page is changed by slot records; after
// it, node pages of every index are imaged, each page at most once, and
// the first group with a record of a page carries that page's image.
func TestLogShapeImagesOnlyAtFirstTouch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, WAL: true, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := rand.New(rand.NewSource(33))
	var tables []*Table
	id := int64(0)
	for ti := range oracleCrashTables[:2] {
		tb := oracleCrashCreate(t, db, ti, false)
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
	replay := func(fn func(r *wal.Record)) {
		t.Helper()
		w := db.WAL()
		if err := w.Sync(w.AppendedLSN()); err != nil {
			t.Fatal(err)
		}
		if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
			fn(r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	statements(40)
	metaRecords := map[string]int{}
	replay(func(r *wal.Record) {
		switch {
		case r.Type == wal.RecPageImage:
			t.Errorf("LSN %d: image of %s page %d before the first checkpoint", r.LSN, r.File, r.Page)
		case r.File != "" && r.Page == 0:
			metaRecords[r.File]++
		}
	})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	statements(40)
	touched := map[pageKey]bool{} // pages a record of an earlier group covered
	inGroup := map[pageKey]bool{} // pages a record of this group covers
	imaged := map[pageKey]bool{}  // pages this group images
	nodeImages := map[string]int{}
	replay(func(r *wal.Record) {
		key := pageKey{r.File, r.Page}
		switch {
		case r.Type == wal.RecCommit || r.Type == wal.RecCheckpoint:
			for k := range inGroup {
				// The converse, which recovery's torn-page license relies
				// on: a page's first group since the checkpoint images it.
				if !touched[k] && !imaged[k] {
					t.Errorf("LSN %d: the first group since the checkpoint with a record of %s page %d carries no image of it", r.LSN, k.file, k.page)
				}
				touched[k] = true
			}
			clear(inGroup)
			clear(imaged)
		case r.Type == wal.RecPageImage:
			if touched[key] || imaged[key] || !inGroup[key] {
				t.Errorf("LSN %d: image of %s page %d is not its first touch since the checkpoint", r.LSN, r.File, r.Page)
			}
			imaged[key] = true
			if r.Page != 0 {
				nodeImages[r.File]++
			}
		case r.File != "":
			inGroup[key] = true
		}
	})
	for _, tb := range tables {
		for _, ix := range tb.Indexes {
			if metaRecords[ix.file] == 0 || nodeImages[ix.file] == 0 {
				t.Errorf("%s (%s): %d meta records before the checkpoint and %d node-page images after it, want some of both",
					ix.Name, ix.OpClass.Name, metaRecords[ix.file], nodeImages[ix.file])
			}
		}
	}
}
