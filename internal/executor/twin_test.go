package executor

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestRecoveredPagesMatchTwin runs one script on two databases: a batch
// load into a trie and a kd-tree table, a CHECKPOINT, then single-row
// inserts, updates and deletes — leaf appends, leaf shrinks and AddNode,
// logged as slot patches, and first touches of pages the checkpoint left
// clean, logged with images that leave out their free gap. One database
// closes cleanly. The other ends in a crash in which one index page and
// one heap page are torn — their last write-back landed its first 512
// bytes — and recovers. Every data page of every file must then hold the
// same live slots with the same record bytes as the twin's; only the bytes
// of the free gap may differ.
func TestRecoveredPagesMatchTwin(t *testing.T) {
	twinDir, crashDir := t.TempDir(), t.TempDir()
	twin := openTwin(t, twinDir, nil)
	twinScript(t, twin)
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}

	faults := map[string]*storage.FaultDiskManager{}
	db := openTwin(t, crashDir, func(file string, dm storage.DiskManager) storage.DiskManager {
		faults[file] = storage.WithFaults(dm, 1)
		return faults[file]
	})
	twinScript(t, db)
	words, err := db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range []*storage.BufferPool{words.Indexes[0].pool, words.Heap.Pool()} {
		tearDirtyPage(t, bp, faults[bp.FileName()])
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	// The log the recovery replays carries what this test is about.
	patches, holes := 0, 0
	if _, err := wal.Replay(filepath.Join(crashDir, "wal"), func(r *wal.Record) error {
		switch {
		case r.Type == wal.RecSlotPatch:
			patches++
		case r.Type == wal.RecPageImage && r.Page != 0 && r.HoleLen > 0:
			holes++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if patches == 0 || holes == 0 {
		t.Fatalf("the log holds %d slot patches and %d holed images of data pages, want some of both", patches, holes)
	}
	db = openTwin(t, crashDir, nil)
	if rs := db.RecoveryStats(); rs.TornPages != 2 || rs.TornRepaired != 2 || rs.SlotPatches == 0 {
		t.Fatalf("recovery found %d torn pages, repaired %d and applied %d patches, want 2, 2 and some", rs.TornPages, rs.TornRepaired, rs.SlotPatches)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(twinDir, "rel*"))
	if err != nil || len(files) != 4 {
		t.Fatalf("the twin has relation files %v (%v), want two heaps and two indexes", files, err)
	}
	for _, f := range append(files, filepath.Join(twinDir, "syscat.dat")) {
		name := filepath.Base(f)
		want, got := readPages(t, f), readPages(t, filepath.Join(crashDir, name))
		if len(got) != len(want) {
			t.Fatalf("%s: %d pages after recovery, the twin has %d", name, len(got), len(want))
		}
		for id := 1; id < len(want); id++ {
			if w, g := liveSlots(want[id]), liveSlots(got[id]); w != g {
				t.Fatalf("%s page %d after recovery holds\n%s\nthe twin's holds\n%s", name, id, g, w)
			}
		}
	}
}

// tearDirtyPage tears one data page of bp the way a power cut tears a
// write: the first data page whose cached frame differs from its disk copy
// past the first 512 bytes is written through the file's fault manager
// with a torn rule armed, so only those 512 bytes land. The frame stays
// dirty and pinned, so no later eviction writes the page whole again; a
// crash discards it. It returns the torn page's id.
func tearDirtyPage(t *testing.T, bp *storage.BufferPool, fdm *storage.FaultDiskManager) storage.PageID {
	t.Helper()
	const torn = 512
	disk := make([]byte, bp.DM().PageSize())
	for id := storage.PageID(1); id < storage.PageID(bp.DM().NumPages()); id++ {
		p := mustFetch(t, bp, id)
		img := bytes.Clone(p.Data)
		storage.StampPageChecksum(img)
		if err := bp.DM().ReadPage(id, disk); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(img[torn:], disk[torn:]) {
			bp.Unpin(p, false)
			continue
		}
		fdm.AddRule(storage.FaultRule{Op: storage.FaultWrite, Kind: storage.FaultTorn, Nth: fdm.Calls(storage.FaultWrite) + 1, TornBytes: torn})
		if err := fdm.WritePage(id, img); !errors.Is(err, storage.ErrInjectedIO) || fdm.Counters().TornWrites != 1 {
			t.Fatalf("%s page %d: the torn write returned %v after %d torn writes, want an injected error after 1", bp.FileName(), id, err, fdm.Counters().TornWrites)
		}
		return id
	}
	t.Fatalf("%s: no data page is dirty past its first %d bytes", bp.FileName(), torn)
	return storage.InvalidPageID
}

// openTwin opens the on-disk, logged database of TestRecoveredPagesMatchTwin.
func openTwin(t *testing.T, dir string, faults func(string, storage.DiskManager) storage.DiskManager) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, WAL: true, PoolPages: 128, DiskFaults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// twinScript is the seeded script both databases run.
func twinScript(t *testing.T, db *DB) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(27))
	words := datagen.Words(700, 27)
	pts := datagen.Points(700, 28, geom.MakeBox(0, 0, 100, 100))
	key := func(ti, i int) catalog.Datum {
		if ti == 1 {
			return catalog.NewPoint(pts[i])
		}
		return catalog.NewText(words[i])
	}
	var tables [2]*Table
	for ti, def := range [][3]string{{"words", "w_trie", "spgist_trie"}, {"pts", "p_kd", "spgist_kdtree"}} {
		typ := catalog.Text
		if ti == 1 {
			typ = catalog.Point
		}
		tb, err := db.CreateTable(def[0], []Column{{"k", typ}, {"id", catalog.Int}})
		must(err)
		_, err = db.CreateIndex(def[1], def[0], "k", "spgist", def[2])
		must(err)
		tups := make([]catalog.Tuple, 400)
		for i := range tups {
			tups[i] = catalog.Tuple{key(ti, i), catalog.NewInt(int64(i))}
		}
		_, err = tb.InsertBatch(tups)
		must(err)
		tables[ti] = tb
	}
	must(db.Checkpoint())
	idPred := func(id int) *Pred { return &Pred{Column: 1, Op: "=", Arg: catalog.NewInt(int64(id))} }
	for i := 400; i < 700; i++ {
		for ti, tb := range tables {
			_, err := tb.Insert(catalog.Tuple{key(ti, i), catalog.NewInt(int64(i))})
			must(err)
			switch i % 3 {
			case 0:
				_, err = tb.DeleteWhere(idPred(r.Intn(i)))
			case 1:
				_, err = tb.UpdateWhere(idPred(r.Intn(i)), []ColUpdate{{Column: 0, Value: key(ti, r.Intn(len(words)))}})
			}
			must(err)
		}
	}
}

// readPages returns the pages of the relation file at path.
func readPages(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pages [][]byte
	for len(raw) >= storage.DefaultPageSize {
		pages = append(pages, raw[:storage.DefaultPageSize])
		raw = raw[storage.DefaultPageSize:]
	}
	return pages
}

// liveSlots renders the live slots of a slotted page, one per line.
func liveSlots(page []byte) string {
	var b strings.Builder
	storage.SlotForEach(page, func(slot int, rec []byte) bool {
		fmt.Fprintf(&b, "slot %d: %x\n", slot, rec)
		return true
	})
	return b.String()
}
