package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
)

// touchNode stores rec as a node record on page id the way core.Tree
// does — slotted insert, slot-put record deferred to the commit point —
// and returns how many records and how many page images the statement's
// group then carries for the pool.
func touchNode(t *testing.T, bp *BufferPool, w *wal.Writer, id PageID, rec []byte) (records, images int) {
	t.Helper()
	p, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if SlotAreaBlank(p.Data) {
		SlotInit(p.Data)
	}
	slot, ok := SlotInsert(p.Data, rec)
	if !ok {
		t.Fatalf("page %d is full", id)
	}
	bp.UnpinDeferred(p, func(g *wal.Group, file string) int {
		return g.AddSlotPut(file, uint32(id), uint16(slot), rec)
	})
	g := wal.NewGroup()
	staged := bp.StagePending(g)
	lsns, _, err := w.AppendGroupCommit(g)
	if err != nil {
		t.Fatal(err)
	}
	bp.ResolvePending(staged, lsns)
	for _, s := range staged {
		if s.Image {
			images++
		} else {
			records++
		}
	}
	return records, images
}

// TestFirstTouchImages pins when a page covered by logical records also
// ships a full image: on its first touch since the last checkpoint, and
// not before the first one — for an index file exactly as for a heap
// file.
func TestFirstTouchImages(t *testing.T) {
	for name, file := range map[string]string{"index": "rel2.idx", "heap": "rel1.tbl"} {
		t.Run(name, func(t *testing.T) {
			w := openMarkedWAL(t, t.TempDir(), wal.Options{})
			defer w.Close()
			bp := NewBufferPool(file, NewMem(256), 4)
			bp.pool.AttachWAL(w)
			for i := 0; i < 8; i++ { // a meta page and seven data pages: twice the pool
				p, err := bp.NewPage()
				if err != nil {
					t.Fatal(err)
				}
				bp.Unpin(p, false)
			}
			expect := func(when string, wantImages int) {
				t.Helper()
				if recs, imgs := touchNode(t, bp, w, 1, []byte(when)); recs != 1 || imgs != wantImages {
					t.Fatalf("%s: group carries %d records and %d images, want 1 and %d", when, recs, imgs, wantImages)
				}
			}
			// (a) No checkpoint yet: the log reaches back to the file's
			// creation, so a torn page can be rebuilt without an image.
			expect("first touch ever", 0)
			expect("second touch", 0)
			// (b) A checkpoint recycles the log: the next touch ships an
			// image again, the one after it does not.
			checkpoint := func() {
				t.Helper()
				if err := bp.FlushAll(); err != nil {
					t.Fatal(err)
				}
				if _, err := w.Checkpoint(wal.CheckpointState{}); err != nil {
					t.Fatal(err)
				}
			}
			checkpoint()
			expect("first touch after the checkpoint", 1)
			expect("second touch after the checkpoint", 0)
			// (c) Evicted and reloaded, the frame has forgotten that it was
			// imaged, but the page says so itself: its on-page LSN is past
			// the checkpoint.
			if err := bp.FlushAll(); err != nil {
				t.Fatal(err)
			}
			before := bp.Stats()
			for id := PageID(2); id < 8; id++ {
				p, err := bp.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				bp.Unpin(p, false)
			}
			expect("touch after eviction and reload", 0)
			if after := bp.Stats(); after.Evictions == before.Evictions || after.Misses < before.Misses+7 {
				t.Fatalf("page 1 was not evicted and reloaded: %+v -> %+v", before, after)
			}
			checkpoint()
			expect("first touch after the second checkpoint", 1)
		})
	}
}

// TestFirstTouchImageOfUnloggedPage: a page written outside the log — an
// index build's, whose file is synced before any record names it — has
// no creation in the log to be rebuilt from, so its first touch ships an
// image before any checkpoint too, and only its first; a blank page of
// the same file does not.
func TestFirstTouchImageOfUnloggedPage(t *testing.T) {
	dm := NewMem(256)
	build := NewBufferPool("rel2.idx", dm, 4)
	for _, rec := range []string{"built", ""} {
		p, err := build.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if rec != "" {
			SlotInit(p.Data)
			SlotInsert(p.Data, []byte(rec))
		}
		build.Unpin(p, true)
	}
	if err := build.FlushAll(); err != nil {
		t.Fatal(err)
	}
	w := openMarkedWAL(t, t.TempDir(), wal.Options{})
	defer w.Close()
	bp := NewBufferPool("rel2.idx", dm, 4)
	bp.pool.AttachWAL(w)
	for _, c := range []struct {
		when   string
		page   PageID
		images int
	}{
		{"first touch of the built page", 0, 1},
		{"second touch of the built page", 0, 0},
		{"first touch of the blank page", 1, 0},
	} {
		if recs, imgs := touchNode(t, bp, w, c.page, []byte(c.when)); recs != 1 || imgs != c.images {
			t.Fatalf("%s: group carries %d records and %d images, want 1 and %d", c.when, recs, imgs, c.images)
		}
	}
}

// addImage stages an image of page in g as the buffer pool does, its hole
// left out.
func addImage(g *wal.Group, file string, id uint32, page []byte) {
	off, n := pageHole(page)
	g.AddPageImage(file, id, page, off, n)
}

// slottedPage returns a page-size slotted area holding recs in slots 0….
func slottedPage(size int, recs ...string) []byte {
	page := make([]byte, size)
	SlotInit(page)
	for _, r := range recs {
		SlotInsert(page, []byte(r))
	}
	return page
}

// TestRecoverySameStreamSamePage: recovery does not look at what kind of
// file a page belongs to. The same record stream over the same torn page
// (garbage, as a half-landed write leaves it) recovers an index file and
// a heap file to the same bytes with the same statistics: the page fails
// its checksum, is reinitialized under the license of the surviving
// image, every record is applied in LSN order, and the image lays the
// page down whole on its way.
func TestRecoverySameStreamSamePage(t *testing.T) {
	const pageSize = 256
	recovered := make(map[string][]byte)
	stats := make(map[string]RecoveryStats)
	for _, file := range []string{"rel2.idx", "rel1.tbl"} {
		t.Run(file, func(t *testing.T) {
			dataDir := t.TempDir()
			walDir := filepath.Join(dataDir, "wal")
			w := openMarkedWAL(t, walDir, wal.Options{})
			g := wal.NewGroup()
			g.AddSlotPut(file, 1, 0, []byte("from the record"))
			addImage(g, file, 1, slottedPage(pageSize, "from the image"))
			g.AddSlotPut(file, 1, 1, []byte("after the image"))
			if _, _, err := w.AppendGroupCommit(g); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			dm, err := OpenFile(filepath.Join(dataDir, file), pageSize)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := dm.AllocatePage(); err != nil {
					t.Fatal(err)
				}
			}
			if err := dm.WritePage(1, bytes.Repeat([]byte{0xEE}, pageSize)); err != nil {
				t.Fatal(err)
			}
			dm.Close()

			st, err := RecoverDir(dataDir, walDir, pageSize, 16)
			if err != nil {
				t.Fatal(err)
			}
			if st.TornPages != 1 || st.TornRepaired != 1 || st.SlotPuts != 2 || st.PageImages != 1 {
				t.Fatalf("recovery stats %+v, want 1 torn page repaired, 2 puts, 1 image", st)
			}
			st.FilesTouched = 0 // the two runs share nothing but the stream
			stats[file] = st
			dm, err = OpenFile(filepath.Join(dataDir, file), pageSize)
			if err != nil {
				t.Fatal(err)
			}
			defer dm.Close()
			page := make([]byte, pageSize)
			if err := dm.ReadPage(1, page); err != nil {
				t.Fatal(err)
			}
			if got := string(SlotRead(page, 0)) + " / " + string(SlotRead(page, 1)); got != "from the image / after the image" {
				t.Fatalf("page 1 after recovery holds %q", got)
			}
			if _, _, ok := VerifyPageChecksum(page); !ok || PageLSN(page) == 0 {
				t.Fatalf("page 1 left recovery unstamped: lsn=%d checksum ok=%v", PageLSN(page), ok)
			}
			recovered[file] = page
		})
	}
	if !bytes.Equal(recovered["rel2.idx"], recovered["rel1.tbl"]) {
		t.Fatalf("the same stream recovered different pages:\n idx %x\n tbl %x", recovered["rel2.idx"], recovered["rel1.tbl"])
	}
	if !reflect.DeepEqual(stats["rel2.idx"], stats["rel1.tbl"]) {
		t.Fatalf("the same stream recovered with different statistics:\n idx %+v\n tbl %+v", stats["rel2.idx"], stats["rel1.tbl"])
	}
}

// TestRecoveryUnitSpansTwoFrames: recovery's unit is the records up to
// the next marker, however many frames hold them. A slot put on a torn
// page, appended with no marker, is licensed by the page's image in the
// frame that closes its unit; without that frame the put is the
// uncommitted tail, and no page is written.
func TestRecoveryUnitSpansTwoFrames(t *testing.T) {
	const pageSize = 256
	const file = "rel2.idx"
	for name, closed := range map[string]bool{"closed": true, "tail": false} {
		t.Run(name, func(t *testing.T) {
			dataDir := t.TempDir()
			walDir := filepath.Join(dataDir, "wal")
			w := openMarkedWAL(t, walDir, wal.Options{})
			g := wal.NewGroup()
			g.AddSlotPut(file, 1, 0, []byte("before the image"))
			if _, err := w.AppendGroup(g); err != nil {
				t.Fatal(err)
			}
			if closed {
				g = wal.NewGroup()
				addImage(g, file, 1, slottedPage(pageSize, "from the image"))
				g.AddSlotPut(file, 1, 1, []byte("after the image"))
				if _, _, err := w.AppendGroupCommit(g); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			dm, err := OpenFile(filepath.Join(dataDir, file), pageSize)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := dm.AllocatePage(); err != nil {
					t.Fatal(err)
				}
			}
			if err := dm.WritePage(1, bytes.Repeat([]byte{0xEE}, pageSize)); err != nil {
				t.Fatal(err)
			}
			dm.Close()

			st, err := RecoverDir(dataDir, walDir, pageSize, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !closed {
				if st.TailDiscarded != 1 || st.PagesWritten != 0 || st.TornPages != 0 {
					t.Fatalf("recovery stats %+v, want the put discarded as the tail and no page written", st)
				}
				return
			}
			if st.TornPages != 1 || st.TornRepaired != 1 || st.SlotPuts != 2 || st.PageImages != 1 || st.TailDiscarded != 0 {
				t.Fatalf("recovery stats %+v, want 1 torn page repaired, 2 puts, 1 image", st)
			}
			dm, err = OpenFile(filepath.Join(dataDir, file), pageSize)
			if err != nil {
				t.Fatal(err)
			}
			defer dm.Close()
			page := make([]byte, pageSize)
			if err := dm.ReadPage(1, page); err != nil {
				t.Fatal(err)
			}
			if got := string(SlotRead(page, 0)) + " / " + string(SlotRead(page, 1)); got != "from the image / after the image" {
				t.Fatalf("page 1 after recovery holds %q", got)
			}
		})
	}
}

// TestRecoverDirRejectsDamagedSlotRecords: a slot record whose slot cannot
// exist on a page, whose payload no page can hold, whose page lies far
// beyond the file, or that patches a meta record the log never put is a
// damaged log. Recovery says so; it does not panic,
// and it does not extend the file by four billion pages to get there.
func TestRecoverDirRejectsDamagedSlotRecords(t *testing.T) {
	const pageSize = 256
	cases := []struct {
		name  string
		build func(g *wal.Group)
		want  string
	}{
		{"slot out of range", func(g *wal.Group) { g.AddSlotPut("rel2.idx", 1, 60000, []byte("node")) }, "does not fit"},
		{"oversize payload", func(g *wal.Group) { g.AddSlotPut("rel2.idx", 1, 0, make([]byte, 4*pageSize)) }, "does not fit"},
		{"oversize replacement", func(g *wal.Group) {
			g.AddSlotPut("rel2.idx", 1, 0, []byte("node"))
			g.AddSlotPut("rel2.idx", 1, 0, make([]byte, 4*pageSize))
		}, "does not fit"},
		{"page beyond the file", func(g *wal.Group) { g.AddSlotPut("rel2.idx", 4_000_000_000, 0, []byte("node")) }, "beyond anything"},
		{"delete beyond the file", func(g *wal.Group) { g.AddSlotDelete("rel2.idx", 4_000_000_000, 0) }, "beyond anything"},
		{"image beyond the file", func(g *wal.Group) { addImage(g, "rel2.idx", 4_000_000_000, slottedPage(pageSize, "node")) }, "beyond anything"},
		{"heap tuple beyond the file", func(g *wal.Group) { g.AddHeapInsert("rel1.tbl", 4_000_000_000, 0, []byte("tuple")) }, "beyond anything"},
		{"meta page", func(g *wal.Group) { g.AddSlotPatch("rel2.idx", 0, 0, []byte{4, 0}) }, "slot is dead"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dataDir := t.TempDir()
			walDir := filepath.Join(dataDir, "wal")
			w := openMarkedWAL(t, walDir, wal.Options{})
			g := wal.NewGroup()
			c.build(g)
			if _, _, err := w.AppendGroupCommit(g); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			_, err := RecoverDir(dataDir, walDir, pageSize, 16)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("recovery returned %v, want an error about %q", err, c.want)
			}
			for _, file := range []string{"rel2.idx", "rel1.tbl"} {
				if st, err := os.Stat(filepath.Join(dataDir, file)); err == nil && st.Size() > 16*pageSize {
					t.Fatalf("recovery grew %s to %d bytes on its way to the error", file, st.Size())
				}
			}
		})
	}
}
