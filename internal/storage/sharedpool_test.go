package storage

import (
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/wal"
)

// newMarkedPages allocates n pages of bp, the first payload byte of page i
// set to mark+i, and unpins them dirty.
func newMarkedPages(t *testing.T, bp *BufferPool, n int, mark byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[PageHeaderSize] = mark + byte(i)
		bp.Unpin(p, true)
	}
}

// expectMarks fetches pages 0..n-1 of bp and checks their marks.
func expectMarks(t *testing.T, bp *BufferPool, n int, mark byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := bp.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Data[PageHeaderSize]; got != mark+byte(i) {
			t.Fatalf("%s page %d holds mark %q, want %q", bp.FileName(), i, got, mark+byte(i))
		}
		bp.Unpin(p, false)
	}
}

// TestSharedPoolKeysFramesByRelation: two files with the same page
// numbers live side by side in one pool's frames, each answering only for
// its own pages and counting only its own traffic.
func TestSharedPoolKeysFramesByRelation(t *testing.T) {
	p := NewPool(256, 8)
	a := p.Open("a.tbl", NewMem(256), obs.WaitNone)
	b := p.Open("b.idx", NewMem(256), obs.WaitNone)
	newMarkedPages(t, a, 3, 'a')
	newMarkedPages(t, b, 3, 'A')
	expectMarks(t, a, 3, 'a')
	expectMarks(t, b, 3, 'A')
	for _, bp := range []*BufferPool{a, b} {
		if st := bp.Stats(); st.Accesses != 6 || st.Hits != 3 || st.Misses != 3 || st.Evictions != 0 {
			t.Errorf("%s counters %+v, want 6 accesses: 3 allocations (misses), 3 hits", bp.FileName(), st)
		}
	}
	if st := p.Stats(); st.Accesses != 12 || st.Hits != 6 {
		t.Errorf("pool counters %+v, want the two relations' sum", st)
	}
	if rels := p.Relations(); !slices.Equal(rels, []*BufferPool{a, b}) {
		t.Errorf("relations %v, want a then b", rels)
	}
}

// TestSharedPoolEvictsAcrossRelations: one budget — a fetch of one file
// evicts another file's frame, writing the dirty page back to the file it
// belongs to, and the counters charge the eviction to the frame's owner.
func TestSharedPoolEvictsAcrossRelations(t *testing.T) {
	p := NewPool(256, 4)
	adm := NewMem(256)
	a := p.Open("a.tbl", adm, obs.WaitNone)
	b := p.Open("b.tbl", NewMem(256), obs.WaitNone)
	newMarkedPages(t, a, 1, 'a')
	newMarkedPages(t, b, 4, 'b') // needs all four frames
	buf := make([]byte, 256)
	if err := adm.ReadPage(0, buf); err != nil || buf[PageHeaderSize] != 'a' {
		t.Fatalf("a's evicted page on a's file: mark %q, err %v; want it written back", buf[PageHeaderSize], err)
	}
	if st := a.Stats(); st.Evictions != 1 || st.DirtyWrites != 1 {
		t.Errorf("a counters %+v, want its one frame evicted and written", st)
	}
	if st := b.Stats(); st.Evictions != 0 || st.Misses != 4 {
		t.Errorf("b counters %+v, want 4 allocations and no eviction of its own", st)
	}
	expectMarks(t, a, 1, 'a') // read back from a's file, not found in a frame of b
	if st := b.Stats(); st.Evictions != 1 || st.DirtyWrites != 1 {
		t.Errorf("b counters %+v, want the frame a's fetch took charged to b", st)
	}
}

// TestSharedPoolStagesOnlyItsOwnFrames: a relation's commit stages its own
// deferred records and nothing of another relation's, whose pending work
// stays pending (and its frames unevictable) for its own commit.
func TestSharedPoolStagesOnlyItsOwnFrames(t *testing.T) {
	dir := t.TempDir()
	w := openMarkedWAL(t, dir, wal.Options{Mode: wal.SyncLazy})
	defer w.Close()
	p := NewPool(256, 16)
	p.AttachWAL(w)
	a := p.Open("a.tbl", NewMem(256), obs.WaitNone)
	b := p.Open("b.tbl", NewMem(256), obs.WaitNone)
	for _, bp := range []*BufferPool{a, b} {
		for range 2 {
			pg, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			unpinInsert(bp, pg, 0, []byte("r")) // a deferred record
		}
	}
	start := w.AppendedLSN()
	if lsns := logPending(t, a, w, true); len(lsns) != 2 {
		t.Fatalf("a's commit logged %d records, want its two", len(lsns))
	}
	if err := w.Sync(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	var files []string
	if _, err := wal.Replay(dir, func(r *wal.Record) error {
		if r.LSN > start && r.Type != wal.RecCommit {
			files = append(files, r.File)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(files, []string{"a.tbl", "a.tbl"}) {
		t.Fatalf("a's commit group holds records of %v, want a.tbl's two only", files)
	}
	if staged := a.StagePending(wal.NewGroup()); len(staged) != 0 {
		t.Errorf("a has %d records left to stage after its commit", len(staged))
	}
	if lsns := logPending(t, b, w, true); len(lsns) != 2 {
		t.Errorf("b's commit logged %d records, want the two a's commit left alone", len(lsns))
	}
}

// TestSharedPoolDropFreesFrames: dropping a relation frees its frames
// for the next one without an eviction, and the next relation's pages —
// the same page numbers — come from its own file, never from a frame the
// dropped relation left behind.
func TestSharedPoolDropFreesFrames(t *testing.T) {
	bdm := NewMem(256)
	prep := NewBufferPool("b.tbl", bdm, 4)
	newMarkedPages(t, prep, 4, 'b')
	if err := prep.FlushAll(); err != nil {
		t.Fatal(err)
	}

	p := NewPool(256, 4)
	a := p.Open("a.tbl", NewMem(256), obs.WaitNone)
	newMarkedPages(t, a, 4, 'a') // every frame, all dirty
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	if rels := p.Relations(); len(rels) != 0 {
		t.Fatalf("dropped relation still listed: %v", rels)
	}
	b := p.Open("b.tbl", bdm, obs.WaitNone)
	expectMarks(t, b, 4, 'b')
	if st := b.Stats(); st.Misses != 4 || st.Evictions != 0 {
		t.Errorf("b counters %+v, want 4 misses into the dropped relation's frames, no eviction", st)
	}
	if st := a.Stats(); st.Evictions != 0 {
		t.Errorf("%d frames of the dropped relation were still cached and evicted", st.Evictions)
	}
}

// TestSharedPoolHoldsFilesThatFit: a set of files that fits the budget
// stays resident whole — here the seven files of the benchmark's
// write_mix (778 pages) in its 1 024 frames: every page is in the page
// table, and nothing is evicted.
func TestSharedPoolHoldsFilesThatFit(t *testing.T) {
	p := NewPool(256, 1024)
	total := 0
	for i, n := range []int{2, 200, 110, 160, 135, 130, 41} {
		newMarkedPages(t, p.Open(string(rune('a'+i)), NewMem(256), obs.WaitNone), n, 0)
		total += n
	}
	if st := p.Stats(); st.Evictions != 0 {
		t.Fatalf("%d pages in %d frames evicted %d", total, p.Frames(), st.Evictions)
	}
	if n := len(p.table); n != total {
		t.Errorf("pool holds %d pages, want all %d", n, total)
	}
}
