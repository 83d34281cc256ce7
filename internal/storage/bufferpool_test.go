package storage

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
)

// TestBufferPoolConcurrent hammers one small pool from many goroutines
// (forcing constant eviction) and checks that every page keeps its own
// contents. Run with -race to exercise the locking.
func TestBufferPoolConcurrent(t *testing.T) {
	dm := NewMem(256)
	bp := NewBufferPool("", dm, 8)
	const pages = 64
	for i := 0; i < pages; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(p.Data, uint32(i))
		bp.Unpin(p, true)
	}
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	// The pool pins frames; latching a page's bytes is its users' job
	// (table locks, in the engine). Here: one mutex per page.
	var latches [pages]sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := PageID((g*31 + i*7) % pages)
				p, err := bp.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				latches[id].Lock()
				got := binary.LittleEndian.Uint32(p.Data)
				// Rewrite the page's own marker: a dirty write that must
				// never bleed into another page.
				binary.LittleEndian.PutUint32(p.Data, uint32(id))
				latches[id].Unlock()
				bp.Unpin(p, true)
				if got != uint32(id) {
					errs <- fmt.Errorf("page %d holds contents of page %d", id, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	for i := 0; i < pages; i++ {
		if err := dm.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(buf); got != uint32(i) {
			t.Fatalf("after flush, page %d holds %d", i, got)
		}
	}
}

// TestEvictionNeverReclaimsPinned pins a set of pages, then cycles many
// other pages through a pool with barely more frames than pins. The
// pinned frames' contents must survive untouched, and a pool whose
// frames are all pinned must refuse (not corrupt) the next fetch.
func TestEvictionNeverReclaimsPinned(t *testing.T) {
	dm := NewMem(256)
	bp := NewBufferPool("", dm, 4)
	const pages = 32
	for i := 0; i < pages; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(p.Data, uint32(i))
		bp.Unpin(p, true)
	}
	var pinned []*Page
	for i := 0; i < 3; i++ {
		p, err := bp.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, p)
	}
	// Drive eviction through the single unpinned frame.
	for round := 0; round < 4; round++ {
		for i := 3; i < pages; i++ {
			p, err := bp.Fetch(PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			bp.Unpin(p, false)
		}
	}
	if ev := bp.Stats().Evictions; ev == 0 {
		t.Fatal("test exercised no evictions")
	}
	for i, p := range pinned {
		if got := binary.LittleEndian.Uint32(p.Data); got != uint32(i) {
			t.Fatalf("pinned page %d was reclaimed: frame now holds page %d", i, got)
		}
	}
	// Pin the last frame too: the pool is now exhausted.
	p4, err := bp.Fetch(PageID(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Fetch(PageID(20)); err == nil {
		t.Fatal("fetch succeeded with every frame pinned")
	}
	bp.Unpin(p4, false)
	for _, p := range pinned {
		bp.Unpin(p, false)
	}
	if _, err := bp.Fetch(PageID(20)); err != nil {
		t.Fatalf("fetch after unpinning: %v", err)
	}
}

// TestPoolExhaustedOnlyWhenEveryFrameIsHeld: a fetch is refused a frame
// only when every frame of the pool is pinned. Pages 1, 17, 33, … — a
// stride that a pool partitioning its frames by page number would crowd
// into one part — are all admitted, and once all 256 frames are pinned
// the next fetch fails with an error that names the pool.
func TestPoolExhaustedOnlyWhenEveryFrameIsHeld(t *testing.T) {
	const frames, pages = 256, 300
	dm := NewMem(256)
	for i := 0; i < pages; i++ {
		if _, err := dm.AllocatePage(); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool("", dm, frames)
	held := make(map[PageID]*Page)
	defer func() {
		for _, p := range held {
			bp.Unpin(p, false)
		}
	}()
	pin := func(id PageID) {
		t.Helper()
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatalf("pin %d (page %d) with %d of %d frames free: %v", len(held)+1, id, frames-len(held), frames, err)
		}
		held[id] = p
	}
	for id := PageID(1); id < pages; id += 16 {
		pin(id)
	}
	next := PageID(0)
	for ; len(held) < frames; next++ {
		if held[next] == nil {
			pin(next)
		}
	}
	for held[next] != nil {
		next++
	}
	if _, err := bp.Fetch(next); err == nil || !strings.Contains(err.Error(), "buffer pool exhausted") {
		t.Fatalf("fetch of page %d with all %d frames pinned: err = %v, want the pool exhausted", next, frames, err)
	}
}

// TestPoolStatsAtomicUnderConcurrency checks that the counters lose
// nothing under concurrent fetch traffic: every access is either a hit or
// a miss, and the totals match the driven load exactly.
func TestPoolStatsAtomicUnderConcurrency(t *testing.T) {
	dm := NewMem(256)
	const pages = 64
	bp := NewBufferPool("", dm, 2*pages) // no eviction: hits+misses is exact
	for i := 0; i < pages; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(p, false)
	}
	bp.ResetStats()
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p, err := bp.Fetch(PageID((g*13 + i*5) % pages))
				if err != nil {
					t.Error(err)
					return
				}
				bp.Unpin(p, false)
			}
		}(g)
	}
	wg.Wait()
	st := bp.Stats()
	if st.Accesses != workers*rounds {
		t.Fatalf("accesses = %d, want %d", st.Accesses, workers*rounds)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits %d + misses %d != accesses %d", st.Hits, st.Misses, st.Accesses)
	}
}

func TestPageLSNRoundTrip(t *testing.T) {
	data := make([]byte, 512)
	SlotInit(data)
	if PageLSN(data) != 0 {
		t.Fatalf("fresh area has pageLSN %d", PageLSN(data))
	}
	SetPageLSN(data, 0xDEADBEEF01)
	if PageLSN(data) != 0xDEADBEEF01 {
		t.Fatalf("pageLSN round trip failed: %d", PageLSN(data))
	}
	// The LSN must survive record traffic and compaction.
	s, ok := SlotInsert(data, []byte("hello"))
	if !ok {
		t.Fatal("insert failed")
	}
	SlotDelete(data, s)
	if _, ok := SlotInsert(data, make([]byte, 400)); !ok {
		t.Fatal("compacting insert failed")
	}
	if PageLSN(data) != 0xDEADBEEF01 {
		t.Fatalf("pageLSN clobbered by slot traffic: %d", PageLSN(data))
	}
}

func TestSlotAreaBlank(t *testing.T) {
	data := make([]byte, 256)
	if !SlotAreaBlank(data) {
		t.Fatal("zeroed area not reported blank")
	}
	SlotInit(data)
	if SlotAreaBlank(data) {
		t.Fatal("initialized area reported blank")
	}
}

func TestSlotInsertAt(t *testing.T) {
	data := make([]byte, 256)
	SlotInit(data)
	// Redo into a slot far past the current directory.
	if !SlotInsertAt(data, 3, []byte("dddd")) {
		t.Fatal("insert at slot 3 failed")
	}
	if SlotCount(data) != 4 || SlotLive(data) != 1 {
		t.Fatalf("directory after sparse insert: count=%d live=%d", SlotCount(data), SlotLive(data))
	}
	if string(SlotRead(data, 3)) != "dddd" {
		t.Fatalf("slot 3 holds %q", SlotRead(data, 3))
	}
	if SlotRead(data, 0) != nil || SlotRead(data, 2) != nil {
		t.Fatal("intermediate slots not dead")
	}
	// Idempotent re-apply.
	if !SlotInsertAt(data, 3, []byte("dddd")) {
		t.Fatal("idempotent re-insert failed")
	}
	if SlotLive(data) != 1 {
		t.Fatalf("re-insert changed live count to %d", SlotLive(data))
	}
	// Fill earlier slots and check contents coexist.
	if !SlotInsertAt(data, 0, []byte("aa")) || !SlotInsertAt(data, 1, []byte("bb")) {
		t.Fatal("insert at earlier slots failed")
	}
	if string(SlotRead(data, 0)) != "aa" || string(SlotRead(data, 1)) != "bb" || string(SlotRead(data, 3)) != "dddd" {
		t.Fatal("records corrupted after redo inserts")
	}
	// Replacement with different bytes (page ahead of an older record
	// cannot happen under LSN guards, but the primitive must cope).
	if !SlotInsertAt(data, 1, []byte("nine-bytes")) {
		t.Fatal("replacement failed")
	}
	if string(SlotRead(data, 1)) != "nine-bytes" {
		t.Fatalf("slot 1 holds %q", SlotRead(data, 1))
	}
	// An impossible fit must fail cleanly, not corrupt.
	if SlotInsertAt(data, 5, make([]byte, 300)) {
		t.Fatal("oversized redo insert accepted")
	}
	if string(SlotRead(data, 3)) != "dddd" {
		t.Fatal("failed insert corrupted existing record")
	}
}

// openMarkedWAL opens a log in dir and plants its first commit marker —
// the precondition of AttachWAL that executor.Open guarantees.
func openMarkedWAL(t *testing.T, dir string, opts wal.Options) *wal.Writer {
	t.Helper()
	w, err := wal.OpenWriter(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendCommit(); err != nil {
		t.Fatal(err)
	}
	return w
}

// unpinInsert releases p the way the heap does after an insert: dirty,
// covered by a deferred logical record.
func unpinInsert(bp *BufferPool, p *Page, slot uint16, rec []byte) {
	bp.UnpinDeferred(p, func(g *wal.Group, file string) int {
		return g.AddHeapInsert(file, uint32(p.ID), slot, rec)
	})
}

// logPending appends bp's deferred records and page images the way the
// executor's commit path does — StagePending, one group append,
// ResolvePending — and returns the records' LSNs. Without commit the
// group carries no marker: a statement whose records reached the log but
// whose boundary did not.
func logPending(t *testing.T, bp *BufferPool, w *wal.Writer, commit bool) []wal.LSN {
	t.Helper()
	g := wal.NewGroup()
	staged := bp.StagePending(g)
	var lsns []wal.LSN
	var err error
	if commit {
		lsns, _, err = w.AppendGroupCommit(g)
	} else {
		lsns, err = w.AppendGroup(g)
	}
	if err != nil {
		t.Fatal(err)
	}
	bp.ResolvePending(staged, lsns)
	return lsns
}

// appendHeapInsert appends one heap-insert record straight to the log.
func appendHeapInsert(t *testing.T, w *wal.Writer, file string, page uint32, slot uint16, rec []byte) wal.LSN {
	t.Helper()
	g := wal.NewGroup()
	g.AddHeapInsert(file, page, slot, rec)
	lsns, err := w.AppendGroup(g)
	if err != nil {
		t.Fatal(err)
	}
	return lsns[0]
}

// TestWALBeforeData checks the invariant the whole recovery design rests
// on: a dirty page may not be written back unless the log is durable up
// to that page's latest record.
func TestWALBeforeData(t *testing.T) {
	w := openMarkedWAL(t, t.TempDir(), wal.Options{Mode: wal.SyncLazy})
	defer w.Close()
	dm := NewMem(256)
	bp := NewBufferPool("t.tbl", dm, 4)
	bp.pool.AttachWAL(w)

	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	SlotInit(p.Data)
	SlotInsert(p.Data, []byte("r"))
	unpinInsert(bp, p, 0, []byte("r")) // a record for the commit point
	lsns := logPending(t, bp, w, true)
	if len(lsns) != 1 {
		t.Fatalf("the insert logged %d records at commit, want 1", len(lsns))
	}
	lsn := w.AppendedLSN()
	if w.DurableLSN() >= lsn {
		t.Fatal("lazy mode synced prematurely; test cannot observe the invariant")
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() < lsn {
		t.Fatalf("page written back while log durable only to %d < %d", w.DurableLSN(), lsn)
	}
}

// TestNoStealOfUncommittedFrames: once statement boundaries exist in
// the log, a dirty frame whose record is past the last commit marker
// must not be evicted (its write-back could survive a crash whose
// recovery discards the record as an uncommitted tail).
func TestNoStealOfUncommittedFrames(t *testing.T) {
	w := openMarkedWAL(t, t.TempDir(), wal.Options{Mode: wal.SyncLazy})
	defer w.Close()
	dm := NewMem(256)
	bp := NewBufferPool("t.tbl", dm, 4)
	bp.pool.AttachWAL(w)

	var pages []*Page
	for i := 0; i < 4; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	// Unpin all four as uncommitted mutations whose records are in the
	// log — past the last marker — but whose statement boundary is not.
	for i, p := range pages {
		unpinInsert(bp, p, uint16(i), []byte("u"))
	}
	logPending(t, bp, w, false)
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("pool evicted an uncommitted dirty frame")
	}
	if reads, writes, _ := dm.Stats().Snapshot(); writes > 5 {
		// 5 allocation writes (zero-fill) are expected; an eviction
		// write-back of page data would exceed that.
		t.Fatalf("uncommitted page written back (reads=%d writes=%d)", reads, writes)
	}
	// Commit the statement: the frames become evictable again.
	if _, err := w.AppendCommit(); err != nil {
		t.Fatal(err)
	}
	p, err := bp.NewPage()
	if err != nil {
		t.Fatalf("fetch after commit: %v", err)
	}
	if w.DurableLSN() < w.CommittedLSN() {
		t.Fatalf("eviction did not sync through the commit marker (durable %d < committed %d)",
			w.DurableLSN(), w.CommittedLSN())
	}
	bp.Unpin(p, false)
}

// TestDirtyUnpinNeedsNoLog: a dirty Unpin is a change no record covers. A
// pool without a log takes it, and writes the page back like any dirty
// frame; a pool with a log refuses it with a panic that names the file and
// the page, and the pin stays held.
func TestDirtyUnpinNeedsNoLog(t *testing.T) {
	bp := NewBufferPool("t.tbl", NewMem(256), 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(p, true)
	if err := bp.FlushAll(); err != nil || bp.Stats().DirtyWrites != 1 {
		t.Fatalf("flush of the unlogged pool: %v, %d dirty writes, want 1", err, bp.Stats().DirtyWrites)
	}

	w := openMarkedWAL(t, t.TempDir(), wal.Options{Mode: wal.SyncLazy})
	defer w.Close()
	logged := NewBufferPool("t.idx", NewMem(256), 4)
	logged.pool.AttachWAL(w)
	q, err := logged.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, `page 0 of "t.idx"`) {
				t.Fatalf("dirty Unpin with a log attached: panic %q, want one naming page 0 of t.idx", msg)
			}
		}()
		logged.Unpin(q, true)
	}()
	logged.Unpin(q, false) // the refused unpin left the pin held
}

// TestRecoverDirRedo writes pages under WAL protection, simulates a
// crash (buffer pool dropped, nothing flushed), runs the redo pass, and
// checks the data file matches what was logged — for the meta record and
// a heap record.
func TestRecoverDirRedo(t *testing.T) {
	dataDir := t.TempDir()
	walDir := dataDir + "/wal"
	w := openMarkedWAL(t, walDir, wal.Options{})
	fdm, err := OpenFile(dataDir+"/t.tbl", 256)
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool("t.tbl", fdm, 4)
	bp.pool.AttachWAL(w)

	// Page 0: the meta record, a slot-put.
	if err := bp.CreateMeta(0x54534554, []byte("meta-contents")); err != nil {
		t.Fatal(err)
	}

	// Page 1: slotted page mutated via logical records, like the heap.
	p1, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	SlotInit(p1.Data)
	slot, ok := SlotInsert(p1.Data, []byte("row-1"))
	if !ok {
		t.Fatal("insert failed")
	}
	unpinInsert(bp, p1, uint16(slot), []byte("row-1"))

	// The commit point: both records in one group.
	lsn := logPending(t, bp, w, true)[1]
	if err := w.Sync(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	// Crash: drop every frame; nothing was flushed to t.tbl.
	if err := bp.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := RecoverDir(dataDir, walDir, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.SlotPuts != 2 {
		t.Fatalf("recovery stats: %+v", st)
	}
	fdm2, err := OpenFile(dataDir+"/t.tbl", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fdm2.Close()
	buf := make([]byte, 256)
	if err := fdm2.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, _, body := ParseMeta(buf); string(body) != "meta-contents" {
		t.Fatalf("page 0 not redone: %q", body)
	}
	if err := fdm2.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if got := SlotRead(buf, slot); string(got) != "row-1" {
		t.Fatalf("page 1 logical redo failed: %q", got)
	}
	if PageLSN(buf) != uint64(lsn) {
		t.Fatalf("pageLSN after redo = %d, want %d", PageLSN(buf), lsn)
	}

	// Recovery must be idempotent.
	st2, err := RecoverDir(dataDir, walDir, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st2.SlotPuts != 0 || st2.SkippedByLSN != 2 {
		t.Fatalf("second pass not idempotent: %+v", st2)
	}
}

// TestRecoverDirRefusesUncoveredTornPage: a torn page may only be
// reinitialized and rebuilt when the surviving log provably holds its
// whole content — the file's creation record or a full image of the
// page. Here a checkpoint has recycled both, so recovery must fail
// loudly with ErrPageCorrupt instead of silently restoring only the
// post-checkpoint record.
func TestRecoverDirRefusesUncoveredTornPage(t *testing.T) {
	dataDir := t.TempDir()
	walDir := dataDir + "/wal"
	w, err := wal.OpenWriter(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oldLSN := appendHeapInsert(t, w, "t.tbl", 1, 0, []byte("old-row"))
	if _, err := w.AppendCommit(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint recycles the segment holding old-row's record and
	// the file's history.
	if _, err := w.Checkpoint(wal.CheckpointState{}); err != nil {
		t.Fatal(err)
	}
	appendHeapInsert(t, w, "t.tbl", 1, 1, []byte("new-row"))
	if _, err := w.AppendCommit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The data file as the checkpoint flushed it, except page 1 was
	// torn by the crash: valid content, then a payload byte flipped
	// after stamping, so the checksum no longer matches.
	fdm, err := OpenFile(dataDir+"/t.tbl", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := fdm.AllocatePage(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 256)
	SlotInit(buf)
	if _, ok := SlotInsert(buf, []byte("old-row")); !ok {
		t.Fatal("insert failed")
	}
	SetPageLSN(buf, uint64(oldLSN))
	StampPageChecksum(buf)
	buf[200] ^= 0xFF
	if err := fdm.WritePage(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := fdm.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := RecoverDir(dataDir, walDir, 256, 16)
	if err == nil {
		t.Fatalf("recovery repaired an unrecoverable torn page: %+v", st)
	}
	if !IsPageCorrupt(err) {
		t.Fatalf("recovery error = %v, want page corrupt", err)
	}
	if st.TornRepaired != 0 {
		t.Fatalf("recovery claims %d repairs while failing", st.TornRepaired)
	}
}

// TestRecoverDirDiscardsUncommittedTail: records after the last commit
// marker belong to a statement whose remaining records were lost in the
// crash; replaying them would leave a heap row without its index
// entries, so recovery must drop them.
func TestRecoverDirDiscardsUncommittedTail(t *testing.T) {
	dataDir := t.TempDir()
	walDir := dataDir + "/wal"
	w, err := wal.OpenWriter(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendHeapInsert(t, w, "t.tbl", 1, 0, []byte("committed"))
	if _, err := w.AppendCommit(); err != nil {
		t.Fatal(err)
	}
	// A second statement whose commit marker never made it to the log.
	appendHeapInsert(t, w, "t.tbl", 1, 1, []byte("torn"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := RecoverDir(dataDir, walDir, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.SlotPuts != 1 || st.TailDiscarded != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	fdm, err := OpenFile(dataDir+"/t.tbl", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fdm.Close()
	buf := make([]byte, 256)
	if err := fdm.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if got := SlotRead(buf, 0); string(got) != "committed" {
		t.Fatalf("committed record lost: %q", got)
	}
	if got := SlotRead(buf, 1); got != nil {
		t.Fatalf("uncommitted tail was replayed: %q", got)
	}

	// The discarded records must also be gone from the log itself —
	// left in place they would sit below the next run's markers and be
	// replayed as committed by a second recovery.
	st2, err := RecoverDir(dataDir, walDir, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st2.TailDiscarded != 0 || st2.LastLSN != st.LastLSN-1 {
		t.Fatalf("tail survived in the log: %+v", st2)
	}
}

// olderBatchLog is a log segment an older build wrote, when a batch
// insert was record type 7 and carried each tuple whole
// (n:2 {slot:2 len:4 tuple}*n): a commit
// marker, the creation of rel1.tbl, then one frame of three tuples of
// transaction 5 — "alpha", "" and "gamma" — at slots 0, 1 and 2 of page
// 1, transaction 5's commit record and a commit marker.
const olderBatchLog = "02000000fcda4441010000000000000006000a000000d32955940200000000000000" +
	"040872656c312e74626c6c000000fb005f5d0300000000000000075e0972656c312e74626c01030000001700" +
	"0000050000000000000000000000000000000000616c706861010012000000050000000000000000000000" +
	"00000000000002001700000005000000000000000000000000000000000067616d6d610b08050000000000" +
	"00000600"

// retiredFrame is a frame of the log format at LSN first: a slot-put of
// "row" into slot 0 of page 1 of rel1.tbl, one record of the retired type
// typ, its body shaped as the older build that wrote it shaped it — a
// tuple put (2), a slot (3, 9, 10), a slot and an xid (8), an xid (12) or
// a batch of one tuple (16) — and a commit marker.
func retiredFrame(first uint64, typ byte) []byte {
	record := func(typ byte, body []byte) []byte {
		return append(binary.AppendUvarint([]byte{typ}, uint64(len(body))), body...)
	}
	head := append([]byte{byte(len("rel1.tbl") + 1)}, "rel1.tbl"...)
	head = append(head, 1) // page
	tuple := append(binary.LittleEndian.AppendUint64(nil, 5), make([]byte, 10)...)
	var body []byte
	switch typ {
	case 2:
		body = append(append(head, 0), append(tuple, "row"...)...)
	case 3, 9, 10:
		body = append(head, 0)
	case 8:
		body = binary.LittleEndian.AppendUint64(append(head, 0), 5)
	case 12:
		body = binary.LittleEndian.AppendUint64(nil, 5)
	case 16:
		body = append(head, 1, 5, 0, 3, 'r', 'o', 'w')
	}
	recs := binary.LittleEndian.AppendUint64(nil, first)
	recs = append(recs, record(13, append(append(head, 0), "row"...))...)
	recs = append(recs, record(typ, body)...)
	recs = append(recs, record(6, nil)...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)-8))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(recs, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, recs...)
}

// TestRecoverDirReadsOlderCheckpoint: an older build's clean Close left a
// log holding its checkpoint alone, a record without transaction state.
// Redo reads it as a checkpoint of the zero state, applies nothing, and
// reports it, so that the owner of versioned records knows the log says
// nothing of the transactions before it.
func TestRecoverDirReadsOlderCheckpoint(t *testing.T) {
	dataDir := t.TempDir()
	walDir := filepath.Join(dataDir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	recs := append(binary.LittleEndian.AppendUint64(nil, 7), 5, 0) // LSN 7: an empty checkpoint
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)-8))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(recs, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(walDir, "wal-0000000000000007.seg"), append(frame, recs...), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverDir(dataDir, walDir, 256, 16)
	if err != nil {
		t.Fatalf("RecoverDir of an older build's clean log: %v", err)
	}
	if st.Checkpoints != 1 || st.LastCheckpoint.NextXid != 0 || len(st.LastCheckpoint.Running) != 0 || st.Records != 1 || st.FilesTouched != 0 {
		t.Fatalf("an older build's checkpoint recovered as %+v", st)
	}
}

// TestRecoverDirRefusesOlderBatchRecord: a log holding a record of a type
// an older build wrote and this one retired — the batch insert that
// carried each tuple whole (7), the heap's own insert, delete, batch
// insert, set-xmax, clear-xmax and mark-aborted (2, 3, 16, 8, 9, 10), the
// transaction abort (12) — is refused with the decoder's
// unknown-record-type error, and nothing of the refused record's frame is
// replayed.
func TestRecoverDirRefusesOlderBatchRecord(t *testing.T) {
	older, err := hex.DecodeString(olderBatchLog)
	if err != nil {
		t.Fatal(err)
	}
	logs := map[byte][]byte{7: older}
	for _, typ := range []byte{2, 3, 8, 9, 10, 12, 16} {
		// The log opens as the older one does: a commit marker, then the
		// creation of rel1.tbl.
		logs[typ] = append(older[:44:44], retiredFrame(3, typ)...)
	}
	for typ, seg := range logs {
		dataDir := t.TempDir()
		walDir := filepath.Join(dataDir, "wal")
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir, "wal-0000000000000001.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := RecoverDir(dataDir, walDir, 256, 16)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown record type %d", typ)) {
			t.Fatalf("RecoverDir of a log holding a type-%d record: %v, want the unknown-record-type error", typ, err)
		}
		if st.SlotBatches != 0 || st.SlotPuts != 0 || st.SlotPatches != 0 || st.SlotDeletes != 0 || len(st.Committed) != 0 {
			t.Fatalf("type %d: the refused frame was replayed: %+v", typ, st)
		}
	}
}
