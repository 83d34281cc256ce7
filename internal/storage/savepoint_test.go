package storage

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/wal"
)

// savepointScript runs a failed statement's page changes on a logged pool
// of two committed pages — a record put on page 0, a record rewritten on
// page 1 (UnpinPut, UnpinUpdate) and a page allocated — with the
// savepoint armed first and reverted after when armed. It returns the
// pool, the two pages as they were before, the allocated page's id and
// the pool accesses the whole script counted.
func savepointScript(t *testing.T, w *wal.Writer, armed bool) (*BufferPool, [2][]byte, PageID, int64) {
	t.Helper()
	bp := NewBufferPool("t.idx", NewMem(256), 8)
	bp.pool.AttachWAL(w)
	var pre [2][]byte
	for id := range pre {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		SlotInit(p.Data)
		bp.Unpin(p, false)
		touchNode(t, bp, w, PageID(id), []byte("committed"))
		q, err := bp.Fetch(PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		pre[id] = bytes.Clone(q.Data)
		bp.Unpin(q, false)
	}
	start := bp.Stats().Accesses
	if armed {
		bp.Savepoint()
	}
	p, err := bp.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte("failed put")
	slot, ok := SlotInsert(p.Data, rec)
	if !ok {
		t.Fatal("page 0 is full")
	}
	bp.UnpinPut(p, slot, rec)
	if p, err = bp.Fetch(1); err != nil {
		t.Fatal(err)
	}
	rec = []byte("committed, rewritten")
	if !bp.UpdateSlot(p, 0, rec) {
		t.Fatal("rewrite does not fit page 1")
	}
	bp.UnpinUpdate(p, 0, rec)
	if p, err = bp.NewPage(); err != nil {
		t.Fatal(err)
	}
	SlotInit(p.Data)
	rec = []byte("failed page")
	if slot, ok = SlotInsert(p.Data, rec); !ok {
		t.Fatal("fresh page is full")
	}
	bp.UnpinPut(p, slot, rec)
	if armed {
		if reverted, err := bp.Revert(); err != nil || !reverted {
			t.Fatalf("Revert = %v, %v; want true, nil", reverted, err)
		}
	}
	return bp, pre, p.ID, bp.Stats().Accesses - start
}

// residentFrame returns page id's frame, failing the test when the page
// is not in the pool.
func residentFrame(t *testing.T, bp *BufferPool, id PageID) *frame {
	t.Helper()
	bp.pool.mu.Lock()
	defer bp.pool.mu.Unlock()
	fi, ok := bp.pool.table[bp.key(id)]
	if !ok {
		t.Fatalf("page %d is not resident", id)
	}
	return &bp.pool.frames[fi]
}

// TestSavepointRevert: Revert puts every page a failed statement changed
// back as the savepoint found it, returns the page it allocated to
// all-zero and clean, and drops its deferred records, so the next commit
// stages nothing of it. The savepoint costs no pool access of its own
// (it copies pages as they are fetched) and does no I/O under a log, and
// a dirty Unpin on the logged pool still panics.
func TestSavepointRevert(t *testing.T) {
	w := openMarkedWAL(t, t.TempDir(), wal.Options{Mode: wal.SyncLazy})
	defer w.Close()
	_, _, _, unarmed := savepointScript(t, w, false)
	bp, pre, fresh, armed := savepointScript(t, w, true)
	if armed != unarmed {
		t.Fatalf("armed script counted %d pool accesses, unarmed %d", armed, unarmed)
	}
	if st := bp.Stats(); st.Misses != 3 || st.Evictions != 0 {
		t.Fatalf("the script read or evicted pages (its misses are its three NewPage calls): %+v", st)
	}
	for id, want := range pre {
		if got := residentFrame(t, bp, PageID(id)); !bytes.Equal(got.data, want) || got.opPending {
			t.Fatalf("page %d after Revert: pending %v, bytes\n got  %x\n want %x", id, got.opPending, got.data, want)
		}
	}
	if f := residentFrame(t, bp, fresh); f.dirty || f.opPending || !bytes.Equal(f.data, make([]byte, len(f.data))) {
		t.Fatalf("allocated page %d after Revert: dirty %v, pending %v, not all zero", fresh, f.dirty, f.opPending)
	}
	g := wal.NewGroup()
	if staged := bp.StagePending(g); len(staged) != 0 {
		t.Fatalf("StagePending after Revert staged %d records", len(staged))
	}
	if reverted, err := bp.Revert(); reverted || err != nil {
		t.Fatalf("second Revert = %v, %v; want a disarmed no-op", reverted, err)
	}
	p, err := bp.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "dirty Unpin") {
				t.Fatalf("dirty Unpin on a logged pool after Revert: panic %q", msg)
			}
		}()
		bp.Unpin(p, true)
	}()
	bp.Unpin(p, false)
}

// TestSavepointRevertReadsBackEvicted: without a log a changed page may
// leave the pool before the statement fails. Revert reads it back and
// overwrites it, and the kept bytes reach the disk.
func TestSavepointRevertReadsBackEvicted(t *testing.T) {
	dm := NewMem(256)
	bp := NewBufferPool("t.tbl", dm, 4)
	for range 8 {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		SlotInit(p.Data)
		bp.Unpin(p, true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 256)
	if err := dm.ReadPage(1, want); err != nil {
		t.Fatal(err)
	}
	bp.Savepoint()
	p, err := bp.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := SlotInsert(p.Data, []byte("failed")); !ok {
		t.Fatal("page 1 is full")
	}
	bp.Unpin(p, true)
	for id := PageID(2); id < 8; id++ { // push page 1 out of the four frames
		q, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(q, false)
	}
	got := make([]byte, 256)
	if err := dm.ReadPage(1, got); err != nil || bytes.Equal(got, want) {
		t.Fatalf("page 1 was not written back changed (%v)", err)
	}
	if reverted, err := bp.Revert(); err != nil || !reverted {
		t.Fatalf("Revert = %v, %v", reverted, err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := dm.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("page 1 on disk after Revert:\n got  %x\n want %x", got, want)
	}
}
