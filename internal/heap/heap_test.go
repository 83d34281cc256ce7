package heap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

func newTestHeap(t *testing.T) *File {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(1024), 16)
	f, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInsertGet(t *testing.T) {
	f := newTestHeap(t)
	rid, err := f.Insert([]byte("tuple one"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec) != "tuple one" {
		t.Fatalf("Get = %q", rec)
	}
	if f.Count() != 1 {
		t.Fatalf("Count = %d, want 1", f.Count())
	}
}

func TestGetMissing(t *testing.T) {
	f := newTestHeap(t)
	rec, err := f.Get(RID{Page: 99, Slot: 0})
	if err != nil || rec != nil {
		t.Fatalf("Get missing = %v, %v; want nil, nil", rec, err)
	}
	rec, err = f.Get(InvalidRID)
	if err != nil || rec != nil {
		t.Fatalf("Get invalid = %v, %v; want nil, nil", rec, err)
	}
}

func TestDelete(t *testing.T) {
	f := newTestHeap(t)
	rid, _ := f.Insert([]byte("doomed"))
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	rec, _ := f.Get(rid)
	if rec != nil {
		t.Fatal("deleted record still readable")
	}
	if f.Count() != 0 {
		t.Fatalf("Count = %d, want 0", f.Count())
	}
	// Double delete is a no-op.
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if f.Count() != 0 {
		t.Fatalf("Count after double delete = %d", f.Count())
	}
}

func TestScanOrderAndContent(t *testing.T) {
	f := newTestHeap(t)
	want := map[string]bool{}
	for i := 0; i < 500; i++ {
		s := fmt.Sprintf("record-%04d", i)
		if _, err := f.Insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
		want[s] = true
	}
	got := map[string]bool{}
	err := f.Scan(func(rid RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
	for s := range want {
		if !got[s] {
			t.Fatalf("scan missed %q", s)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	f := newTestHeap(t)
	for i := 0; i < 100; i++ {
		f.Insert([]byte("x"))
	}
	n := 0
	f.Scan(func(rid RID, rec []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d, want 10", n)
	}
}

func TestSpillsAcrossPages(t *testing.T) {
	f := newTestHeap(t)
	rec := bytes.Repeat([]byte("p"), 300)
	for i := 0; i < 50; i++ {
		if _, err := f.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumPages() < 10 {
		t.Fatalf("expected many pages, got %d", f.NumPages())
	}
	n := 0
	f.Scan(func(rid RID, rec []byte) bool { n++; return true })
	if n != 50 {
		t.Fatalf("scan found %d records, want 50", n)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	f := newTestHeap(t)
	if _, err := f.Insert(make([]byte, 2000)); err == nil {
		t.Fatal("expected error for record larger than page")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.dat")
	dm, err := storage.OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool("", dm, 16)
	f, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := f.Insert([]byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// The owner's commit point: inserts leave the meta page alone.
	if err := f.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}

	dm2, err := storage.OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bp2 := storage.NewBufferPool("", dm2, 16)
	f2, err := Open(bp2)
	if err != nil {
		t.Fatal(err)
	}
	defer bp2.Close()
	if f2.Count() != 100 {
		t.Fatalf("Count after reopen = %d, want 100", f2.Count())
	}
	for i, rid := range rids {
		rec, err := f2.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(rec) != fmt.Sprintf("v%d", i) {
			t.Fatalf("record %d mismatch after reopen: %q", i, rec)
		}
	}
	// Inserts continue to work after reopen.
	if _, err := f2.Insert([]byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesPreVersionFormat pins the format gate: this build opens
// files of storage.FormatVersion and refuses everything else — a well
// formed meta record of any other version by the one version check, a
// page 0 framed the way version 3 wrote it (the framing at byte 24, no
// slot) by its missing meta record, and a file laid out the way earlier
// builds wrote it (magic at byte 0, the heap's own version counter where
// the page checksum now lives) before that, by the checksum of its page 0.
func TestOpenRefusesPreVersionFormat(t *testing.T) {
	const pageSize = 1024
	cases := []struct {
		name    string
		rewrite func(meta []byte)
		refused func(err error) bool
	}{
		{"another version in the framing", func(meta []byte) {
			binary.LittleEndian.PutUint32(storage.SlotRead(meta, 0)[4:], storage.FormatVersion-1)
			storage.StampPageChecksum(meta)
		}, func(err error) bool {
			return strings.Contains(err.Error(), fmt.Sprintf("on-disk format version %d,", storage.FormatVersion-1))
		}},
		{"the framing before slotted meta pages", func(meta []byte) {
			clear(meta)
			binary.LittleEndian.PutUint32(meta[storage.PageHeaderSize:], MetaMagic)
			binary.LittleEndian.PutUint32(meta[storage.PageHeaderSize+4:], storage.FormatVersion-1)
			storage.StampPageChecksum(meta)
		}, func(err error) bool { return strings.Contains(err.Error(), "holds no meta record") }},
		{"the layout before the common header", func(meta []byte) {
			clear(meta)
			binary.LittleEndian.PutUint32(meta[0:], MetaMagic)
			binary.LittleEndian.PutUint32(meta[4:], 1)  // last page
			binary.LittleEndian.PutUint64(meta[8:], 1)  // count
			binary.LittleEndian.PutUint32(meta[16:], 2) // the heap's format version
		}, storage.IsPageCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "heap.dat")
			dm, err := storage.OpenFile(path, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			bp := storage.NewBufferPool("heap.dat", dm, 16)
			f, err := Create(bp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Insert([]byte("row")); err != nil {
				t.Fatal(err)
			}
			if err := bp.Close(); err != nil {
				t.Fatal(err)
			}

			dm2, err := storage.OpenFile(path, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			meta := make([]byte, pageSize)
			if err := dm2.ReadPage(0, meta); err != nil {
				t.Fatal(err)
			}
			c.rewrite(meta)
			if err := dm2.WritePage(0, meta); err != nil {
				t.Fatal(err)
			}
			bp2 := storage.NewBufferPool("heap.dat", dm2, 16)
			defer bp2.Close()
			if _, err := Open(bp2); err == nil || !c.refused(err) {
				t.Fatalf("Open returned %v", err)
			}
		})
	}
}

func TestRIDEncoding(t *testing.T) {
	r := RID{Page: 123456, Slot: 789}
	b := r.Bytes()
	if got := RIDFromBytes(b[:]); got != r {
		t.Fatalf("RID round trip: got %v, want %v", got, r)
	}
}

// Model-based randomized test against a map.
func TestRandomizedModel(t *testing.T) {
	f := newTestHeap(t)
	r := rand.New(rand.NewSource(3))
	model := map[RID][]byte{}
	for step := 0; step < 3000; step++ {
		if r.Intn(3) != 0 || len(model) == 0 {
			rec := make([]byte, 1+r.Intn(60))
			r.Read(rec)
			rid, err := f.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("step %d: duplicate RID %v", step, rid)
			}
			model[rid] = append([]byte(nil), rec...)
		} else {
			for rid := range model {
				if err := f.Delete(rid); err != nil {
					t.Fatal(err)
				}
				delete(model, rid)
				break
			}
		}
	}
	if int(f.Count()) != len(model) {
		t.Fatalf("Count = %d, model = %d", f.Count(), len(model))
	}
	for rid, want := range model {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rid %v mismatch", rid)
		}
	}
}

// TestInsertsFillFreedSpace holds both insert paths to the placement
// order — the target page, then the lowest-numbered page the free-space
// map lists with room, then a new page — under random deletes, and the
// map's figures to what a walk of each page finds.
func TestInsertsFillFreedSpace(t *testing.T) {
	f := newTestHeap(t)
	r := rand.New(rand.NewSource(9))
	var live []RID
	pageFree := func(pid storage.PageID) int {
		p, err := f.bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		defer f.bp.Unpin(p, false)
		return storage.SlotFreeSpace(p.Data)
	}
	// want is the page an insert of payload must land on.
	want := func(payload []byte) storage.PageID {
		n := TupleHeaderSize + len(payload)
		if f.target != storage.InvalidPageID && pageFree(f.target) >= n {
			return f.target
		}
		if pid := f.free.Lowest(n, 0, f.target); pid != storage.InvalidPageID {
			return pid
		}
		return storage.PageID(f.NumPages())
	}
	reused := 0
	for step := 0; step < 4000; step++ {
		switch k := r.Intn(10); {
		case k < 4 && len(live) > 0:
			i := r.Intn(len(live))
			if err := f.Delete(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case k < 8:
			payload := make([]byte, 1+r.Intn(100))
			r.Read(payload)
			page := want(payload)
			rid, err := insertOne(f, payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rid.Page != page {
				t.Fatalf("step %d: insert went to page %d, want %d", step, rid.Page, page)
			}
			if uint32(page)+1 < f.NumPages() {
				reused++
			}
			live = append(live, rid)
		default:
			payloads := make([][]byte, 1+r.Intn(8))
			for i := range payloads {
				payloads[i] = make([]byte, 1+r.Intn(100))
				r.Read(payloads[i])
			}
			page := want(payloads[0])
			rids, err := f.InsertBatchTx(payloads, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rids[0].Page != page {
				t.Fatalf("step %d: batch began on page %d, want %d", step, rids[0].Page, page)
			}
			live = append(live, rids...)
		}
		for pid := storage.PageID(1); uint32(pid) < f.NumPages(); pid++ {
			if got, known := f.free.Free(pid); known && got != pageFree(pid) {
				t.Fatalf("step %d: the map holds %d bytes free on page %d, the page has %d", step, got, pid, pageFree(pid))
			}
		}
	}
	if reused < 100 {
		t.Fatalf("only %d inserts went to freed space before the last page", reused)
	}
	if int(f.Count()) != len(live) {
		t.Fatalf("Count = %d, %d live records", f.Count(), len(live))
	}
}

// TestBatchRecordCarriesXminOnce: the log record covering a page of
// InsertBatchTx's tuples leaves their headers out, the xmin carried once,
// and decodes back to the very tuple bytes the page holds — for a
// transaction's versions and for frozen ones alike.
func TestBatchRecordCarriesXminOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.OpenWriter(dir, wal.Options{Mode: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.AppendCommit(); err != nil {
		t.Fatal(err)
	}
	pool := storage.NewPool(1024, 16)
	pool.AttachWAL(w)
	bp := pool.Open("t.tbl", storage.NewMem(1024), obs.WaitNone)
	f, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < 120; i++ {
		payloads = append(payloads, []byte(fmt.Sprintf("payload %d", i)))
	}
	var rids []RID
	for _, xmin := range []uint64{0, 1 << 33} {
		r, err := f.InsertBatchTx(payloads, xmin)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r...)
	}
	g := wal.NewGroup()
	staged := bp.StagePending(g)
	lsns, _, err := w.AppendGroupCommit(g)
	if err != nil {
		t.Fatal(err)
	}
	bp.ResolvePending(staged, lsns)
	if err := w.Sync(w.AppendedLSN()); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	batch, tuples := st.ByType[wal.RecSlotBatchPut].Bytes, int64(0)
	for _, p := range payloads {
		tuples += 2 * int64(TupleHeaderSize+len(p))
	}
	if batch >= tuples-2*int64(len(payloads))*(TupleHeaderSize-4) {
		t.Errorf("the batch records take %d bytes for %d bytes of tuples: the headers are not left out", batch, tuples)
	}
	logged := map[RID][]byte{}
	if _, err := wal.Replay(dir, func(r *wal.Record) error {
		for i, slot := range r.Slots {
			logged[RID{Page: storage.PageID(r.Page), Slot: slot}] = r.Recs[i]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(rids) {
		t.Fatalf("the log holds %d batch tuples, want %d", len(logged), len(rids))
	}
	for _, rid := range rids {
		p, err := bp.Fetch(rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		onPage := bytes.Clone(storage.SlotRead(p.Data, int(rid.Slot)))
		bp.Unpin(p, false)
		if !bytes.Equal(logged[rid], onPage) {
			t.Fatalf("%v: logged %x, the page holds %x", rid, logged[rid], onPage)
		}
	}
}

// TestRecountRepairsUnresolved: the heap's pass after recovery judges
// every tuple's header where it lies by Unresolved's rule — here the log
// commits 11, and its checkpoint saw 10 as the next xid with 4 open, so 4
// and 12 are unresolved and 3 and 11 are not. It flags aborted the tuples
// whose xmin is unresolved, clears the xmaxes that are, counts what it
// repaired, flushes after the page, leaves alone a slot that a committed
// tuple reuses after an unresolved one's was freed, and repairs nothing
// on a second run.
func TestRecountRepairsUnresolved(t *testing.T) {
	unresolved := Unresolved(map[uint64]bool{11: true}, wal.CheckpointState{NextXid: 10, Running: []uint64{4}})
	for xid, want := range map[uint64]bool{0: false, 3: false, 4: true, 9: false, 10: true, 11: false, 12: true} {
		if unresolved(xid) != want {
			t.Errorf("Unresolved(%d) = %v, want %v", xid, !want, want)
		}
	}
	f := newTestHeap(t)
	type version struct {
		xmin, xmax uint64
		aborted    bool
	}
	var rids []RID
	var want []TupleHeader
	for _, v := range []version{
		{xmin: 3},                           // resolved: left alone
		{xmin: 4},                           // open at the checkpoint: aborted
		{xmin: 11, xmax: 12},                // xmax cleared
		{xmin: 12, xmax: 12},                // aborted, xmax cleared
		{xmin: 3, xmax: 4},                  // xmax cleared
		{xmin: 0, xmax: 3},                  // frozen, deleted before the checkpoint: left alone
		{xmin: 12, aborted: true},           // rolled back already: left alone
		{xmin: 12, xmax: 11, aborted: true}, // a committed xmax: left alone
	} {
		rid, err := insertOne(f, []byte("payload"), v.xmin)
		if err != nil {
			t.Fatal(err)
		}
		h := TupleHeader{Xmin: v.xmin}
		if v.xmax != 0 {
			if err := f.SetXmax(rid, v.xmax); err != nil {
				t.Fatal(err)
			}
		}
		if v.aborted {
			if err := f.MarkAborted(rid); err != nil {
				t.Fatal(err)
			}
			h.Flags = FlagXminAborted
		}
		if unresolved(v.xmin) && !v.aborted {
			h.Flags = FlagXminAborted
		}
		if !unresolved(v.xmax) {
			h.Xmax = v.xmax
		}
		rids = append(rids, rid)
		want = append(want, h)
	}
	// An unresolved transaction's tuple, freed, and a committed one in
	// its slot.
	gone, err := insertOne(f, []byte("gone"), 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(gone); err != nil {
		t.Fatal(err)
	}
	reused, err := insertOne(f, []byte("reused"), 11)
	if err != nil {
		t.Fatal(err)
	}
	if reused != gone {
		t.Fatalf("the committed tuple went to %v, not the freed slot %v", reused, gone)
	}
	rids = append(rids, reused)
	want = append(want, TupleHeader{Xmin: 11})

	flushes := 0
	flush := func() error { flushes++; return nil }
	fx, err := f.Recount(unresolved, 2, flush) // one page repaired: the last flush
	if err != nil {
		t.Fatal(err)
	}
	if fx != (Fixups{Aborted: 2, XmaxCleared: 3}) || flushes != 1 {
		t.Fatalf("Recount repaired %+v with %d flushes, want 2 aborted, 3 xmaxes cleared, 1 flush", fx, flushes)
	}
	if f.Count() != int64(len(rids)) {
		t.Fatalf("Count = %d, want %d", f.Count(), len(rids))
	}
	for i, rid := range rids {
		if err := f.GetVersion(rid, func(h TupleHeader, _ []byte) error {
			if h != want[i] {
				t.Errorf("tuple %d at %v: header %+v, want %+v", i, rid, h, want[i])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if fx, err := f.Recount(unresolved, 1, flush); err != nil || fx != (Fixups{}) || flushes != 1 {
		t.Fatalf("a second Recount repaired %+v (%v, %d flushes), want nothing", fx, err, flushes)
	}
}

// insertOne stores one tuple version of transaction xmin the way a
// table's rows go in, through InsertBatchTx.
func insertOne(f *File, payload []byte, xmin uint64) (RID, error) {
	rids, err := f.InsertBatchTx([][]byte{payload}, xmin)
	if err != nil {
		return InvalidRID, err
	}
	return rids[0], nil
}
