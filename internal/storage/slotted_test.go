package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

// slotInsertWalking is SlotInsert as it was before it read the gap first:
// every fit check walks the directory, and so does every search for a dead
// slot to reuse. The reference of the placement property and of FuzzSlotOps.
func slotInsertWalking(data []byte, rec []byte) (int, bool) {
	if len(rec) > SlotFreeSpace(data) {
		return 0, false
	}
	nslots := SlotCount(data)
	for s := 0; s < nslots; s++ {
		if off, _ := slotEntry(data, s); off == deadOffset {
			return s, slotPlace(data, s, rec)
		}
	}
	if PageHeaderSize+(nslots+1)*slotSize > int(get16(data, 4)) {
		slotCompact(data)
	}
	put16(data, 0, uint16(nslots+1))
	setSlotEntry(data, nslots, deadOffset, 0)
	return nslots, slotPlace(data, nslots, rec)
}

// slotUpdateCompacting is SlotUpdate as it was before it learned to use
// the contiguous gap and to widen a record where it lies: a growing record
// always kills its slot and compacts the whole area first. The property
// test holds the placements to the same answers.
func slotUpdateCompacting(data []byte, slot int, rec []byte) bool {
	old := SlotRead(data, slot)
	if old == nil {
		return false
	}
	if len(rec) <= len(old) {
		off, _ := slotEntry(data, slot)
		copy(data[off:], rec)
		setSlotEntry(data, slot, off, uint16(len(rec)))
		return true
	}
	if len(rec) > SlotFreeSpace(data)+len(old) {
		return false
	}
	setSlotEntry(data, slot, deadOffset, 0)
	slotCompact(data)
	off := int(get16(data, 4)) - len(rec)
	copy(data[off:], rec)
	put16(data, 4, uint16(off))
	setSlotEntry(data, slot, uint16(off), uint16(len(rec)))
	return true
}

// slotInsertAtCompacting is SlotInsertAt over the compacting update.
func slotInsertAtCompacting(data []byte, slot int, rec []byte) bool {
	if SlotRead(data, slot) != nil {
		return slotUpdateCompacting(data, slot, rec)
	}
	return SlotInsertAt(data, slot, rec)
}

// sameSlotAnswers reports the first observable difference between two
// slotted areas: slot count, live count, free space, or a record.
func sameSlotAnswers(t *testing.T, what string, a, b []byte) {
	t.Helper()
	if SlotCount(a) != SlotCount(b) || SlotLive(a) != SlotLive(b) || SlotFreeSpace(a) != SlotFreeSpace(b) {
		t.Fatalf("%s: count %d/%d live %d/%d free %d/%d", what,
			SlotCount(a), SlotCount(b), SlotLive(a), SlotLive(b), SlotFreeSpace(a), SlotFreeSpace(b))
	}
	for s := 0; s < SlotCount(a); s++ {
		if !bytes.Equal(SlotRead(a, s), SlotRead(b, s)) {
			t.Fatalf("%s: slot %d holds %q / %q", what, s, SlotRead(a, s), SlotRead(b, s))
		}
	}
}

// placement names how SlotUpdate stored a growing record, from the page
// before and after: in the gap (the record heap grew by the whole record),
// widened where it lay (the heap grew by the growth and the record moved
// down by it), or neither — the page was compacted.
func placement(freeHiBefore, offBefore, oldLen int, after []byte, slot int) string {
	off, l := slotEntry(after, slot)
	switch grow, freeHi := int(l)-oldLen, int(get16(after, 4)); {
	case freeHi == freeHiBefore-int(l) && int(off) == freeHi:
		return "gap"
	case freeHi == freeHiBefore-grow && int(off) == offBefore-grow:
		return "in place"
	}
	return "compacted"
}

// TestSlotUpdatePlacementProperty drives random put/update/delete
// sequences — the traffic of an SP-GiST node page — through SlotInsert and
// SlotUpdate and through the walking, always-compacting placement they
// replaced: every fit decision, slot number, record and free-space figure
// must agree, because node placement (and so the benchmark's page counts
// and file sizes) hangs on them. Every seed must place a growing record in
// the gap and widen one where it lies at least once each, or the property
// covers less than it says. The sequence is recorded as the log would
// record it (put at slot, delete of slot) and redone with
// SlotInsertAt/SlotDelete on a blank page, as recovery does; redo must
// arrive at the same answers.
//
// And the free-space figure a caller carries forward by SlotFreeSpaceAfter
// must equal the walked one after every operation — core.Tree places nodes
// by it. (That compaction through the borrowed buffer lays records out as
// compaction through a fresh copy did is TestSlotCompactLayoutAndAllocations'.)
func TestSlotUpdatePlacementProperty(t *testing.T) {
	type logged struct {
		slot int
		rec  []byte // nil: delete
	}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		size := []int{256, 1024, 8192}[r.Intn(3)]
		page, ref := make([]byte, size), make([]byte, size)
		SlotInit(page)
		SlotInit(ref)
		free := SlotFreeSpace(page)
		var log []logged
		var live []int
		placed := map[string]int{}
		for op := 0; op < 400; op++ {
			rec := make([]byte, 1+r.Intn(size/6))
			r.Read(rec)
			dir, grew := SlotDirCost(page), 0
			switch k := r.Intn(10); {
			case k < 3 || len(live) == 0: // put
				s1, ok1 := SlotInsert(page, rec)
				s2, ok2 := slotInsertWalking(ref, rec)
				if ok1 != ok2 || s1 != s2 {
					t.Fatalf("seed %d op %d: insert gave slot %d,%v / %d,%v", seed, op, s1, ok1, s2, ok2)
				}
				if ok1 {
					live = append(live, s1)
					log = append(log, logged{s1, rec})
					grew = len(rec)
				}
			case k < 8: // update, growing more often than not (a leaf gaining items)
				slot := live[r.Intn(len(live))]
				if old := SlotRead(page, slot); r.Intn(4) > 0 {
					rec = append(append([]byte(nil), old...), rec[:1+r.Intn(len(rec))]...)
				}
				off, oldLen := slotEntry(page, slot)
				freeHi := int(get16(page, 4))
				ok1 := SlotUpdate(page, slot, rec)
				ok2 := slotUpdateCompacting(ref, slot, rec)
				if ok1 != ok2 {
					t.Fatalf("seed %d op %d: update of slot %d to %d bytes fits %v / %v", seed, op, slot, len(rec), ok1, ok2)
				}
				if ok1 {
					log = append(log, logged{slot, rec})
					grew = len(rec) - int(oldLen)
					if grew > 0 {
						placed[placement(freeHi, int(off), int(oldLen), page, slot)]++
					}
				}
			default: // delete
				i := r.Intn(len(live))
				grew = -len(SlotRead(page, live[i]))
				SlotDelete(page, live[i])
				SlotDelete(ref, live[i])
				log = append(log, logged{live[i], nil})
				live = append(live[:i], live[i+1:]...)
			}
			sameSlotAnswers(t, "gap-first placement vs compacting placement", page, ref)
			if free = SlotFreeSpaceAfter(page, free, dir, grew); free != SlotFreeSpace(page) {
				t.Fatalf("seed %d op %d: free space carried forward is %d, walked %d", seed, op, free, SlotFreeSpace(page))
			}
		}
		if placed["gap"] == 0 || placed["in place"] == 0 {
			t.Errorf("seed %d: growing updates placed %v; the property needs the gap and in-place growth at least once each", seed, placed)
		}
		redo := make([]byte, size)
		SlotInit(redo)
		for i, l := range log {
			if l.rec == nil {
				SlotDelete(redo, l.slot)
			} else if !SlotInsertAt(redo, l.slot, l.rec) {
				t.Fatalf("seed %d: redo of record %d (slot %d, %d bytes) does not fit", seed, i, l.slot, len(l.rec))
			}
		}
		sameSlotAnswers(t, "redo on a blank page vs the live page", redo, page)
	}
}

// FuzzSlotOps decodes arbitrary bytes into a page size of 256 to 8 192
// bytes and a sequence of inserts, updates, deletes and inserts at a slot,
// and runs them on a page and on the walking, compacting reference: no
// operation may panic, the two pages must give the same answers after
// every one, and the free space carried forward by SlotFreeSpaceAfter must
// equal the walked figure.
//
//	go test -run '^$' -fuzz FuzzSlotOps -fuzztime 10s ./internal/storage
func FuzzSlotOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 40, 0, 1, 10, 7, 1, 0, 80, 3, 2, 0, 0, 0, 3, 9, 30, 1})
	f.Add([]byte{3, 255, 0, 200, 1, 1, 0, 90, 2, 1, 1, 150, 3, 1, 2, 0, 1, 0, 2, 230, 9})
	f.Add(bytes.Repeat([]byte{1, 0, 33, 5}, 64))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		size := 256 + (int(in[0])<<8|int(in[1]))%(8192-256+1)
		page, ref := make([]byte, size), make([]byte, size)
		SlotInit(page)
		SlotInit(ref)
		free := SlotFreeSpace(page)
		for in = in[2:]; len(in) >= 4; in = in[4:] {
			op, slot := in[0]%4, int(in[1])
			n := 1 + int(in[2])*size/(4*256) // up to a quarter page
			if old := SlotRead(page, slot); op == 1 && in[3]%2 == 0 && old != nil {
				n += len(old) // mostly growth, as an SP-GiST leaf grows
			}
			rec := bytes.Repeat([]byte{in[3]}, n)
			dir, before := SlotDirCost(page), liveBytes(page)
			switch op {
			case 0:
				s1, ok1 := SlotInsert(page, rec)
				s2, ok2 := slotInsertWalking(ref, rec)
				if s1 != s2 || ok1 != ok2 {
					t.Fatalf("insert of %d bytes: slot %d,%v / %d,%v", n, s1, ok1, s2, ok2)
				}
			case 1:
				if ok1, ok2 := SlotUpdate(page, slot, rec), slotUpdateCompacting(ref, slot, rec); ok1 != ok2 {
					t.Fatalf("update of slot %d to %d bytes: %v / %v", slot, n, ok1, ok2)
				}
			case 2:
				SlotDelete(page, slot)
				SlotDelete(ref, slot)
			case 3:
				if ok1, ok2 := SlotInsertAt(page, slot, rec), slotInsertAtCompacting(ref, slot, rec); ok1 != ok2 {
					t.Fatalf("insert at slot %d of %d bytes: %v / %v", slot, n, ok1, ok2)
				}
			}
			sameSlotAnswers(t, "page vs compacting reference", page, ref)
			if free = SlotFreeSpaceAfter(page, free, dir, liveBytes(page)-before); free != SlotFreeSpace(page) {
				t.Fatalf("op %d on slot %d: free space carried forward is %d, walked %d", op, slot, free, SlotFreeSpace(page))
			}
		}
	})
}

// liveBytes sums the lengths of a page's live records.
func liveBytes(page []byte) int {
	n := 0
	for s := 0; s < SlotCount(page); s++ {
		n += len(SlotRead(page, s))
	}
	return n
}
