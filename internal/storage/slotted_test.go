package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

// slotUpdateCompacting is SlotUpdate as it was before it learned to use
// the contiguous gap: a growing record always kills its slot and compacts
// the whole area first. The property test holds the two placements to the
// same answers.
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

// The three functions below are slotCompact, SlotInsert and SlotUpdate as
// they stood before they stopped walking the directory and copying the
// page (PR 21): compaction through a fresh copy of the whole area, every
// fit decided by SlotFreeSpace, every dead slot found by search. The
// property test holds today's functions to the same bytes.
func slotCompactParent(data []byte) {
	old := append([]byte(nil), data...)
	hi := len(data)
	for s, nslots := 0, SlotCount(old); s < nslots; s++ {
		if rec := SlotRead(old, s); rec != nil {
			hi -= len(rec)
			copy(data[hi:], rec)
			setSlotEntry(data, s, uint16(hi), uint16(len(rec)))
		}
	}
	put16(data, 4, uint16(hi))
}

func slotPlaceParent(data []byte, slot int, rec []byte) {
	freeLo := slottedHeaderSize + SlotCount(data)*slotSize
	freeHi := int(get16(data, 4))
	if freeHi-freeLo < len(rec) {
		slotCompactParent(data)
		freeHi = int(get16(data, 4))
	}
	off := freeHi - len(rec)
	copy(data[off:], rec)
	put16(data, 4, uint16(off))
	setSlotEntry(data, slot, uint16(off), uint16(len(rec)))
}

func slotInsertParent(data []byte, rec []byte) (slot int, ok bool) {
	if len(rec) > SlotFreeSpace(data) {
		return 0, false
	}
	nslots := SlotCount(data)
	slot = -1
	for s := 0; s < nslots; s++ {
		if off, _ := slotEntry(data, s); off == deadOffset {
			slot = s
			break
		}
	}
	if slot < 0 {
		if slottedHeaderSize+(nslots+1)*slotSize > int(get16(data, 4)) {
			slotCompactParent(data)
		}
		slot = nslots
		put16(data, 0, uint16(nslots+1))
		setSlotEntry(data, slot, deadOffset, 0)
	}
	slotPlaceParent(data, slot, rec)
	put16(data, 6, get16(data, 6)+1)
	return slot, true
}

func slotUpdateParent(data []byte, slot int, rec []byte) bool {
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
	if freeLo := slottedHeaderSize + SlotCount(data)*slotSize; int(get16(data, 4))-freeLo < len(rec) {
		setSlotEntry(data, slot, deadOffset, 0)
	}
	slotPlaceParent(data, slot, rec)
	return true
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

// TestSlotUpdatePlacementProperty drives random put/update/delete
// sequences — the traffic of an SP-GiST node page — through SlotUpdate
// and through the always-compacting placement it replaced: every fit
// decision, slot number, record and free-space figure must agree, because
// node placement (and so the benchmark's page counts and file sizes) hangs
// on them. The sequence is recorded as the log would record it (put at
// slot, delete of slot) and redone with SlotInsertAt/SlotDelete on a
// blank page, as recovery does; redo must arrive at the same answers.
//
// A third area runs the same sequence through the functions as they were
// before PR 21 (fits decided by walking, compaction through a page copy)
// and must stay byte for byte equal to the first: the header-only fit
// checks and the copy-free compaction move no byte. And the free-space
// figure a caller carries forward by SlotFreeSpaceAfter must equal the
// walked one after every operation — core.Tree places nodes by it.
func TestSlotUpdatePlacementProperty(t *testing.T) {
	type logged struct {
		slot int
		rec  []byte // nil: delete
	}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		size := []int{256, 1024, 8192}[r.Intn(3)]
		gap, ref, par := make([]byte, size), make([]byte, size), make([]byte, size)
		SlotInit(gap)
		SlotInit(ref)
		SlotInit(par)
		free := SlotFreeSpace(gap)
		var log []logged
		var live []int
		gapPlacements := 0
		for op := 0; op < 400; op++ {
			rec := make([]byte, 1+r.Intn(size/6))
			r.Read(rec)
			dir, grew := SlotDirCost(gap), 0
			switch k := r.Intn(10); {
			case k < 3 || len(live) == 0: // put
				s1, ok1 := SlotInsert(gap, rec)
				s2, ok2 := SlotInsert(ref, rec)
				s3, ok3 := slotInsertParent(par, rec)
				if ok1 != ok2 || s1 != s2 || ok1 != ok3 || s1 != s3 {
					t.Fatalf("seed %d op %d: insert gave slot %d,%v / %d,%v / %d,%v", seed, op, s1, ok1, s2, ok2, s3, ok3)
				}
				if ok1 {
					live = append(live, s1)
					log = append(log, logged{s1, rec})
					grew = len(rec)
				}
			case k < 8: // update, growing more often than not (a leaf gaining items)
				slot := live[r.Intn(len(live))]
				if old := SlotRead(gap, slot); r.Intn(4) > 0 {
					rec = append(append([]byte(nil), old...), rec[:1+r.Intn(len(rec))]...)
				}
				before, oldLen := int(get16(gap, 4)), len(SlotRead(gap, slot))
				ok1 := SlotUpdate(gap, slot, rec)
				ok2 := slotUpdateCompacting(ref, slot, rec)
				if ok3 := slotUpdateParent(par, slot, rec); ok1 != ok2 || ok1 != ok3 {
					t.Fatalf("seed %d op %d: update of slot %d to %d bytes fits %v / %v / %v", seed, op, slot, len(rec), ok1, ok2, ok3)
				}
				if ok1 {
					log = append(log, logged{slot, rec})
					grew = len(rec) - oldLen
					if int(get16(gap, 4)) == before-len(rec) {
						gapPlacements++
					}
				}
			default: // delete
				i := r.Intn(len(live))
				grew = -len(SlotRead(gap, live[i]))
				SlotDelete(gap, live[i])
				SlotDelete(ref, live[i])
				SlotDelete(par, live[i])
				log = append(log, logged{live[i], nil})
				live = append(live[:i], live[i+1:]...)
			}
			sameSlotAnswers(t, "gap placement vs compacting placement", gap, ref)
			if !bytes.Equal(gap, par) {
				t.Fatalf("seed %d op %d: the area differs from what the walking, page-copying functions lay out", seed, op)
			}
			if free = SlotFreeSpaceAfter(gap, free, dir, grew); free != SlotFreeSpace(gap) {
				t.Fatalf("seed %d op %d: free space carried forward is %d, walked %d", seed, op, free, SlotFreeSpace(gap))
			}
		}
		if gapPlacements == 0 {
			t.Errorf("seed %d: no growing update used the gap; the property covers one placement only", seed)
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
		sameSlotAnswers(t, "redo on a blank page vs the live page", redo, gap)
	}
}
