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
		gap, ref := make([]byte, size), make([]byte, size)
		SlotInit(gap)
		SlotInit(ref)
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
				if old := SlotRead(gap, slot); r.Intn(4) > 0 {
					rec = append(append([]byte(nil), old...), rec[:1+r.Intn(len(rec))]...)
				}
				before, oldLen := int(get16(gap, 4)), len(SlotRead(gap, slot))
				ok1 := SlotUpdate(gap, slot, rec)
				ok2 := slotUpdateCompacting(ref, slot, rec)
				if ok1 != ok2 {
					t.Fatalf("seed %d op %d: update of slot %d to %d bytes fits %v / %v", seed, op, slot, len(rec), ok1, ok2)
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
				log = append(log, logged{live[i], nil})
				live = append(live[:i], live[i+1:]...)
			}
			sameSlotAnswers(t, "gap placement vs compacting placement", gap, ref)
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
