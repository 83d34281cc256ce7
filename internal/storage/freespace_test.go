package storage

import "testing"

func TestFreeSpaceListsAtTheFloor(t *testing.T) {
	m := NewFreeSpace(100)
	m.Set(7, 99)
	m.Set(3, 100)
	m.Set(5, 400)
	m.Set(9, 250)
	if m.Listed() != 3 {
		t.Fatalf("%d pages listed, want 3 (page 7 is below the floor)", m.Listed())
	}
	if free, known := m.Free(7); !known || free != 99 {
		t.Fatalf("page 7: %d free, known %v", free, known)
	}
	if _, known := m.Free(4); known {
		t.Fatal("page 4 was never noted")
	}
	if m.Total() != 99+100+400+250 {
		t.Fatalf("Total = %d", m.Total())
	}
	for _, c := range []struct {
		need        int
		after       PageID
		skip        []PageID
		want        PageID
		description string
	}{
		{50, 0, nil, 3, "the lowest listed page"},
		{50, 3, nil, 5, "above after"},
		{50, 0, []PageID{3, 5}, 9, "skipped pages"},
		{300, 0, nil, 5, "too little free on 3 and 9"},
		{99, 5, nil, 9, "page 7 has room but is not listed"},
		{500, 0, nil, InvalidPageID, "no page has room"},
	} {
		if got := m.Lowest(c.need, c.after, c.skip...); got != c.want {
			t.Errorf("%s: Lowest(%d, %d, %v) = %d, want %d", c.description, c.need, c.after, c.skip, got, c.want)
		}
	}
	m.Set(5, 10)
	if m.Listed() != 2 || m.Lowest(300, 0) != InvalidPageID {
		t.Fatalf("page 5 stays listed after its free space fell below the floor")
	}
}

// TestFreeSpaceNoteFollowsThePage: the figure Note carries forward from
// operation to operation is what a walk of the page finds.
func TestFreeSpaceNoteFollowsThePage(t *testing.T) {
	m := NewFreeSpace(64)
	p := &Page{ID: 1, Data: make([]byte, 1024)}
	SlotInit(p.Data)
	var slots []int
	for i := 0; i < 200; i++ {
		dir := SlotDirCost(p.Data)
		if i%3 == 2 && len(slots) > 0 {
			s := slots[len(slots)/2]
			slots = append(slots[:len(slots)/2], slots[len(slots)/2+1:]...)
			n := len(SlotRead(p.Data, s))
			SlotDelete(p.Data, s)
			m.Note(p, dir, -n)
		} else {
			rec := make([]byte, 10+i%40)
			s, ok := SlotInsert(p.Data, rec)
			if !ok {
				continue
			}
			slots = append(slots, s)
			m.Note(p, dir, len(rec))
		}
		if got, _ := m.Free(1); got != SlotFreeSpace(p.Data) {
			t.Fatalf("op %d: noted %d bytes free, the page has %d", i, got, SlotFreeSpace(p.Data))
		}
	}
}
