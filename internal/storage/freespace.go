package storage

// FreeSpace is an in-memory free-space map over the slotted pages of one
// file: the exact bytes SlotFreeSpace would report for every page its
// owner has noted, and the set of those pages with at least a floor free —
// the ones worth trying when a record must go somewhere new. PostgreSQL's
// FSM plays this role for its heaps and indexes; here an SP-GiST tree
// notes every page it writes, and a heap the pages VACUUM deletes from.
// A page the owner never noted is unknown, not full. Not safe for
// concurrent use; the owner serializes access as it does for its pages.
type FreeSpace struct {
	floor int
	free  map[PageID]int
	// listed indexes the pages with at least floor bytes free, so space
	// freed on them is found again without visiting every noted page.
	listed map[PageID]struct{}
}

// NewFreeSpace returns an empty map that lists pages with at least floor
// bytes free.
func NewFreeSpace(floor int) *FreeSpace {
	return &FreeSpace{floor: floor, free: make(map[PageID]int), listed: make(map[PageID]struct{})}
}

// Set records that page pid has free bytes free.
func (m *FreeSpace) Set(pid PageID, free int) {
	m.free[pid] = free
	if free >= m.floor {
		m.listed[pid] = struct{}{}
	} else {
		delete(m.listed, pid)
	}
}

// Note updates p's figure after one slot operation that added grew bytes
// to its live records (negative: removed), dirBefore being the page's
// SlotDirCost before it. The figure moves by what the operation put in
// (SlotFreeSpaceAfter), so the page's directory is not walked again after
// every write; a page not noted before is walked once.
func (m *FreeSpace) Note(p *Page, dirBefore, grew int) {
	m.Set(p.ID, SlotFreeSpaceAfter(p.Data, m.free[p.ID], dirBefore, grew))
}

// Free returns the bytes free on page pid, and whether the page was noted.
func (m *FreeSpace) Free(pid PageID) (free int, known bool) {
	free, known = m.free[pid]
	return free, known
}

// Lowest returns the lowest-numbered listed page above after with at least
// need bytes free that is none of skip, or InvalidPageID. Taking the
// lowest rather than whichever a map iteration offers first keeps
// placement a function of the operations alone, so equal histories build
// equal files.
func (m *FreeSpace) Lowest(need int, after PageID, skip ...PageID) PageID {
	pick := InvalidPageID
next:
	for pid := range m.listed {
		if pid <= after || pid >= pick || m.free[pid] < need {
			continue
		}
		for _, s := range skip {
			if pid == s {
				continue next
			}
		}
		pick = pid
	}
	return pick
}

// Listed returns how many pages have at least the floor free.
func (m *FreeSpace) Listed() int { return len(m.listed) }

// Total returns the free bytes of every noted page.
func (m *FreeSpace) Total() int64 {
	var n int64
	for _, free := range m.free {
		n += int64(free)
	}
	return n
}
