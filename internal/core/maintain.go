package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/heap"
	"repro/internal/storage"
)

// BulkDelete removes every item whose RID dead reports: the
// spgistbulkdelete interface routine of the paper's Table 2, which VACUUM
// calls once per batch of dead heap versions. Like PostgreSQL's
// spgvacuumscan it reads the index file once in page order rather than
// walking the tree: each page is fetched once and its data-node records
// (overflow records included) are tested where they lie, and only a record
// holding a dead RID is fetched again and rewritten, in place. Removal only
// shrinks a record, so it always fits and no parent is patched. Emptied data
// nodes, the inner nodes above them and their pages stay.
//
// It returns the number of keys removed by Count's rule: distinct RIDs
// under MultiAssign, where a key is an item in every cell it crosses, and
// items otherwise (the suffix tree counts each suffix).
func (t *Tree) BulkDelete(dead func(rid heap.RID) bool) (int, error) {
	type rewrite struct {
		slot int
		rec  []byte
	}
	var hits []rewrite
	var dropped []heap.RID
	n := t.bp.DM().NumPages()
	for pid := storage.PageID(1); uint32(pid) < n; pid++ {
		p, err := t.bp.Fetch(pid)
		if err != nil {
			return 0, err
		}
		hits = hits[:0]
		for slot, slots := 0, storage.SlotCount(p.Data); slot < slots; slot++ {
			rec := storage.SlotRead(p.Data, slot)
			if len(rec) == 0 || rec[0] != nodeKindLeaf {
				continue
			}
			var kept []byte
			if kept, dropped, err = dropDead(rec, dead, dropped); err != nil {
				t.bp.Unpin(p, false)
				return 0, fmt.Errorf("%w (page %d slot %d)", err, pid, slot)
			}
			if kept != nil {
				hits = append(hits, rewrite{slot, kept})
			}
		}
		t.bp.Unpin(p, false)
		for _, h := range hits {
			if p, err = t.bp.Fetch(pid); err != nil {
				return 0, err
			}
			if _, err = t.writeRecord(p, NodeRef{Page: pid, Slot: uint16(h.slot)}, h.rec, nil); err != nil {
				return 0, err
			}
		}
	}
	removed := len(dropped)
	if t.pr.MultiAssign {
		gone := make(map[heap.RID]struct{}, len(dropped))
		for _, rid := range dropped {
			gone[rid] = struct{}{}
		}
		removed = len(gone)
	}
	t.nKeys -= int64(removed)
	return removed, nil
}

// dropDead returns a copy of the data-node record rec without the items
// whose RID dead reports, and dropped with their RIDs appended; nil and
// dropped as it was when no item is dead.
func dropDead(rec []byte, dead func(heap.RID) bool, dropped []heap.RID) ([]byte, []heap.RID, error) {
	_, cnt, err := leafHeader(rec)
	if err != nil {
		return nil, dropped, err
	}
	var out []byte
	had := len(dropped)
	for i, off := 0, leafHeaderSize; i < cnt; i++ {
		end := off + 2 + int(binary.LittleEndian.Uint16(rec[off:])) + heap.RIDSize
		if rid := heap.RIDFromBytes(rec[end-heap.RIDSize:]); dead(rid) {
			if out == nil {
				out = append(make([]byte, 0, len(rec)), rec[:off]...)
			}
			dropped = append(dropped, rid)
		} else if out != nil {
			out = append(out, rec[off:end]...)
		}
		off = end
	}
	if out != nil {
		binary.LittleEndian.PutUint16(out[1+refSize:], uint16(cnt-(len(dropped)-had)))
	}
	return out, dropped, nil
}
