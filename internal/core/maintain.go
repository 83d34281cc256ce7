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
func (t *Tree) BulkDelete(dead func(rid heap.RID) bool) error {
	type rewrite struct {
		slot int
		rec  []byte
	}
	var hits []rewrite
	n := t.bp.DM().NumPages()
	for pid := storage.PageID(1); uint32(pid) < n; pid++ {
		p, err := t.bp.Fetch(pid)
		if err != nil {
			return err
		}
		hits = hits[:0]
		for slot, slots := 0, storage.SlotCount(p.Data); slot < slots; slot++ {
			rec := storage.SlotRead(p.Data, slot)
			if len(rec) == 0 || rec[0] != nodeKindLeaf {
				continue
			}
			kept, err := dropDead(rec, dead)
			if err != nil {
				t.bp.Unpin(p, false)
				return fmt.Errorf("%w (page %d slot %d)", err, pid, slot)
			}
			if kept != nil {
				hits = append(hits, rewrite{slot, kept})
			}
		}
		t.bp.Unpin(p, false)
		for _, h := range hits {
			if p, err = t.bp.Fetch(pid); err != nil {
				return err
			}
			if _, err = t.writeRecord(p, NodeRef{Page: pid, Slot: uint16(h.slot)}, h.rec, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropDead returns a copy of the data-node record rec without the items
// whose RID dead reports, or nil when no item is dead.
func dropDead(rec []byte, dead func(heap.RID) bool) ([]byte, error) {
	_, cnt, err := leafHeader(rec)
	if err != nil {
		return nil, err
	}
	var out []byte
	kept := cnt
	for i, off := 0, leafHeaderSize; i < cnt; i++ {
		end := off + 2 + int(binary.LittleEndian.Uint16(rec[off:])) + heap.RIDSize
		if dead(heap.RIDFromBytes(rec[end-heap.RIDSize:])) {
			if out == nil {
				out = append(make([]byte, 0, len(rec)), rec[:off]...)
			}
			kept--
		} else if out != nil {
			out = append(out, rec[off:end]...)
		}
		off = end
	}
	if out != nil {
		binary.LittleEndian.PutUint16(out[1+refSize:], uint16(kept))
	}
	return out, nil
}
