package core

import (
	"bytes"
	"fmt"

	"repro/internal/heap"
)

// Delete removes the (key, rid) pair from the index, using the opclass's
// EqualityOp to locate the data nodes holding the key. With an invalid
// rid every item matching the key is removed. It returns the number of
// logical keys removed (MultiAssign copies count once).
//
// Like the PostgreSQL realization, deletion removes leaf items but does
// not merge or shrink inner nodes; BulkDelete plays the role of
// spgistbulkdelete for batched VACUUM-style cleanup.
func (t *Tree) Delete(key Value, rid heap.RID) (int, error) {
	if t.pr.EqualityOp == "" {
		return 0, fmt.Errorf("spgist: opclass %s declares no EqualityOp; use BulkDelete", t.oc.Name())
	}
	kb := t.oc.EncodeKey(key)
	q := &Query{Op: t.pr.EqualityOp, Arg: key}

	leaves, err := t.searchLeaves(q)
	if err != nil {
		return 0, err
	}
	return t.dropItems(leaves, func(it item) bool {
		return bytes.Equal(it.key, kb) && (!rid.Valid() || it.rid == rid)
	})
}

// dropItems rewrites the data-node records at leaves without the items drop
// selects and returns the number of logical keys that went. Removal shrinks
// records, so the rewrites always succeed in place and no parent is patched.
func (t *Tree) dropItems(leaves []NodeRef, drop func(it item) bool) (int, error) {
	removed := make(map[heap.RID]struct{})
	for _, ref := range leaves {
		n, err := t.readNode(ref)
		if err != nil {
			return 0, err
		}
		kept := n.items[:0]
		for _, it := range n.items {
			if drop(it) {
				removed[it.rid] = struct{}{}
			} else {
				kept = append(kept, it)
			}
		}
		if len(kept) < len(n.items) {
			n.items = kept
			if _, err := t.writeNode(ref, n, nil); err != nil {
				return 0, err
			}
		}
	}
	t.nKeys -= int64(len(removed))
	return len(removed), nil
}

// searchLeaves returns the data-node records (overflow records included)
// a Scan of q would test.
func (t *Tree) searchLeaves(q *Query) ([]NodeRef, error) {
	var leaves []NodeRef
	d := t.newDescent(q)
	defer d.release()
	for {
		n, err := d.next()
		if n == nil || err != nil {
			return leaves, err
		}
		leaves = append(leaves, d.ref)
	}
}

// BulkDelete removes every item whose RID satisfies drop, visiting the
// whole index once (the spgistbulkdelete interface routine of the paper's
// Table 2). It returns the number of logical keys removed.
func (t *Tree) BulkDelete(drop func(rid heap.RID) bool) (int, error) {
	var leaves []NodeRef
	err := t.walk(func(ref NodeRef, v *nodeView, _, _ int) bool {
		if v.leaf {
			leaves = append(leaves, ref)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return t.dropItems(leaves, func(it item) bool { return drop(it.rid) })
}
