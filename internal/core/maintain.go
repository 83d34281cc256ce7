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

	// Collect the data nodes that may hold the key, then rewrite them.
	// Removal shrinks records, so rewrites always succeed in place and no
	// parent patching is needed.
	leaves, err := t.searchLeaves(q)
	if err != nil {
		return 0, err
	}
	removed := make(map[heap.RID]struct{})
	for _, ref := range leaves {
		n, err := t.readNode(ref)
		if err != nil {
			return 0, err
		}
		kept := n.items[:0]
		changed := false
		for _, it := range n.items {
			if bytes.Equal(it.key, kb) && (!rid.Valid() || it.rid == rid) {
				removed[it.rid] = struct{}{}
				changed = true
				continue
			}
			kept = append(kept, it)
		}
		if changed {
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
	removed := make(map[heap.RID]struct{})
	var leaves []NodeRef
	err := t.walk(func(ref NodeRef, n *node, _, _ int) bool {
		if n.leaf {
			leaves = append(leaves, ref)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, ref := range leaves {
		n, err := t.readNode(ref)
		if err != nil {
			return 0, err
		}
		kept := n.items[:0]
		changed := false
		for _, it := range n.items {
			if drop(it.rid) {
				removed[it.rid] = struct{}{}
				changed = true
				continue
			}
			kept = append(kept, it)
		}
		if changed {
			n.items = kept
			if _, err := t.writeNode(ref, n, nil); err != nil {
				return 0, err
			}
		}
	}
	t.nKeys -= int64(len(removed))
	return len(removed), nil
}
