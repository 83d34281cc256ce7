package core

import (
	"fmt"

	"repro/internal/heap"
)

// Scan runs the generic search internal method: it walks the tree guided
// by the opclass's InnerConsistent and LeafConsistent external methods and
// calls emit for every qualifying (key, rid). A nil query matches every
// key. Scanning stops early when emit returns false.
//
// Trees whose opclass declares MultiAssign (PMR quadtree) or whose rows
// contribute several keys (suffix tree) report each RID once.
func (t *Tree) Scan(q *Query, emit func(key Value, rid heap.RID) bool) error {
	if !t.root.Valid() {
		return nil
	}
	type frame struct {
		ref   NodeRef
		level int
		recon Value
	}
	stack := []frame{{t.root, 0, t.oc.RootRecon()}}
	var seen map[heap.RID]struct{}
	if t.pr.MultiAssign || t.pr.DedupScan {
		seen = make(map[heap.RID]struct{})
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.readNodeRO(f.ref)
		if err != nil {
			return err
		}
		if n.leaf {
			keys := t.keyValues(n)
			for i, it := range n.items {
				kv := keys[i]
				if q != nil && !t.oc.LeafConsistent(q, kv, f.level) {
					continue
				}
				if seen != nil {
					if _, dup := seen[it.rid]; dup {
						continue
					}
					seen[it.rid] = struct{}{}
				}
				if !emit(kv, it.rid) {
					return nil
				}
			}
			if n.next.Valid() {
				stack = append(stack, frame{n.next, f.level, f.recon})
			}
			continue
		}
		pred, labels := t.innerValues(n)
		out := t.oc.InnerConsistent(&InnerIn{
			Query:  q,
			Level:  f.level,
			Pred:   pred,
			Labels: labels,
			Recon:  f.recon,
		})
		first := len(stack)
		for _, fo := range out.Follow {
			if fo.Entry < 0 || fo.Entry >= len(n.entries) {
				return fmt.Errorf("spgist: %s.InnerConsistent follow entry %d out of range", t.oc.Name(), fo.Entry)
			}
			child := n.entries[fo.Entry].child
			if !child.Valid() {
				continue // empty partition of a NodeShrink=false tree
			}
			stack = append(stack, frame{child, f.level + fo.LevelAdd, fo.Recon})
		}
		// Every followed child will be visited, but the last one pushed
		// is popped — and fetched — on the very next iteration: a
		// prefetch of it could overlap with nothing (on an exact-match
		// descent it is the only child). Readahead goes to the siblings
		// that wait on the stack behind it, the ones on pages neither
		// this node nor that fetch brings in.
		if last := len(stack) - 1; last > first && t.bp.ReadaheadPages() > 0 {
			next := stack[last].ref.Page
			for _, sib := range stack[first:last] {
				if p := sib.ref.Page; p != f.ref.Page && p != next {
					t.bp.Prefetch(p)
				}
			}
		}
	}
	return nil
}

// Lookup collects all RIDs matching the query (a convenience wrapper over
// Scan used by tests and simple callers).
func (t *Tree) Lookup(q *Query) ([]heap.RID, error) {
	var rids []heap.RID
	err := t.Scan(q, func(_ Value, rid heap.RID) bool {
		rids = append(rids, rid)
		return true
	})
	return rids, err
}

// walk visits every node reachable from the root in depth-first order,
// calling fn with the node's reference, decoded form, level, and the
// number of distinct pages on the path from the root (the node's
// page-depth). Returning false stops the walk.
func (t *Tree) walk(fn func(ref NodeRef, n *node, level, pageDepth int) bool) error {
	if !t.root.Valid() {
		return nil
	}
	type frame struct {
		ref       NodeRef
		level     int
		pageDepth int
	}
	stack := []frame{{t.root, 1, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.readNodeRO(f.ref)
		if err != nil {
			return err
		}
		if !fn(f.ref, n, f.level, f.pageDepth) {
			return nil
		}
		if n.leaf && n.next.Valid() {
			pd := f.pageDepth
			if n.next.Page != f.ref.Page {
				pd++
			}
			// Overflow records continue the same logical node: same level.
			stack = append(stack, frame{n.next, f.level, pd})
		}
		for _, e := range n.entries {
			if !e.child.Valid() {
				continue
			}
			pd := f.pageDepth
			if e.child.Page != f.ref.Page {
				pd++
			}
			stack = append(stack, frame{e.child, f.level + 1, pd})
		}
	}
	return nil
}
