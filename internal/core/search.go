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
	var seen map[heap.RID]struct{}
	if t.pr.MultiAssign || t.pr.DedupScan {
		seen = make(map[heap.RID]struct{})
	}
	d := t.newDescent(q)
	lq := d.in.Query // the descent's copy: the caller's Query need not escape
	for {
		n, err := d.next()
		if n == nil || err != nil {
			return err
		}
		keys := t.keyValues(n)
		for i, it := range n.items {
			kv := keys[i]
			if lq != nil && !t.oc.LeafConsistent(lq, kv, d.level) {
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
	}
}

// frame is one node waiting to be visited by a descent.
type frame struct {
	ref   NodeRef
	level int
	recon Value
}

// descent is the one search driver: a depth-first walk of the inner
// nodes consistent with a query that hands out the data-node records it
// reaches, one per next call. Scan tests their items; Delete collects
// their references.
//
// A descent owns every buffer the walk needs — the InnerIn it refills per
// node, the Follow slice the opclass appends into, the stack — in one
// allocation made per search, never per tree, so concurrent searches of
// one tree share nothing but the immutable cached nodes. Searches deeper
// or wider than the inline arrays spill into append-grown slices that
// also live as long as the descent.
type descent struct {
	t     *Tree
	query Query // in.Query points here, unless the search has no query
	in    InnerIn
	out   InnerOut
	stack []frame

	// ref and level describe the data-node record next last returned.
	ref   NodeRef
	level int

	stackBuf  [8]frame
	followBuf [4]InnerFollow
}

func (t *Tree) newDescent(q *Query) *descent {
	d := &descent{t: t}
	if q != nil {
		d.query = *q
		d.in.Query = &d.query
	}
	d.out.Follow = d.followBuf[:0]
	d.stack = d.stackBuf[:0]
	if t.root.Valid() {
		d.stack = append(d.stack, frame{t.root, 0, t.oc.RootRecon()})
	}
	return d
}

// next returns the next data-node record of the walk (overflow records
// included, each as a record of its own), or nil when the walk is over.
func (d *descent) next() (*node, error) {
	t := d.t
	for len(d.stack) > 0 {
		f := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		n, err := t.readNodeRO(f.ref)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			if n.next.Valid() {
				d.stack = append(d.stack, frame{n.next, f.level, f.recon})
			}
			d.ref, d.level = f.ref, f.level
			return n, nil
		}
		d.in.Level, d.in.Recon = f.level, f.recon
		d.in.Pred, d.in.Labels = t.innerValues(n)
		d.out.Follow = d.out.Follow[:0]
		t.oc.InnerConsistent(&d.in, &d.out)
		first := len(d.stack)
		for _, fo := range d.out.Follow {
			if fo.Entry < 0 || fo.Entry >= len(n.entries) {
				return nil, fmt.Errorf("spgist: %s.InnerConsistent follow entry %d out of range", t.oc.Name(), fo.Entry)
			}
			child := n.entries[fo.Entry].child
			if !child.Valid() {
				continue // empty partition of a NodeShrink=false tree
			}
			d.stack = append(d.stack, frame{child, f.level + fo.LevelAdd, fo.Recon})
		}
		// Every followed child will be visited, but the last one pushed
		// is popped — and fetched — on the very next iteration: a
		// prefetch of it could overlap with nothing (on an exact-match
		// descent it is the only child). Readahead goes to the siblings
		// that wait on the stack behind it, the ones on pages neither
		// this node nor that fetch brings in.
		if last := len(d.stack) - 1; last > first && t.bp.ReadaheadPages() > 0 {
			next := d.stack[last].ref.Page
			for _, sib := range d.stack[first:last] {
				if p := sib.ref.Page; p != f.ref.Page && p != next {
					t.bp.Prefetch(p)
				}
			}
		}
	}
	return nil, nil
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
