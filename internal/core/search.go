package core

import (
	"fmt"
	"sync"

	"repro/internal/heap"
)

// Scan runs the generic search internal method: it walks the tree guided
// by the opclass's InnerConsistent and LeafConsistent external methods and
// calls emit for every qualifying (key, rid), the key as it is encoded in
// the index (OpClass.DecodeKey gives its Value; emit must not change the
// bytes). A nil query matches every key. Scanning stops early when emit
// returns false.
//
// Trees whose opclass declares MultiAssign (PMR quadtree) or whose rows
// contribute several keys (suffix tree) report each RID once.
func (t *Tree) Scan(q *Query, emit func(key []byte, rid heap.RID) bool) error {
	var seen map[heap.RID]struct{}
	if t.pr.MultiAssign || t.pr.DedupScan {
		seen = make(map[heap.RID]struct{})
	}
	d := t.newDescent(q)
	defer d.release()
	lq := d.in.Query // the descent's copy: the caller's Query need not escape
	for {
		v, err := d.next()
		if v == nil || err != nil {
			return err
		}
		for i := 0; i < v.n; i++ {
			key := v.key(i)
			if lq != nil && !t.oc.LeafConsistent(lq, key, d.level) {
				continue
			}
			rid := v.rid(i)
			if seen != nil {
				if _, dup := seen[rid]; dup {
					continue
				}
				seen[rid] = struct{}{}
			}
			if !emit(key, rid) {
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
// reaches, one per next call, and Scan tests their items.
//
// A descent owns every buffer the walk needs — the InnerIn it refills per
// node, the Follow slice the opclass appends into, the stack — in one
// object per search, never per tree, so concurrent searches of one tree
// share nothing but the immutable node views. Searches deeper or wider
// than the inline arrays spill into append-grown slices that also live
// as long as the descent. A finished descent goes back to descents for
// the next search, like a closed NN cursor.
type descent struct {
	t     *Tree
	query Query // in.Query points here, unless the search has no query
	in    InnerIn
	out   InnerOut
	stack []frame

	// level is the level of the data-node record next last returned.
	level int

	stackBuf  [8]frame
	followBuf [4]InnerFollow
}

// descents holds finished descents for newDescent to reuse.
var descents = sync.Pool{New: func() any { return new(descent) }}

func (t *Tree) newDescent(q *Query) *descent {
	d := descents.Get().(*descent)
	d.t = t
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

// release returns d to descents, holding nothing of its search: the
// query, traversal values and node views it still references would
// otherwise stay reachable until its next search. The descent must not
// be used afterwards.
func (d *descent) release() {
	*d = descent{}
	descents.Put(d)
}

// next returns the next data-node record of the walk (overflow records
// included, each as a record of its own), or nil when the walk is over.
func (d *descent) next() (*nodeView, error) {
	t := d.t
	for len(d.stack) > 0 {
		f := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		v, err := t.view(f.ref)
		if err != nil {
			return nil, err
		}
		if v.leaf {
			if next := v.next(); next.Valid() {
				d.stack = append(d.stack, frame{next, f.level, f.recon})
			}
			d.level = f.level
			return v, nil
		}
		d.in.Level, d.in.Recon = f.level, f.recon
		d.in.Pred, d.in.Labels = v.pred(), Labels{v}
		d.out.Follow = d.out.Follow[:0]
		t.oc.InnerConsistent(&d.in, &d.out)
		for _, fo := range d.out.Follow {
			if fo.Entry < 0 || fo.Entry >= v.n {
				return nil, fmt.Errorf("spgist: %s.InnerConsistent follow entry %d out of range", t.oc.Name(), fo.Entry)
			}
			child := v.child(fo.Entry)
			if !child.Valid() {
				continue // empty partition of a NodeShrink=false tree
			}
			d.stack = append(d.stack, frame{child, f.level + fo.LevelAdd, fo.Recon})
		}
	}
	return nil, nil
}

// Lookup collects all RIDs matching the query (a convenience wrapper over
// Scan used by tests and simple callers).
func (t *Tree) Lookup(q *Query) ([]heap.RID, error) {
	var rids []heap.RID
	err := t.Scan(q, func(_ []byte, rid heap.RID) bool {
		rids = append(rids, rid)
		return true
	})
	return rids, err
}

// walk visits every node reachable from the root in depth-first order,
// calling fn with the node's reference, view, level, and the number of
// distinct pages on the path from the root (the node's page-depth).
// Returning false stops the walk.
func (t *Tree) walk(fn func(ref NodeRef, v *nodeView, level, pageDepth int) bool) error {
	type frame struct {
		ref       NodeRef
		level     int
		pageDepth int
	}
	stack := []frame{{t.root, 1, 1}}
	push := func(from frame, ref NodeRef, level int) {
		pd := from.pageDepth
		if ref.Page != from.ref.Page {
			pd++
		}
		stack = append(stack, frame{ref, level, pd})
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f.ref.Valid() {
			continue // an empty partition, the end of a chain, an empty tree
		}
		v, err := t.view(f.ref)
		if err != nil {
			return err
		}
		if !fn(f.ref, v, f.level, f.pageDepth) {
			return nil
		}
		if v.leaf {
			// Overflow records continue the same logical node: same level.
			push(f, v.next(), f.level)
		}
		for i := 0; !v.leaf && i < v.n; i++ {
			push(f, v.child(i), f.level+1)
		}
	}
	return nil
}
