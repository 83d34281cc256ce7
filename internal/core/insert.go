package core

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/heap"
	"repro/internal/storage"
)

const (
	// maxChooseIters bounds the AddNode/SplitNode retries at one inner
	// node; a well-formed opclass needs at most three.
	maxChooseIters = 64
	// maxSplitDepth bounds how many PickSplit rounds one insertion may
	// cascade through; a well-formed opclass consumes level on every
	// round, so this is a defense against non-converging external
	// methods, not a working limit.
	maxSplitDepth = 1024
)

// InsertBatch adds (key, rid) pairs to the index as one grouped
// operation; it is the tree's one insert routine. This is the generic
// internal method of the framework: all tree-specific behaviour comes
// from the opclass's Choose and PickSplit external methods. Keys go in the
// opclass's order (BatchOrderer: the kd-tree's median first) or else sorted
// by encoded form, so consecutive descents revisit the same inner nodes
// back to back and read them out of the node table — one page fetch and
// one record copy per inner node for the whole key cluster that routes
// through it. The data node at the end of a descent is never copied: an
// insertion extends its record inside the page. A one-key batch, a
// single-row INSERT, skips the ordering and allocates nothing for it.
func (t *Tree) InsertBatch(keys []Value, rids []heap.RID) error {
	if len(keys) != len(rids) {
		return fmt.Errorf("spgist: InsertBatch got %d keys for %d rids", len(keys), len(rids))
	}
	if len(keys) == 1 {
		return t.insertEncoded(t.oc.EncodeKey(keys[0]), rids[0])
	}
	kbs := make([][]byte, len(keys))
	order := make([]int, len(keys))
	for i := range keys {
		kbs[i], order[i] = t.oc.EncodeKey(keys[i]), i
	}
	if bo, ok := t.oc.(BatchOrderer); ok {
		bo.OrderBatch(keys, order)
	} else {
		slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(kbs[a], kbs[b]) })
	}
	for _, i := range order {
		if err := t.insertEncoded(kbs[i], rids[i]); err != nil {
			return err
		}
	}
	return nil
}

// insertEncoded inserts one key past its encoding.
func (t *Tree) insertEncoded(kb []byte, rid heap.RID) error {
	if !t.root.Valid() {
		n := &node{leaf: true, items: []item{{key: kb, rid: rid}}}
		ref, err := t.allocNode(storage.InvalidPageID, n.encode())
		if err != nil {
			return err
		}
		return t.setRoot(ref)
	}
	return t.insertAt(t.root, nil, 0, t.oc.RootRecon(), kb, rid)
}

// insertIntoLeaf adds (kb, rid) to the data node whose record rec lies in
// the pinned page p (the pin is consumed). Kind, overflow link and item
// count are read off the record, and the common case — an unchained node
// with room in its bucket and its record — appends the item to a copy of
// the record under that one pin: the node is not decoded, and what is
// logged is what encoding the decoded node would have produced. Items are
// decoded only for PickSplit and for overflow chains.
func (t *Tree) insertIntoLeaf(p *storage.Page, rec []byte, ref NodeRef, parent *parentLink, level int, recon Value, kb []byte, rid heap.RID) error {
	next, cnt, err := leafHeader(rec)
	if err != nil {
		t.bp.Unpin(p, false)
		return fmt.Errorf("%w (node %v)", err, ref)
	}
	// An unchained record holds the whole bucket, so its count decides.
	if !next.Valid() && (cnt < t.pr.BucketSize || t.atResolution(level)) &&
		len(rec)+leafItemExtra+len(kb) <= t.maxNodeSize() {
		_, err := t.writeRecord(p, ref, appendLeafItem(rec, kb, rid), parent)
		return err
	}
	n, err := decodeNode(rec)
	t.bp.Unpin(p, false)
	if err != nil {
		return err
	}
	items, chain, err := t.readLeafChain(n)
	if err != nil {
		return err
	}
	// A chained bucket is full by its items, not by what its head holds:
	// long keys chain a bucket before it reaches BucketSize.
	items = append(items, item{key: kb, rid: rid})
	if len(items) <= t.pr.BucketSize || t.atResolution(level) {
		return t.writeLeafChain(ref, parent, items, chain)
	}
	return t.splitLeaf(ref, parent, items, chain, level, recon)
}

// insertAt descends from the node at ref until the key lands in a data
// node, applying Choose at every inner node and PickSplit on overflow.
// The descent reads inner nodes as views out of the node table; a branch
// that changes one decodes it into a private node first (views are shared,
// immutable).
func (t *Tree) insertAt(ref NodeRef, parent *parentLink, level int, recon Value, kb []byte, rid heap.RID) error {
	// One per insertion, refilled at every inner node: Choose's input with
	// the buffer it returns its match in, and the link to the current
	// node's parent, the only one ever needed.
	var st struct {
		in    ChooseIn
		match [1]ChooseMatch
		link  parentLink
	}
	in, link := &st.in, &st.link
	for guard := 0; ; guard++ {
		if guard >= maxChooseIters {
			return fmt.Errorf("spgist: %s.Choose did not converge at node %v", t.oc.Name(), ref)
		}
		n, p, rec, err := t.read(ref, true)
		if err != nil {
			return err
		}
		if p != nil {
			return t.insertIntoLeaf(p, rec, ref, parent, level, recon, kb, rid)
		}

		if in.Key == nil {
			in.Key = t.oc.DecodeKey(kb)
		}
		in.Level, in.Recon = level, recon
		in.Pred, in.Labels, in.Matches = n.pred(), Labels{n}, st.match[:0]
		out := t.oc.Choose(in)
		switch out.Action {
		case MatchNode:
			if len(out.Matches) == 0 {
				return fmt.Errorf("spgist: %s.Choose returned MatchNode with no matches", t.oc.Name())
			}
			if len(out.Matches) > 1 && !t.pr.MultiAssign {
				return fmt.Errorf("spgist: %s.Choose returned %d matches without MultiAssign", t.oc.Name(), len(out.Matches))
			}
			if len(out.Matches) == 1 {
				m := out.Matches[0]
				if m.Entry < 0 || m.Entry >= n.n {
					return fmt.Errorf("spgist: Choose match entry %d out of range", m.Entry)
				}
				child := n.child(m.Entry)
				if !child.Valid() {
					return t.hangLeaf(ref, n.node(), m.Entry, parent, kb, rid)
				}
				*link = parentLink{ref: ref, entry: m.Entry}
				parent = link
				ref = child
				level += m.LevelAdd
				recon = m.Recon
				// The guard bounds retries at one node, not the length of
				// the path: a degenerate tree (a bucket-size-1 kd-tree fed
				// sorted lattice points) is legitimately deeper than
				// maxChooseIters.
				guard = -1 // 0 once the loop has counted this iteration
				continue
			}
			// Multi-assignment (PMR quadtree): the key descends into every
			// matched partition. Re-read the node privately before each
			// branch — the previous branch may have patched child pointers.
			for _, m := range out.Matches {
				n, err := t.readNode(ref)
				if err != nil {
					return err
				}
				if m.Entry < 0 || m.Entry >= len(n.entries) {
					return fmt.Errorf("spgist: Choose match entry %d out of range", m.Entry)
				}
				child := n.entries[m.Entry].child
				if !child.Valid() {
					if err := t.hangLeaf(ref, n, m.Entry, parent, kb, rid); err != nil {
						return err
					}
					continue
				}
				if err := t.insertAt(child, &parentLink{ref: ref, entry: m.Entry}, level+m.LevelAdd, m.Recon, kb, rid); err != nil {
					return err
				}
			}
			return nil

		case AddNode:
			w := n.node()
			w.entries = append(w.entries, entry{label: t.oc.EncodeLabel(out.NewLabel), child: InvalidRef})
			newRef, err := t.writeNode(ref, w, parent)
			if err != nil {
				return err
			}
			ref = newRef
			// Retry: Choose will now MatchNode the new entry.
			continue

		case SplitNode:
			// Prefix-conflict restructuring (patricia trie): the node
			// splits into upper (shortened predicate, one partition) and
			// lower (rest of the predicate, the original entries).
			lower := &node{pred: t.encodePred(out.LowerPred), entries: n.node().entries}
			lref, err := t.allocNode(ref.Page, lower.encode())
			if err != nil {
				return err
			}
			upper := &node{
				pred:    t.encodePred(out.UpperPred),
				entries: []entry{{label: t.oc.EncodeLabel(out.UpperLabel), child: lref}},
			}
			newRef, err := t.writeNode(ref, upper, parent)
			if err != nil {
				return err
			}
			ref = newRef
			continue

		default:
			return fmt.Errorf("spgist: unknown Choose action %d", out.Action)
		}
	}
}

// hangLeaf gives the empty partition entry of the inner node n, stored at
// ref, its first key: a fresh data node hangs off the entry.
func (t *Tree) hangLeaf(ref NodeRef, n *node, entry int, parent *parentLink, kb []byte, rid heap.RID) error {
	leafN := &node{leaf: true, items: []item{{key: kb, rid: rid}}}
	cref, err := t.allocNode(ref.Page, leafN.encode())
	if err != nil {
		return err
	}
	n.entries[entry].child = cref
	_, err = t.writeNode(ref, n, parent)
	return err
}

// splitLeaf decomposes the items of an over-full data node (already
// including the new item) into an inner node with data-node partitions,
// cascading into still-over-full partitions unless the opclass runs with
// the PMR split-once rule. chain lists the node's overflow records, which
// are freed once the items are redistributed.
func (t *Tree) splitLeaf(ref NodeRef, parent *parentLink, items []item, chain []NodeRef, level int, recon Value) error {
	type work struct {
		ref    NodeRef
		parent *parentLink
		items  []item
		chain  []NodeRef
		level  int
		recon  Value
		depth  int
	}
	queue := []work{{ref, parent, items, chain, level, recon, 0}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w.depth > maxSplitDepth {
			return fmt.Errorf("spgist: %s.PickSplit cascaded past depth %d without converging", t.oc.Name(), maxSplitDepth)
		}
		keys := make([]Value, len(w.items))
		for i := range w.items {
			keys[i] = t.oc.DecodeKey(w.items[i].key)
		}
		out := t.oc.PickSplit(&PickSplitIn{Keys: keys, Level: w.level, Recon: w.recon})
		if !out.Failed {
			if err := validatePickSplit(&out, len(keys), t.pr.MultiAssign); err != nil {
				return fmt.Errorf("spgist: %s.PickSplit: %w", t.oc.Name(), err)
			}
		}
		// Distribute items over partitions.
		var parts [][]item
		progress := out.Failed
		if !out.Failed {
			parts = make([][]item, len(out.Labels))
			for i, ps := range out.Mapping {
				for _, p := range ps {
					parts[p] = append(parts[p], w.items[i])
				}
			}
			// A split that routes every key into one partition without
			// consuming level cannot make progress; treat it as failed.
			progress = false
			for p := range parts {
				if len(parts[p]) < len(keys) || out.LevelAdds[p] > 0 {
					progress = true
					break
				}
			}
			if len(parts) == 0 {
				progress = false
			}
		}
		if out.Failed || !progress {
			// Keep one oversized data node (indistinguishable keys or a
			// resolution-exhausted cell), chained across records as needed.
			if err := t.writeLeafChain(w.ref, w.parent, w.items, w.chain); err != nil {
				return err
			}
			continue
		}

		// The items leave this node: free its overflow chain.
		for _, cr := range w.chain {
			if err := t.deleteNode(cr); err != nil {
				return err
			}
		}

		inner := &node{pred: t.encodePred(out.Pred), entries: make([]entry, 0, len(parts))}
		type childPos struct{ entryIdx, part int }
		positions := make([]childPos, 0, len(parts))
		for p := range parts {
			if len(parts[p]) == 0 && t.pr.NodeShrink {
				continue // omit empty partitions (Figure 2(b))
			}
			inner.entries = append(inner.entries, entry{
				label: t.oc.EncodeLabel(out.Labels[p]),
				child: InvalidRef,
			})
			positions = append(positions, childPos{len(inner.entries) - 1, p})
		}
		// Write the inner node first so the children know which page to
		// cluster onto, then attach them and patch the entry table (same
		// record size, so the second write never relocates).
		newRef, err := t.writeNode(w.ref, inner, w.parent)
		if err != nil {
			return err
		}
		childChains := make([][]NodeRef, len(positions))
		for i, cp := range positions {
			if len(parts[cp.part]) == 0 {
				continue
			}
			cref, cchain, err := t.allocLeafChain(newRef.Page, parts[cp.part])
			if err != nil {
				return err
			}
			inner.entries[cp.entryIdx].child = cref
			childChains[i] = cchain
		}
		if _, err := t.writeNode(newRef, inner, w.parent); err != nil {
			return err
		}
		if t.pr.SplitOnce {
			continue // PMR rule: over-full children wait for future inserts
		}
		for i, cp := range positions {
			p := cp.part
			childLevel := w.level + out.LevelAdds[p]
			if len(parts[p]) > t.pr.BucketSize && !t.atResolution(childLevel) {
				var childRecon Value
				if out.Recons != nil {
					childRecon = out.Recons[p]
				}
				queue = append(queue, work{
					ref:    inner.entries[cp.entryIdx].child,
					parent: &parentLink{ref: newRef, entry: cp.entryIdx},
					items:  parts[p],
					chain:  childChains[i],
					level:  childLevel,
					recon:  childRecon,
					depth:  w.depth + 1,
				})
			}
		}
	}
	return nil
}

func validatePickSplit(out *PickSplitOut, nkeys int, multi bool) error {
	if len(out.Labels) == 0 {
		return fmt.Errorf("no partitions")
	}
	if len(out.Mapping) != nkeys {
		return fmt.Errorf("mapping covers %d of %d keys", len(out.Mapping), nkeys)
	}
	if len(out.LevelAdds) != len(out.Labels) {
		return fmt.Errorf("LevelAdds has %d entries for %d labels", len(out.LevelAdds), len(out.Labels))
	}
	if out.Recons != nil && len(out.Recons) != len(out.Labels) {
		return fmt.Errorf("Recons has %d entries for %d labels", len(out.Recons), len(out.Labels))
	}
	for i, ps := range out.Mapping {
		if len(ps) == 0 {
			return fmt.Errorf("key %d mapped to no partition", i)
		}
		if len(ps) > 1 && !multi {
			return fmt.Errorf("key %d mapped to %d partitions without MultiAssign", i, len(ps))
		}
		for _, p := range ps {
			if p < 0 || p >= len(out.Labels) {
				return fmt.Errorf("key %d mapped to out-of-range partition %d", i, p)
			}
		}
	}
	return nil
}

func (t *Tree) atResolution(level int) bool {
	return t.pr.Resolution > 0 && level >= t.pr.Resolution
}

func (t *Tree) encodePred(v Value) []byte {
	if v == nil {
		return nil
	}
	return t.oc.EncodePred(v)
}
