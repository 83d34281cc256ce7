package core

import (
	"fmt"
	"sync"

	heapfile "repro/internal/heap"
)

// This file implements the incremental nearest-neighbor search of the
// paper's section 5: an adaptation of the Hjaltason–Samet ranking
// algorithm made generic over all space-partitioning trees. A priority
// queue holds index nodes and data objects ordered by minimum distance to
// the query object; the top is repeatedly replaced by its children until a
// data object surfaces, which is then the next NN. Parent distances are
// carried in the queue entries so opclasses whose distance accumulates
// along the path (the trie's Hamming distance) can compute child distances
// incrementally — the modification the paper describes.
//
// Most of what is enqueued is never dequeued (a kNN stops after k items),
// so an entry costs as little as possible until it is: the queue proper
// is a binary heap of small pointer-free keys, the payload sits still in
// an arena the keys index, and a node's traversal value is not built
// when the node is enqueued but derived from its parent's (immutable) view
// if and when it is dequeued and has children of its own. Traversal
// values are bytes the opclass appends to a second, byte arena, which
// entries name by offset, so deriving one allocates nothing either.
//
// Most dequeued entries are the children of the node dequeued just
// before: a node close to the query usually has the next entry under it.
// So expand keeps the least of a node's children off the heap and, when
// it is less than the heap's top, goes on with it at once — the pop that
// would have returned it — and pushes only the others. Keys are unique
// (the tie's push counter), so the sequence is the one a plain
// push-every-child, pop-the-least search yields, ties included.
//
// A scan ends when its caller closes the cursor (PostgreSQL's
// amendscan): Close hands the queue and both arenas, emptied, to the
// next NNScan, so a warm kNN statement allocates nothing at all.

// nnKey is one queue slot: what the ordering needs and where the rest is.
// It holds no pointers, so sifting moves 24 bytes with no write barrier.
type nnKey struct {
	dist float64
	// tie orders entries at equal distance: data objects before nodes, so
	// results surface as early as possible, then insertion order, which
	// makes the sequence deterministic. Bit 63 is set for nodes; the rest
	// is the cursor's push counter.
	tie uint64
	idx uint32 // arena slot
}

const nnNodeTie = 1 << 63

func (a nnKey) less(b nnKey) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.tie < b.tie
}

// nnEntry is the payload of one queue slot.
//
// A data object is (n, idx): item idx of the data-node record n.
//
// A node is the child under entry idx of the inner node n, whose
// level and traversal value are plevel and recon[rc:re] — everything
// NNRecon needs to derive the child's own value later. The root and
// overflow records have no parent (n is nil): the root's recon[rc:re] is
// its own, and an overflow record, always a data node, needs none.
type nnEntry struct {
	n      *nodeView
	idx    int32
	level  int32 // node: its own level
	plevel int32 // node: the level of n
	ref    NodeRef
	rc, re uint32 // node: where its traversal value lies in NNCursor.recon
}

// NNCursor is an incremental nearest-neighbor cursor: each Next call
// returns the next-closest key, so it can feed a query pipeline (the
// paper's get-next semantics) without knowing k in advance.
//
// One goroutine drives a cursor. Close recycles it; a cursor nobody
// closes is garbage like any other value.
type NNCursor struct {
	t     *Tree // nil once closed
	oc    NNOpClass
	q     Value
	pq    []nnKey   // binary min-heap by nnKey.less
	ents  []nnEntry // arena the keys index
	free  int32     // first slot of the arena's free list, chained through nnEntry.idx; -1 if none
	recon []byte    // traversal values, appended as inner nodes are expanded
	seq   uint64
	dedup bool // the tree may hold a row more than once: yield each RID once, via seen
	seen  map[heapfile.RID]struct{}
	err   error
}

const (
	// nnInitial is the queue and entry capacity of a new cursor, and its
	// arena's in 32-byte boxes: a typical kNN never outgrows them.
	nnInitial = 128
	// nnRecycleMax bounds what a closed cursor may hold to be recycled,
	// in queue entries (or seen RIDs): one full-index scan must not pin
	// its queue for every later kNN.
	nnRecycleMax = 4096
)

// nnCursors holds closed cursors for NNScan to reuse.
var nnCursors = sync.Pool{New: func() any {
	return &NNCursor{
		pq:    make([]nnKey, 0, nnInitial),
		ents:  make([]nnEntry, 0, nnInitial),
		recon: make([]byte, 0, nnInitial*32),
	}
}}

// NNScan starts an incremental NN search around the query object q. It
// fails if the opclass does not implement NNOpClass. The cursor comes
// from the ones earlier scans closed, when there is one.
func (t *Tree) NNScan(q Value) (*NNCursor, error) {
	oc, ok := t.oc.(NNOpClass)
	if !ok {
		return nil, fmt.Errorf("spgist: opclass %s does not support NN search", t.oc.Name())
	}
	c := nnCursors.Get().(*NNCursor)
	c.t, c.oc, c.q, c.free = t, oc, q, -1
	c.dedup = t.pr.MultiAssign || t.pr.DedupScan
	if c.dedup && c.seen == nil {
		c.seen = make(map[heapfile.RID]struct{})
	}
	if t.root.Valid() {
		c.recon = oc.NNRootRecon(c.recon)
		c.push(c.key(0, nnNodeTie), nnEntry{ref: t.root, re: uint32(len(c.recon))})
	}
	return c, nil
}

// Close ends the scan and recycles the cursor: its queue, arenas and
// dedup set go, emptied, to a later NNScan on any tree. The cursor must
// not be used after Close; closing it again before that is harmless.
func (c *NNCursor) Close() {
	if c.t == nil {
		return
	}
	if cap(c.pq) > nnRecycleMax || cap(c.ents) > nnRecycleMax || len(c.seen) > nnRecycleMax ||
		cap(c.recon) > nnRecycleMax*32 { // a 32-byte box per entry
		c.t = nil
		return
	}
	clear(c.ents) // live entries pin the nodes they came from
	clear(c.seen)
	*c = NNCursor{pq: c.pq[:0], ents: c.ents[:0], recon: c.recon[:0], seen: c.seen}
	nnCursors.Put(c)
}

// key returns the queue key of an entry at distance dist, the next in
// push order; kind is 0 for a data object and nnNodeTie for a node.
func (c *NNCursor) key(dist float64, kind uint64) nnKey {
	k := nnKey{dist: dist, tie: kind | c.seq}
	c.seq++
	return k
}

// push enqueues e under k, whose arena slot it sets.
func (c *NNCursor) push(k nnKey, e nnEntry) {
	if c.free >= 0 {
		k.idx = uint32(c.free)
		c.free = c.ents[k.idx].idx
		c.ents[k.idx] = e
	} else {
		k.idx = uint32(len(c.ents))
		c.ents = append(c.ents, e)
	}
	// Sift up.
	c.pq = append(c.pq, k)
	i := len(c.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(c.pq[parent]) {
			break
		}
		c.pq[i] = c.pq[parent]
		i = parent
	}
	c.pq[i] = k
}

// pop dequeues the minimum. Its arena slot goes on the free list,
// cleared so the cursor does not pin the nodes of entries it is done with.
func (c *NNCursor) pop() (nnKey, nnEntry) {
	top := c.pq[0]
	last := len(c.pq) - 1
	k := c.pq[last]
	c.pq = c.pq[:last]
	// Sift the former last key down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && c.pq[r].less(c.pq[child]) {
			child = r
		}
		if !c.pq[child].less(k) {
			break
		}
		c.pq[i] = c.pq[child]
		i = child
	}
	if last > 0 {
		c.pq[i] = k
	}
	e := c.ents[top.idx]
	c.ents[top.idx] = nnEntry{idx: c.free}
	c.free = int32(top.idx)
	return top, e
}

// Next returns the next nearest neighbor, its key as it is encoded in the
// index (OpClass.DecodeKey gives its Value; the bytes must not be changed).
// ok is false when the index is exhausted or an error occurred (check Err).
func (c *NNCursor) Next() (key []byte, rid heapfile.RID, dist float64, ok bool) {
	if c.err != nil {
		return nil, heapfile.InvalidRID, 0, false
	}
pop:
	for len(c.pq) > 0 {
		k, e := c.pop()
		// Expanding a node may hand back its least child as the next
		// entry, to be taken as if popped.
		for k.tie&nnNodeTie != 0 {
			var next bool
			if k, e, next, c.err = c.expand(k.dist, e); c.err != nil {
				return nil, heapfile.InvalidRID, 0, false
			} else if !next {
				continue pop
			}
		}
		rid := e.n.rid(int(e.idx))
		if c.dedup {
			if _, dup := c.seen[rid]; dup {
				continue
			}
			c.seen[rid] = struct{}{}
		}
		return e.n.key(int(e.idx)), rid, k.dist, true
	}
	return nil, heapfile.InvalidRID, 0, false
}

// nnHeld is the least child of the node being expanded, kept off the heap.
type nnHeld struct {
	k  nnKey
	e  nnEntry
	ok bool
}

// offer enqueues a child of the node being expanded, unless it is the
// least so far: that one takes h's place, and the child h held before is
// enqueued instead.
func (c *NNCursor) offer(h *nnHeld, k nnKey, e nnEntry) {
	if !h.ok {
		*h = nnHeld{k, e, true}
		return
	}
	if k.less(h.k) {
		k, h.k = h.k, k
		e, h.e = h.e, e
	}
	c.push(k, e)
}

// expand replaces a dequeued node by its children: the items and the
// overflow link of a data node, the non-empty partitions of an inner
// node. The least child is not enqueued when it is less than the heap's
// top: it is returned with next set, the entry the next pop would give.
func (c *NNCursor) expand(dist float64, e nnEntry) (nnKey, nnEntry, bool, error) {
	n, err := c.t.view(e.ref)
	if err != nil {
		return nnKey{}, nnEntry{}, false, err
	}
	var h nnHeld
	if n.leaf {
		for i := 0; i < n.n; i++ {
			c.offer(&h, c.key(c.oc.NNLeaf(c.q, n.key(i)), 0), nnEntry{n: n, idx: int32(i)})
		}
		if next := n.next(); next.Valid() {
			// The overflow record inherits the node's lower bound.
			c.offer(&h, c.key(dist, nnNodeTie), nnEntry{ref: next})
		}
		return c.settle(&h)
	}
	rc, re := e.rc, e.re
	if e.n != nil {
		// The parent's value lies before the arena's end, so the opclass
		// appending the child's value there leaves it intact.
		rc = uint32(len(c.recon))
		c.recon = c.oc.NNRecon(e.n.pred(), e.n.label(int(e.idx)), int(e.plevel), c.recon[e.rc:e.re:e.re], c.recon)
		re = uint32(len(c.recon))
	} else if e.ref != c.t.root {
		// Parentless and not the root: an overflow link, which only ever
		// leads to another data node in a well-formed tree.
		return nnKey{}, nnEntry{}, false, fmt.Errorf("spgist: overflow chain reaches inner node %v", e.ref)
	}
	recon := c.recon[rc:re:re]
	pred := n.pred()
	for i := 0; i < n.n; i++ {
		child := n.child(i)
		if !child.Valid() {
			continue
		}
		d, levelAdd := c.oc.NNInner(c.q, pred, n.label(i), int(e.level), recon, dist)
		c.offer(&h, c.key(d, nnNodeTie), nnEntry{
			n:      n,
			idx:    int32(i),
			level:  e.level + int32(levelAdd),
			plevel: e.level,
			ref:    child,
			rc:     rc,
			re:     re,
		})
	}
	return c.settle(&h)
}

// settle ends an expansion: the held child is the next entry if the heap
// is empty or its top is greater, and is enqueued otherwise.
func (c *NNCursor) settle(h *nnHeld) (nnKey, nnEntry, bool, error) {
	if !h.ok {
		return nnKey{}, nnEntry{}, false, nil
	}
	if len(c.pq) == 0 || h.k.less(c.pq[0]) {
		return h.k, h.e, true, nil
	}
	c.push(h.k, h.e)
	return nnKey{}, nnEntry{}, false, nil
}

// Err reports a storage error encountered by Next.
func (c *NNCursor) Err() error { return c.err }

// NN returns the k nearest keys to q in increasing distance order (a
// convenience wrapper over the incremental cursor).
func (t *Tree) NN(q Value, k int) (keys []Value, rids []heapfile.RID, dists []float64, err error) {
	cur, err := t.NNScan(q)
	if err != nil {
		return nil, nil, nil, err
	}
	defer cur.Close()
	for len(keys) < k {
		key, rid, d, ok := cur.Next()
		if !ok {
			break
		}
		keys = append(keys, t.oc.DecodeKey(key))
		rids = append(rids, rid)
		dists = append(dists, d)
	}
	return keys, rids, dists, cur.Err()
}
