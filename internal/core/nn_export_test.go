package core

import (
	"container/heap"
	"fmt"

	heapfile "repro/internal/heap"
)

// NNCursorHeld reports what a cursor holds: queued entries, live arena
// slots, traversal-value bytes and seen RIDs. Package core_test uses it to
// check that a recycled cursor starts empty.
func NNCursorHeld(c *NNCursor) (queued, entries, reconBytes, seen int) {
	return len(c.pq), len(c.ents), len(c.recon), len(c.seen)
}

// NNReference is the plain best-first search (Hjaltason and Samet) the
// cursor must agree with, result for result: every child of an expanded
// node goes on one priority queue of self-contained entries, each with
// its own decoded node fields and traversal value, and the least is
// dequeued. Entries at equal distance are ordered as the cursor documents:
// data objects before nodes, then the order they were enqueued in. A
// tree that may hold a row more than once yields each RID once.
func NNReference(t *Tree, q Value) (rids []heapfile.RID, dists []float64, err error) {
	oc, ok := t.oc.(NNOpClass)
	if !ok {
		return nil, nil, fmt.Errorf("opclass %s has no NN search", t.oc.Name())
	}
	var pq refQueue
	var seq uint64
	push := func(e refEntry) {
		e.seq = seq
		seq++
		heap.Push(&pq, e)
	}
	if t.root.Valid() {
		push(refEntry{ref: t.root, recon: oc.NNRootRecon(nil)})
	}
	seen := map[heapfile.RID]bool{}
	for pq.Len() > 0 {
		e := heap.Pop(&pq).(refEntry)
		if e.data {
			if (t.pr.MultiAssign || t.pr.DedupScan) && seen[e.rid] {
				continue
			}
			seen[e.rid] = true
			rids, dists = append(rids, e.rid), append(dists, e.dist)
			continue
		}
		n, err := t.readNode(e.ref)
		if err != nil {
			return nil, nil, err
		}
		if n.leaf {
			for _, it := range n.items {
				push(refEntry{dist: oc.NNLeaf(q, it.key), data: true, rid: it.rid})
			}
			if n.next.Valid() {
				push(refEntry{dist: e.dist, ref: n.next})
			}
			continue
		}
		for _, en := range n.entries {
			if !en.child.Valid() {
				continue
			}
			d, levelAdd := oc.NNInner(q, n.pred, en.label, e.level, e.recon, e.dist)
			push(refEntry{
				dist:  d,
				ref:   en.child,
				level: e.level + levelAdd,
				recon: oc.NNRecon(n.pred, en.label, e.level, e.recon, nil),
			})
		}
	}
	return rids, dists, nil
}

// refEntry is one entry of NNReference's queue: a data object (data set,
// rid) or a node (ref, its level and its traversal value).
type refEntry struct {
	dist  float64
	data  bool
	seq   uint64
	rid   heapfile.RID
	ref   NodeRef
	level int
	recon []byte
}

type refQueue []refEntry

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.data != b.data {
		return a.data
	}
	return a.seq < b.seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEntry)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}
