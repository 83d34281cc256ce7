package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/storage"
)

// nodeView is the form in which every read sees a node: one validated,
// immutable copy of its record, read through accessors where the bytes lie.
// Nothing is decoded ahead of use or allocated to look at a predicate, a
// label or a key — the opclass gets them as the encoded bytes — and any
// number of searches share one view.
//
// It stands where PostgreSQL reads the tuple inside the pinned buffer page.
// A record of up to 256 bytes with its offsets lies in the same object as
// the header (viewTier), so a visit of the node misses cache once, not
// twice; a larger record keeps a buffer of its own.
type nodeView struct {
	buf  []byte // the record, then one u16 per entry or item: its offset in the record
	tab  int    // len(record): where the offsets start
	n    int    // entries of an inner node, items of a data node
	leaf bool
}

// newView validates rec and copies it; on the result every accessor stays
// inside the record for every index below n.
func newView(rec []byte) (*nodeView, error) {
	if len(rec) < 3 {
		return nil, fmt.Errorf("spgist: node record too short (%d bytes)", len(rec))
	}
	n, leaf := 0, false
	off, tail := 0, refSize // the first entry or item; what follows each one's label or key
	switch rec[0] {
	case nodeKindLeaf:
		_, cnt, err := leafHeader(rec)
		if err != nil {
			return nil, err
		}
		leaf, n, off, tail = true, cnt, leafHeaderSize, heap.RIDSize
	case nodeKindInner:
		off = 3 + int(binary.LittleEndian.Uint16(rec[1:]))
		if off+2 > len(rec) {
			return nil, fmt.Errorf("spgist: truncated inner predicate")
		}
		n = int(binary.LittleEndian.Uint16(rec[off:]))
		off += 2
		if off+n*(2+refSize) > len(rec) {
			return nil, fmt.Errorf("spgist: truncated inner entry header")
		}
	default:
		return nil, fmt.Errorf("spgist: unknown node kind %d", rec[0])
	}
	v := allocView(len(rec), n, leaf)
	copy(v.buf, rec)
	for i := 0; i < v.n; i++ {
		if off+2 > len(rec) {
			return nil, fmt.Errorf("spgist: truncated inner entry header")
		}
		binary.LittleEndian.PutUint16(v.buf[v.tab+2*i:], uint16(off))
		off += 2 + int(binary.LittleEndian.Uint16(rec[off:])) + tail
		if off > len(rec) {
			return nil, fmt.Errorf("spgist: truncated inner entry")
		}
	}
	return v, nil
}

// viewTier is a view with room for need = tab+2n bytes of record and
// offsets in the object itself. Its buffer is sliced to capacity need, so an
// accessor that overran the record still panics rather than read the
// tier's spare bytes.
type viewTier[B [64]byte | [128]byte | [256]byte] struct {
	nodeView
	b B
}

// allocView returns a view of a record of tab bytes with n entries or items
// and a zeroed buffer for them: one object up to 256 bytes, two above. The
// header is built in place; a heap header copied into the tier would be a
// second allocation.
func allocView(tab, n int, leaf bool) *nodeView {
	need := tab + 2*n
	switch {
	case need <= 64:
		w := &viewTier[[64]byte]{nodeView: nodeView{tab: tab, n: n, leaf: leaf}}
		w.buf = w.b[:need:need]
		return &w.nodeView
	case need <= 128:
		w := &viewTier[[128]byte]{nodeView: nodeView{tab: tab, n: n, leaf: leaf}}
		w.buf = w.b[:need:need]
		return &w.nodeView
	case need <= 256:
		w := &viewTier[[256]byte]{nodeView: nodeView{tab: tab, n: n, leaf: leaf}}
		w.buf = w.b[:need:need]
		return &w.nodeView
	}
	return &nodeView{buf: make([]byte, need), tab: tab, n: n, leaf: leaf}
}

// field returns the length-prefixed bytes entry or item i opens with — its
// label or its key — and the offset of what follows them.
func (v *nodeView) field(i int) (f []byte, end int) {
	off := int(binary.LittleEndian.Uint16(v.buf[v.tab+2*i:])) + 2
	end = off + int(binary.LittleEndian.Uint16(v.buf[off-2:]))
	return v.buf[off:end:end], end
}

func (v *nodeView) label(i int) []byte  { f, _ := v.field(i); return f }
func (v *nodeView) key(i int) []byte    { f, _ := v.field(i); return f }
func (v *nodeView) child(i int) NodeRef { _, end := v.field(i); return getRef(v.buf[end:]) }
func (v *nodeView) rid(i int) heap.RID  { _, end := v.field(i); return heap.RIDFromBytes(v.buf[end:]) }

// pred returns the encoded predicate of an inner node (empty if none).
func (v *nodeView) pred() []byte {
	end := 3 + int(binary.LittleEndian.Uint16(v.buf[1:]))
	return v.buf[3:end:end]
}

// next returns the overflow link of a data node.
func (v *nodeView) next() NodeRef { return getRef(v.buf[1:]) }

// node decodes the view into a private node. The node's byte slices stay in
// the view's buffer: they are replaced, never written in place.
func (v *nodeView) node() *node {
	if v.leaf {
		n := &node{leaf: true, next: v.next(), items: make([]item, v.n)}
		for i := range n.items {
			n.items[i] = item{key: v.key(i), rid: v.rid(i)}
		}
		return n
	}
	n := &node{pred: v.pred(), entries: make([]entry, v.n)}
	for i := range n.entries {
		n.entries[i] = entry{label: v.label(i), child: v.child(i)}
	}
	return n
}

// View is a node record as pageinspect reads it: NewView validates the
// record, and every accessor then stays inside it for every index below
// Len — the partitions of an inner node, the items of a data node.
type View struct{ v *nodeView }

// NewView validates rec as a node record and returns its view, which
// holds a copy of it.
func NewView(rec []byte) (View, error) {
	v, err := newView(rec)
	if err != nil {
		return View{}, err
	}
	return View{v}, nil
}

// Leaf reports whether the node is a data node.
func (v View) Leaf() bool { return v.v.leaf }

// Len returns the partitions of an inner node, the items of a data node.
func (v View) Len() int { return v.v.n }

// Pred returns an inner node's encoded predicate.
func (v View) Pred() []byte { return v.v.pred() }

// Label returns the encoded label of partition i of an inner node.
func (v View) Label(i int) []byte { return v.v.label(i) }

// Child returns the node partition i of an inner node leads to.
func (v View) Child(i int) NodeRef { return v.v.child(i) }

// Key returns the key of item i of a data node.
func (v View) Key(i int) []byte { return v.v.key(i) }

// RID returns the row of item i of a data node.
func (v View) RID(i int) heap.RID { return v.v.rid(i) }

// Next returns a data node's overflow link.
func (v View) Next() NodeRef { return v.v.next() }

// Labels is the partition labels of one inner node in entry order, each as
// it is encoded in the node's record.
type Labels struct{ v *nodeView }

// Len returns the number of partitions.
func (l Labels) Len() int { return l.v.n }

// At returns the encoded label of partition i.
func (l Labels) At(i int) []byte { return l.v.label(i) }

// nodeTable holds a tree's node views, indexed by page and then slot. Only
// a mutator — alone in the tree by the Tree contract — changes its shape, to
// cover a page or slot the file gained; searches, concurrent with each
// other, load and publish views through the atomic slots. It holds each
// record's bytes rounded up to its tier (64, 128 or 256 bytes) plus the
// header, so it grows with the index and has no bound and no eviction: a
// write drops the one node it changes.
type nodeTable struct {
	pages [][]atomic.Pointer[nodeView]
}

// cover makes the table hold slots 0..nslots-1 of page pid.
func (nt *nodeTable) cover(pid storage.PageID, nslots int) {
	for int(pid) >= len(nt.pages) {
		nt.pages = append(nt.pages, nil)
	}
	if old := nt.pages[pid]; nslots > len(old) {
		grown := make([]atomic.Pointer[nodeView], max(nslots, 2*len(old)))
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		nt.pages[pid] = grown
	}
}

// at returns the table's slot for ref, nil if the file has no such slot.
func (nt *nodeTable) at(ref NodeRef) *atomic.Pointer[nodeView] {
	if int(ref.Page) < len(nt.pages) && int(ref.Slot) < len(nt.pages[ref.Page]) {
		return &nt.pages[ref.Page][ref.Slot]
	}
	return nil
}
