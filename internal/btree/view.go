package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/heap"
	"repro/internal/storage"
)

// View is the one reading of a node record: its kind, its key count, key
// and RID or child i, and a leaf's right sibling (an inner node's leftmost
// child). NewView checks the whole layout against the body, so every
// accessor stays inside it for every i below Len. Searches read inner nodes
// in the pinned frame and leaves in a copy they own; mutators decode a
// private node from it; pageinspect prints it.
type View struct {
	b    []byte  // the body
	offs []int32 // where entry i starts: its key length
	end  int     // where the entries end
	leaf bool
}

// NewView validates body as a node and returns its view. The entry table
// reuses offs's array when it is large enough, so that a walk keeps one
// table from node to node; nil allocates one.
func NewView(body []byte, offs []int32) (View, error) {
	if len(body) < hdrSize {
		return View{}, fmt.Errorf("btree: node body of %d bytes is shorter than its header", len(body))
	}
	v := View{b: body}
	tail := 4 // what follows each key: a child page, or a RID in a leaf
	switch body[0] {
	case kindLeaf:
		v.leaf, tail = true, heap.RIDSize
	case kindInner:
	default:
		return View{}, fmt.Errorf("btree: unknown node kind %d", body[0])
	}
	n := int(binary.LittleEndian.Uint16(body[1:]))
	if hdrSize+n*(2+tail) > len(body) {
		return View{}, fmt.Errorf("btree: %d entries do not fit a node body of %d bytes", n, len(body))
	}
	if cap(offs) < n {
		offs = make([]int32, n)
	}
	v.offs = offs[:n]
	off := hdrSize
	for i := range v.offs {
		if off+2 > len(body) {
			return View{}, fmt.Errorf("btree: entry %d of %d runs past the node body", i, n)
		}
		v.offs[i] = int32(off)
		off += 2 + tail + (int(body[off]) | int(body[off+1])<<8)
	}
	if off > len(body) {
		return View{}, fmt.Errorf("btree: entry %d of %d runs past the node body", n-1, n)
	}
	v.end = off
	return v, nil
}

// Leaf reports whether the node is a leaf.
func (v *View) Leaf() bool { return v.leaf }

// Len returns the number of keys.
func (v *View) Len() int { return len(v.offs) }

// Link returns a leaf's right sibling, or an inner node's leftmost child.
func (v *View) Link() storage.PageID { return storage.PageID(binary.LittleEndian.Uint32(v.b[3:])) }

// field returns key i and the offset of what follows it.
func (v *View) field(i int) (key []byte, end int) {
	off := int(v.offs[i]) + 2
	end = off + int(binary.LittleEndian.Uint16(v.b[off-2:]))
	return v.b[off:end:end], end
}

// Key returns key i where it lies.
func (v *View) Key(i int) []byte { k, _ := v.field(i); return k }

// RID returns the RID of leaf entry i.
func (v *View) RID(i int) heap.RID { _, end := v.field(i); return heap.RIDFromBytes(v.b[end:]) }

// Child returns the child right of key i of an inner node.
func (v *View) Child(i int) storage.PageID {
	_, end := v.field(i)
	return storage.PageID(binary.LittleEndian.Uint32(v.b[end:]))
}

// bound returns the first entry whose key is above k, or at or above k when
// inclusive: the upper and the lower bound of k among the sorted keys.
func (v *View) bound(k []byte, inclusive bool) int {
	lo, hi := 0, v.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := bytes.Compare(v.Key(mid), k); c < 0 || c == 0 && !inclusive {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the child of an inner node that covers k. Keys equal to
// a separator live to its right (upper-bound separators), but after splits
// of a run of duplicates equal keys may straddle one, so leftmost asks for
// the child that can hold the first occurrence of k instead.
func (v *View) childFor(k []byte, leftmost bool) storage.PageID {
	if i := v.bound(k, leftmost); i > 0 {
		return v.Child(i - 1)
	}
	return v.Link()
}

// node decodes the view into a private node for a mutator. Its keys lie in
// one copy of the entry area, so the node outlives the frame or buffer the
// view reads.
func (v *View) node() *node {
	c := *v
	v = &c
	v.b = bytes.Clone(v.b[:v.end])
	n := &node{leaf: v.leaf, entries: make([]entry, v.Len())}
	if n.leaf {
		n.next = v.Link()
	} else {
		n.child0 = v.Link()
	}
	for i := range n.entries {
		n.entries[i].key = v.Key(i)
		if n.leaf {
			n.entries[i].rid = v.RID(i)
		} else {
			n.entries[i].child = v.Child(i)
		}
	}
	return n
}
