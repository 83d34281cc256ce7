package rtree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
)

// View is the one reading of a node record: its kind, its entry count,
// and rectangle and RID or child i. NewView checks kind and count against
// the body, so every accessor stays inside it for every i below Len.
// Searches read inner nodes in the pinned frame and leaves in a copy they
// own; mutators decode a private node from it; pageinspect prints it.
type View struct {
	b    []byte // the body, up to the end of its entries
	n    int
	leaf bool
}

// NewView validates body as a node and returns its view.
func NewView(body []byte) (View, error) {
	if len(body) < hdrSize {
		return View{}, fmt.Errorf("rtree: node body of %d bytes is shorter than its header", len(body))
	}
	v := View{leaf: body[0] == kindLeaf}
	if !v.leaf && body[0] != kindInner {
		return View{}, fmt.Errorf("rtree: unknown node kind %d", body[0])
	}
	v.n = int(binary.LittleEndian.Uint16(body[1:]))
	if hdrSize+v.n*entrySize > len(body) {
		return View{}, fmt.Errorf("rtree: %d entries do not fit a node body of %d bytes", v.n, len(body))
	}
	v.b = body[:hdrSize+v.n*entrySize]
	return v, nil
}

// Leaf reports whether the node is a leaf.
func (v *View) Leaf() bool { return v.leaf }

// Len returns the number of entries.
func (v *View) Len() int { return v.n }

// Rect returns the rectangle of entry i.
func (v *View) Rect(i int) geom.Box {
	e := v.b[hdrSize+i*entrySize:][:32]
	return geom.Box{
		Min: geom.Point{X: getF64(e), Y: getF64(e[8:])},
		Max: geom.Point{X: getF64(e[16:]), Y: getF64(e[24:])},
	}
}

// RID returns the RID of leaf entry i.
func (v *View) RID(i int) heap.RID { return heap.RIDFromBytes(v.b[hdrSize+i*entrySize+32:]) }

// Child returns the child page of inner entry i.
func (v *View) Child(i int) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(v.b[hdrSize+i*entrySize+32:]))
}

// node decodes the view into a private node for a mutator.
func (v *View) node() *node {
	n := &node{leaf: v.leaf, entries: make([]entry, v.Len())}
	for i := range n.entries {
		n.entries[i].rect = v.Rect(i)
		if n.leaf {
			n.entries[i].rid = v.RID(i)
		} else {
			n.entries[i].child = v.Child(i)
		}
	}
	return n
}
