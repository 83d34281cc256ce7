package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/heap"
	"repro/internal/storage"
)

// NodeRef addresses a tree node: a record slot inside a page. Many nodes
// share one page — that is the whole point of the clustering technique
// (paper section 3, "Clustering").
type NodeRef struct {
	Page storage.PageID
	Slot uint16
}

// InvalidRef is the sentinel "no node" reference, used for the empty
// partitions that NodeShrink=false trees keep around (paper Figure 2(a)).
var InvalidRef = NodeRef{Page: storage.InvalidPageID}

// Valid reports whether the reference points at a node. Page 0 is the
// metadata page and never holds nodes, so the zero NodeRef is invalid —
// which lets freshly built nodes leave their overflow chain unset.
func (r NodeRef) Valid() bool { return r.Page != storage.InvalidPageID && r.Page != 0 }

func (r NodeRef) String() string { return fmt.Sprintf("(%d.%d)", r.Page, r.Slot) }

// entry is one partition of an inner node: a label and the child it leads
// to (possibly InvalidRef while the partition is empty).
type entry struct {
	label []byte
	child NodeRef
}

// item is one data element of a leaf (data) node.
type item struct {
	key []byte
	rid heap.RID
}

// node is the decoded, mutable form of a tree node: what the paths that
// restructure the tree (AddNode, SplitNode, PickSplit, Repack)
// build, change and encode. Reads never see it — they work on a nodeView.
//
// A data (leaf) node additionally carries a next reference: when a group
// of keys cannot be partitioned any further (duplicates, or a cell at the
// resolution limit) and outgrows one page record, the surplus items spill
// into a chain of overflow leaf records. Chains are invisible to the
// opclass: the framework re-assembles the full item list before calling
// PickSplit and follows next pointers during scans.
type node struct {
	leaf    bool
	pred    []byte  // inner only: encoded node predicate
	entries []entry // inner only
	items   []item  // leaf only
	next    NodeRef // leaf only: overflow chain
}

const (
	nodeKindInner = 1
	nodeKindLeaf  = 2
	refSize       = 6 // page u32 + slot u16

	leafHeaderSize = 1 + refSize + 2 // kind, overflow link, item count
	leafItemExtra  = 2 + heap.RIDSize
)

func putRef(b []byte, r NodeRef) {
	binary.LittleEndian.PutUint32(b[0:], uint32(r.Page))
	binary.LittleEndian.PutUint16(b[4:], r.Slot)
}

func getRef(b []byte) NodeRef {
	return NodeRef{
		Page: storage.PageID(binary.LittleEndian.Uint32(b[0:])),
		Slot: binary.LittleEndian.Uint16(b[4:]),
	}
}

// encodedSize returns the on-disk size of the node record.
func (n *node) encodedSize() int {
	if n.leaf {
		sz := leafHeaderSize
		for _, it := range n.items {
			sz += leafItemExtra + len(it.key)
		}
		return sz
	}
	sz := 1 + 2 + len(n.pred) + 2
	for _, e := range n.entries {
		sz += 2 + len(e.label) + refSize
	}
	return sz
}

// encode serializes the node.
func (n *node) encode() []byte {
	buf := make([]byte, n.encodedSize())
	if n.leaf {
		buf[0] = nodeKindLeaf
		putRef(buf[1:], n.next)
		binary.LittleEndian.PutUint16(buf[1+refSize:], uint16(len(n.items)))
		off := leafHeaderSize
		for _, it := range n.items {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(it.key)))
			off += 2
			copy(buf[off:], it.key)
			off += len(it.key)
			rb := it.rid.Bytes()
			copy(buf[off:], rb[:])
			off += heap.RIDSize
		}
		return buf
	}
	buf[0] = nodeKindInner
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.pred)))
	off := 3
	copy(buf[off:], n.pred)
	off += len(n.pred)
	binary.LittleEndian.PutUint16(buf[off:], uint16(len(n.entries)))
	off += 2
	for _, e := range n.entries {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(e.label)))
		off += 2
		copy(buf[off:], e.label)
		off += len(e.label)
		putRef(buf[off:], e.child)
		off += refSize
	}
	return buf
}

// decodeNode parses a node record into a private node the caller may
// change. Its byte slices lie in the view's copy of the record, which nobody
// writes, so the page may be unpinned afterwards.
func decodeNode(rec []byte) (*node, error) {
	v, err := newView(rec)
	if err != nil {
		return nil, err
	}
	return v.node(), nil
}

// leafHeader is the one structural walk of a data-node record: it checks
// that the header and every item lie inside rec and that nothing follows
// the last item, copying nothing, and returns the overflow link and the
// item count — what an insertion decides on where the record lies. newView
// validates data nodes through it.
func leafHeader(rec []byte) (next NodeRef, cnt int, err error) {
	if len(rec) < 3 {
		return InvalidRef, 0, fmt.Errorf("spgist: node record too short (%d bytes)", len(rec))
	}
	if rec[0] != nodeKindLeaf {
		return InvalidRef, 0, fmt.Errorf("spgist: node kind %d where a data node was expected", rec[0])
	}
	if len(rec) < leafHeaderSize {
		return InvalidRef, 0, fmt.Errorf("spgist: truncated leaf header")
	}
	cnt = int(binary.LittleEndian.Uint16(rec[1+refSize:]))
	off := leafHeaderSize
	for i := 0; i < cnt; i++ {
		if off+2 > len(rec) {
			return InvalidRef, 0, fmt.Errorf("spgist: truncated leaf item header")
		}
		off += 2 + int(binary.LittleEndian.Uint16(rec[off:])) + heap.RIDSize
		if off > len(rec) {
			return InvalidRef, 0, fmt.Errorf("spgist: truncated leaf item")
		}
	}
	if off != len(rec) {
		return InvalidRef, 0, fmt.Errorf("spgist: %d stray bytes after the last leaf item", len(rec)-off)
	}
	return getRef(rec[1:]), cnt, nil
}

// appendLeafItem returns a copy of the data-node record rec (one leafHeader
// accepted) with the item (key, rid) added: the bytes encode would produce
// for the decoded node plus that item, without decoding it.
func appendLeafItem(rec, key []byte, rid heap.RID) []byte {
	out := make([]byte, len(rec), len(rec)+leafItemExtra+len(key))
	copy(out, rec)
	cnt := binary.LittleEndian.Uint16(out[1+refSize:])
	binary.LittleEndian.PutUint16(out[1+refSize:], cnt+1)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(key)))
	out = append(out, key...)
	rb := rid.Bytes()
	return append(out, rb[:]...)
}
