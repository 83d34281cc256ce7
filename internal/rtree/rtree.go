// Package rtree implements a disk-based R-tree (Guttman 1984, quadratic
// split) — the baseline PostgreSQL spatial access method the paper
// compares the SP-GiST kd-tree and PMR quadtree against (Figures 13–15).
//
// One tree node occupies one page: it is the one record, in slot 0, of a
// slotted page, logged as a slot put or patch like an SP-GiST node. Leaf
// entries carry the exact geometry
// bounding box of the indexed object plus its RID; inner entries carry
// the minimum bounding rectangle of a child page. Points are indexed as
// degenerate rectangles; line segments by their MBR, so an exact segment
// match filters candidates against the heap tuple (the executor layer
// does that, like PostgreSQL rechecks lossy index hits).
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
)

// Meta page: the magic, and the body storage frames on page 0 —
// [root u32][height u32].
const (
	magic        = 0x52545245 // "RTRE"
	metaBodySize = 8
)

// Node record layout, the one record of its page, in nodeSlot:
//
//	[kind u8][n u16] entries: [4 x float64 rect][child u32 | rid 6, padded to 8]
const (
	kindLeaf  = 1
	kindInner = 2
	hdrSize   = 3
	entrySize = 40
	nodeSlot  = 0
)

type entry struct {
	rect  geom.Box
	child storage.PageID // inner
	rid   heap.RID       // leaf
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is one disk-based R-tree index. Writers must be externally
// serialized.
type Tree struct {
	bp      *storage.BufferPool
	root    storage.PageID
	height  int
	maxFill int // M: entries per node
	minFill int // m: lower bound after split

	// enc is the buffer node records are encoded in; writers are
	// serialized, so one serves the tree.
	enc []byte
}

func (t *Tree) metaBody() (body [metaBodySize]byte) {
	binary.LittleEndian.PutUint32(body[0:], uint32(t.root))
	binary.LittleEndian.PutUint32(body[4:], uint32(t.height))
	return body
}

// Create initializes a new empty R-tree in an empty page file.
func Create(bp *storage.BufferPool) (*Tree, error) {
	t := newTree(bp)
	body := t.metaBody()
	if err := bp.CreateMeta(magic, body[:]); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing R-tree file.
func Open(bp *storage.BufferPool) (*Tree, error) {
	var body [metaBodySize]byte
	if err := bp.ReadMeta(magic, body[:]); err != nil {
		return nil, err
	}
	t := newTree(bp)
	t.root = storage.PageID(binary.LittleEndian.Uint32(body[0:]))
	t.height = int(binary.LittleEndian.Uint32(body[4:]))
	return t, nil
}

func newTree(bp *storage.BufferPool) *Tree {
	// M fills an empty slotted page but for the line pointer SlotUpdate
	// keeps free to grow a record.
	maxFill := (storage.SlotCapacity(bp.DM().PageSize()) - storage.SlotEntrySize - hdrSize) / entrySize
	minFill := maxFill * 2 / 5 // Guttman's recommended m ~ 40% of M
	if minFill < 1 {
		minFill = 1
	}
	return &Tree{
		bp: bp, root: storage.InvalidPageID,
		maxFill: maxFill, minFill: minFill,
	}
}

// saveMeta writes root and height into the meta page, dirtying it (and so
// logging the change with the next record group). Insert calls it where
// the root moves, so that a record group holding the new root page always
// holds the pointer to it.
func (t *Tree) saveMeta() error {
	body := t.metaBody()
	return t.bp.WriteMeta(body[:])
}

// Pool returns the underlying buffer pool.
func (t *Tree) Pool() *storage.BufferPool { return t.bp }

// Height returns the number of levels; 0 when empty.
func (t *Tree) Height() int { return t.height }

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func (n *node) encode(buf []byte) {
	if n.leaf {
		buf[0] = kindLeaf
	} else {
		buf[0] = kindInner
	}
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.entries)))
	off := hdrSize
	for _, e := range n.entries {
		putF64(buf[off:], e.rect.Min.X)
		putF64(buf[off+8:], e.rect.Min.Y)
		putF64(buf[off+16:], e.rect.Max.X)
		putF64(buf[off+24:], e.rect.Max.Y)
		if n.leaf {
			rb := e.rid.Bytes()
			copy(buf[off+32:], rb[:])
			buf[off+38] = 0
			buf[off+39] = 0
		} else {
			binary.LittleEndian.PutUint32(buf[off+32:], uint32(e.child))
		}
		off += entrySize
	}
}

// pin fetches page pid and reads it as a node where it lies. The caller
// unpins p.
func (t *Tree) pin(pid storage.PageID) (*storage.Page, View, error) {
	p, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, View{}, err
	}
	v, err := NewView(storage.SlotRead(p.Data, nodeSlot))
	if err != nil {
		t.bp.Unpin(p, false)
		return nil, View{}, fmt.Errorf("%w (page %d)", err, pid)
	}
	return p, v, nil
}

// readNode decodes page pid into a private node, for a mutator.
func (t *Tree) readNode(pid storage.PageID) (*node, error) {
	p, v, err := t.pin(pid)
	if err != nil {
		return nil, err
	}
	defer t.bp.Unpin(p, false)
	return v.node(), nil
}

// record returns n encoded as a node record, in t.enc.
func (t *Tree) record(n *node) []byte {
	sz := hdrSize + len(n.entries)*entrySize
	t.enc = slices.Grow(t.enc[:0], sz)[:sz]
	n.encode(t.enc)
	return t.enc
}

func (t *Tree) writeNode(pid storage.PageID, n *node) error {
	p, err := t.bp.Fetch(pid)
	if err != nil {
		return err
	}
	return t.bp.UnpinRewrite(p, nodeSlot, t.record(n))
}

func (t *Tree) allocNode(n *node) (storage.PageID, error) {
	return t.bp.NewRecordPage(t.record(n))
}

func mbr(entries []entry) geom.Box {
	b := entries[0].rect
	for _, e := range entries[1:] {
		b = b.Union(e.rect)
	}
	return b
}

// enlargement returns how much b must grow to cover r.
func enlargement(b, r geom.Box) float64 {
	return b.Union(r).Area() - b.Area()
}

// Insert adds one (rect, rid) entry.
func (t *Tree) Insert(rect geom.Box, rid heap.RID) error {
	if t.root == storage.InvalidPageID {
		pid, err := t.allocNode(&node{leaf: true, entries: []entry{{rect: rect, rid: rid}}})
		if err != nil {
			return err
		}
		t.root = pid
		t.height = 1
		return t.saveMeta()
	}
	splitRect1, splitRect2, right, err := t.insertAt(t.root, rect, rid, t.height)
	if err != nil {
		return err
	}
	if right != storage.InvalidPageID {
		newRoot := &node{entries: []entry{
			{rect: splitRect1, child: t.root},
			{rect: splitRect2, child: right},
		}}
		pid, err := t.allocNode(newRoot)
		if err != nil {
			return err
		}
		t.root = pid
		t.height++
		return t.saveMeta()
	}
	return nil
}

// insertAt implements ChooseLeaf + AdjustTree. On split it returns the
// MBRs of the two halves and the new right sibling's page.
func (t *Tree) insertAt(pid storage.PageID, rect geom.Box, rid heap.RID, level int) (geom.Box, geom.Box, storage.PageID, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return geom.Box{}, geom.Box{}, storage.InvalidPageID, err
	}
	if n.leaf {
		n.entries = append(n.entries, entry{rect: rect, rid: rid})
		return t.writeSplit(pid, n)
	}
	// ChooseSubtree: least enlargement, ties by smallest area.
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.entries {
		enl := enlargement(e.rect, rect)
		area := e.rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	child := n.entries[best].child
	r1, r2, right, err := t.insertAt(child, rect, rid, level-1)
	if err != nil {
		return geom.Box{}, geom.Box{}, storage.InvalidPageID, err
	}
	if right == storage.InvalidPageID {
		// AdjustTree: widen the child's MBR.
		n.entries[best].rect = n.entries[best].rect.Union(rect)
		return geom.Box{}, geom.Box{}, storage.InvalidPageID, t.writeNode(pid, n)
	}
	n.entries[best].rect = r1
	n.entries = append(n.entries, entry{rect: r2, child: right})
	return t.writeSplit(pid, n)
}

// writeSplit stores n at pid, applying Guttman's quadratic split when the
// node exceeds M entries.
func (t *Tree) writeSplit(pid storage.PageID, n *node) (geom.Box, geom.Box, storage.PageID, error) {
	if len(n.entries) <= t.maxFill {
		return geom.Box{}, geom.Box{}, storage.InvalidPageID, t.writeNode(pid, n)
	}
	g1, g2 := quadraticSplit(n.entries, t.minFill)
	rightN := &node{leaf: n.leaf, entries: g2}
	rightPID, err := t.allocNode(rightN)
	if err != nil {
		return geom.Box{}, geom.Box{}, storage.InvalidPageID, err
	}
	n.entries = g1
	if err := t.writeNode(pid, n); err != nil {
		return geom.Box{}, geom.Box{}, storage.InvalidPageID, err
	}
	return mbr(g1), mbr(g2), rightPID, nil
}

// quadraticSplit distributes entries into two groups per Guttman's
// quadratic algorithm: seed with the pair wasting the most area, then
// repeatedly assign the entry with the greatest preference difference.
func quadraticSplit(entries []entry, minFill int) ([]entry, []entry) {
	// PickSeeds.
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].rect.Union(entries[j].rect).Area() -
				entries[i].rect.Area() - entries[j].rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := []entry{entries[s1]}
	g2 := []entry{entries[s2]}
	b1 := entries[s1].rect
	b2 := entries[s2].rect
	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// If one group must take everything to reach minFill, do so.
		need1 := minFill - len(g1)
		need2 := minFill - len(g2)
		if need1 > 0 && need1 >= len(rest) {
			g1 = append(g1, rest...)
			break
		}
		if need2 > 0 && need2 >= len(rest) {
			g2 = append(g2, rest...)
			break
		}
		// PickNext: greatest difference of enlargements.
		pick := 0
		bestDiff := math.Inf(-1)
		for i, e := range rest {
			diff := math.Abs(enlargement(b1, e.rect) - enlargement(b2, e.rect))
			if diff > bestDiff {
				bestDiff, pick = diff, i
			}
		}
		e := rest[pick]
		rest = append(rest[:pick], rest[pick+1:]...)
		d1 := enlargement(b1, e.rect)
		d2 := enlargement(b2, e.rect)
		if d1 < d2 || (d1 == d2 && b1.Area() <= b2.Area()) {
			g1 = append(g1, e)
			b1 = b1.Union(e.rect)
		} else {
			g2 = append(g2, e)
			b2 = b2.Union(e.rect)
		}
	}
	return g1, g2
}

// search is what one Search owns and reuses from node to node: its stack
// of pages to visit, and the copy of the leaf it emits from.
type search struct {
	stack []storage.PageID
	leaf  []byte
}

// searches recycles searches, so that a Search allocates neither.
var searches = sync.Pool{New: func() any { return new(search) }}

// Search calls emit for every leaf entry whose rectangle intersects q. It
// reads inner nodes in their frames and each leaf in one copy the search
// owns, from which it emits.
func (t *Tree) Search(q geom.Box, emit func(rect geom.Box, rid heap.RID) bool) error {
	if t.root == storage.InvalidPageID {
		return nil
	}
	s := searches.Get().(*search)
	defer searches.Put(s)
	s.stack = append(s.stack[:0], t.root)
	for len(s.stack) > 0 {
		pid := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		p, v, err := t.pin(pid)
		if err != nil {
			return err
		}
		if !v.leaf {
			for i := 0; i < v.Len(); i++ {
				if v.Rect(i).Intersects(q) {
					s.stack = append(s.stack, v.Child(i))
				}
			}
			t.bp.Unpin(p, false)
			continue
		}
		s.leaf = append(s.leaf[:0], v.b...)
		t.bp.Unpin(p, false)
		v.b = s.leaf
		for i := 0; i < v.Len(); i++ {
			if r := v.Rect(i); r.Intersects(q) && !emit(r, v.RID(i)) {
				return nil
			}
		}
	}
	return nil
}

// SearchPoint calls emit for leaf entries whose rectangle is exactly the
// degenerate rectangle at p (point equality for point datasets).
func (t *Tree) SearchPoint(p geom.Point, emit func(rid heap.RID) bool) error {
	q := geom.Box{Min: p, Max: p}
	return t.Search(q, func(rect geom.Box, rid heap.RID) bool {
		if rect.Min.Eq(p) && rect.Max.Eq(p) {
			return emit(rid)
		}
		return true
	})
}

// SearchContained calls emit for leaf entries fully inside q (range
// search over point data; for extended objects the executor rechecks).
func (t *Tree) SearchContained(q geom.Box, emit func(rect geom.Box, rid heap.RID) bool) error {
	return t.Search(q, func(rect geom.Box, rid heap.RID) bool {
		if q.ContainsBox(rect) {
			return emit(rect, rid)
		}
		return true
	})
}

// BulkDelete removes every leaf entry whose RID dead reports, reading the
// file once in page order: each leaf that holds a dead RID is rewritten in
// place, under the pin that read it. MBRs on the path are not shrunk
// (Guttman's CondenseTree is skipped, as deletes do not occur in the
// paper's experiments); search correctness is unaffected.
func (t *Tree) BulkDelete(dead func(rid heap.RID) bool) error {
	n := t.bp.DM().NumPages()
	for pid := storage.PageID(1); uint32(pid) < n; pid++ {
		p, v, err := t.pin(pid)
		if err != nil {
			return err
		}
		hit := false
		for i := 0; v.leaf && i < v.Len() && !hit; i++ {
			hit = dead(v.RID(i))
		}
		if !hit {
			t.bp.Unpin(p, false)
			continue
		}
		nd := v.node()
		nd.entries = slices.DeleteFunc(nd.entries, func(e entry) bool { return dead(e.rid) })
		if err := t.bp.UnpinRewrite(p, nodeSlot, t.record(nd)); err != nil {
			return err
		}
	}
	return nil
}
