// Package btree implements a disk-based B+-tree over byte-string keys —
// the baseline PostgreSQL access method the paper compares the SP-GiST
// trie against (Figures 6–12).
//
// One tree node occupies one page: it is the one record, in slot 0, of a
// slotted page, logged as a slot put or patch like an SP-GiST node. Leaves
// hold sorted (key, RID) pairs
// and are chained left-to-right, which is what makes prefix (range) scans
// cheap — the very advantage Figure 6 reports for the B+-tree over the
// trie on prefix queries. Wildcard ("regular expression") search uses
// only the longest literal prefix before the first wildcard and filters
// the rest, reproducing the B+-tree behaviour the paper describes: a
// pattern starting with '?' degenerates to a full scan.
//
// Duplicate keys are supported; deletion is by RID (BulkDelete) and leaves
// are not rebalanced (like the experiments in the paper, which only insert).
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/heap"
	"repro/internal/storage"
)

// Meta page: the magic, and the body storage frames on page 0 —
// [root u32][height u32].
const (
	MetaMagic    = 0x42545245 // "BTRE"
	MetaBodySize = 8
)

// Node record layout, the one record of its page, in nodeSlot:
//
//	[kind u8][nkeys u16][next u32 (leaf) | child0 u32 (inner)] entries...
//	leaf entry:  [klen u16][key][rid 6]
//	inner entry: [klen u16][key][child u32]
const (
	kindLeaf  = 1
	kindInner = 2
	hdrSize   = 7
	nodeSlot  = 0
)

type entry struct {
	key   []byte
	rid   heap.RID       // leaf
	child storage.PageID // inner: child right of key
}

type node struct {
	leaf    bool
	next    storage.PageID // leaf: right sibling
	child0  storage.PageID // inner: leftmost child
	entries []entry
}

// Tree is one disk-based B+-tree index. Writers must be externally
// serialized and excluded from readers; readers may run concurrently
// with each other (the executor's shared/exclusive statement lock
// provides this discipline).
type Tree struct {
	bp     *storage.BufferPool
	root   storage.PageID
	height int

	// enc is the buffer node records are encoded and spliced in; writers
	// are serialized, so one serves the tree.
	enc []byte
}

func (t *Tree) metaBody() (body [MetaBodySize]byte) {
	binary.LittleEndian.PutUint32(body[0:], uint32(t.root))
	binary.LittleEndian.PutUint32(body[4:], uint32(t.height))
	return body
}

// Create initializes a new empty B+-tree in an empty page file.
func Create(bp *storage.BufferPool) (*Tree, error) {
	t := &Tree{bp: bp, root: storage.InvalidPageID}
	body := t.metaBody()
	if err := bp.CreateMeta(MetaMagic, body[:]); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing B+-tree file.
func Open(bp *storage.BufferPool) (*Tree, error) {
	var body [MetaBodySize]byte
	if err := bp.ReadMeta(MetaMagic, body[:]); err != nil {
		return nil, err
	}
	return &Tree{
		bp:     bp,
		root:   storage.PageID(binary.LittleEndian.Uint32(body[0:])),
		height: int(binary.LittleEndian.Uint32(body[4:])),
	}, nil
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

// Height returns the number of levels (nodes == pages on a root-to-leaf
// path); 0 for an empty tree.
func (t *Tree) Height() int { return t.height }

func (n *node) encodedSize() int {
	sz := hdrSize
	for _, e := range n.entries {
		sz += 2 + len(e.key)
		if n.leaf {
			sz += heap.RIDSize
		} else {
			sz += 4
		}
	}
	return sz
}

func (n *node) encode(buf []byte) {
	if n.leaf {
		buf[0] = kindLeaf
		binary.LittleEndian.PutUint32(buf[3:], uint32(n.next))
	} else {
		buf[0] = kindInner
		binary.LittleEndian.PutUint32(buf[3:], uint32(n.child0))
	}
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.entries)))
	off := hdrSize
	for _, e := range n.entries {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(e.key)))
		off += 2
		copy(buf[off:], e.key)
		off += len(e.key)
		if n.leaf {
			rb := e.rid.Bytes()
			copy(buf[off:], rb[:])
			off += heap.RIDSize
		} else {
			binary.LittleEndian.PutUint32(buf[off:], uint32(e.child))
			off += 4
		}
	}
}

// nodeCap is the largest node record: an empty slotted page's capacity,
// less the line pointer SlotUpdate keeps free to grow a record.
func (t *Tree) nodeCap() int {
	return storage.SlotCapacity(t.bp.DM().PageSize()) - storage.SlotEntrySize
}

// walk is what one pass over the tree owns and reuses from node to node:
// the entry table of the node it reads, and the copy of the leaf it emits
// from, so that no caller's emit runs under a pin.
type walk struct {
	offs []int32
	leaf []byte
}

// walks recycles walks from pass to pass, so that a search allocates
// neither its entry table nor its leaf copy.
var walks = sync.Pool{New: func() any { return new(walk) }}

// pin fetches page pid and reads it as a node where it lies. The caller
// unpins p.
func (t *Tree) pin(pid storage.PageID, w *walk) (*storage.Page, View, error) {
	p, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, View{}, err
	}
	v, err := NewView(storage.SlotRead(p.Data, nodeSlot), w.offs)
	if err != nil {
		t.bp.Unpin(p, false)
		return nil, View{}, fmt.Errorf("%w (page %d)", err, pid)
	}
	w.offs = v.offs
	return p, v, nil
}

// descend walks from the root to the leaf that covers k (see childFor),
// reading each inner node in its frame, and returns the leaf pinned.
func (t *Tree) descend(k []byte, leftmost bool, w *walk) (*storage.Page, View, error) {
	pid := t.root
	for {
		p, v, err := t.pin(pid, w)
		if err != nil || v.leaf {
			return p, v, err
		}
		pid = v.childFor(k, leftmost)
		t.bp.Unpin(p, false)
	}
}

// release copies leaf v, pinned in p, into w's buffer, unpins p, and
// returns the view of the copy.
func (t *Tree) release(p *storage.Page, v View, w *walk) View {
	w.leaf = append(w.leaf[:0], v.b[:v.end]...)
	t.bp.Unpin(p, false)
	v.b = w.leaf
	return v
}

// readLeaf reads leaf pid into w's buffer.
func (t *Tree) readLeaf(pid storage.PageID, w *walk) (View, error) {
	p, v, err := t.pin(pid, w)
	if err != nil {
		return View{}, err
	}
	if !v.leaf {
		t.bp.Unpin(p, false)
		return View{}, fmt.Errorf("btree: page %d on the leaf chain is an inner node", pid)
	}
	return t.release(p, v, w), nil
}

// record returns n encoded as a node record, in t.enc.
func (t *Tree) record(n *node) ([]byte, error) {
	sz := n.encodedSize()
	if sz > t.nodeCap() {
		return nil, fmt.Errorf("btree: node of %d bytes exceeds page size", sz)
	}
	t.enc = slices.Grow(t.enc[:0], sz)[:sz]
	n.encode(t.enc)
	return t.enc, nil
}

func (t *Tree) writeNode(pid storage.PageID, n *node) error {
	rec, err := t.record(n)
	if err != nil {
		return err
	}
	p, err := t.bp.Fetch(pid)
	if err != nil {
		return err
	}
	return t.bp.UnpinRewrite(p, nodeSlot, rec)
}

func (t *Tree) allocNode(n *node) (storage.PageID, error) {
	rec, err := t.record(n)
	if err != nil {
		return storage.InvalidPageID, err
	}
	return t.bp.NewRecordPage(rec)
}

// checkKey refuses a key too large for a node to split around.
func (t *Tree) checkKey(key []byte) error {
	if len(key)+32 > t.bp.DM().PageSize()/4 {
		return fmt.Errorf("btree: key of %d bytes too large", len(key))
	}
	return nil
}

// Pair is one (key, RID) input of InsertBatch.
type Pair struct {
	Key []byte
	RID heap.RID
}

// InsertBatch adds pairs as one grouped operation; it is the tree's one
// insert routine. The pairs are sorted first, then inserted in key order
// with a leaf-run fast path: one descent pins the target leaf and splices
// every following key that provably belongs to the same leaf — strictly
// below the leaf's current last key, or anything at all on the rightmost
// leaf — without re-descending or re-pinning per row. Keys that fall
// outside the run (or overflow the leaf) fall back to the ordinary split
// path. For the common bulk-load shape (many keys per leaf) this is one
// descent and one pin per leaf cluster instead of one per row.
func (t *Tree) InsertBatch(pairs []Pair) error {
	for _, p := range pairs {
		if err := t.checkKey(p.Key); err != nil {
			return err
		}
	}
	sorted := append([]Pair(nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0 })
	w := walks.Get().(*walk)
	defer walks.Put(w)
	for i := 0; i < len(sorted); {
		n, err := t.insert(sorted[i:], w)
		if err != nil {
			return err
		}
		i += n
	}
	return nil
}

// insert adds pairs[0] and, after it, as many of the sorted pairs that
// follow as spliceRun can place in the same leaf, returning how many it
// added. A first pair that does not fit its leaf takes the split path.
func (t *Tree) insert(pairs []Pair, w *walk) (int, error) {
	key, rid := pairs[0].Key, pairs[0].RID
	if t.root == storage.InvalidPageID {
		leaf := &node{leaf: true, next: storage.InvalidPageID,
			entries: []entry{{key: append([]byte(nil), key...), rid: rid}}}
		pid, err := t.allocNode(leaf)
		if err != nil {
			return 0, err
		}
		t.root = pid
		t.height = 1
		return 1, t.saveMeta()
	}
	if n, err := t.spliceRun(pairs, w); err != nil || n > 0 {
		return n, err
	}
	sep, right, err := t.insertAt(t.root, key, rid, w)
	if err != nil {
		return 0, err
	}
	if right != storage.InvalidPageID {
		// Root split: grow a new root.
		newRoot := &node{child0: t.root, entries: []entry{{key: sep, child: right}}}
		pid, err := t.allocNode(newRoot)
		if err != nil {
			return 0, err
		}
		t.root = pid
		t.height++
		return 1, t.saveMeta()
	}
	return 1, nil
}

// spliceRun descends once to the leaf covering pairs[0].Key and splices
// as many consecutive (sorted) pairs into its page bytes as provably
// belong there and fit, the way PostgreSQL shifts item pointers in place,
// returning how many were consumed (0 if the first key needs the split
// path). Each pair goes in at its key's upper bound. The run is spliced
// into a copy of the leaf record with room for a whole node, which then
// replaces the record where it lies.
func (t *Tree) spliceRun(pairs []Pair, w *walk) (int, error) {
	p, v, err := t.descend(pairs[0].Key, false, w)
	if err != nil {
		return 0, err
	}
	data := slices.Grow(t.enc[:0], t.nodeCap())[:t.nodeCap()]
	copy(data, v.b[:v.end])
	v.b, t.enc = data, data
	rightmost := v.Link() == storage.InvalidPageID
	done := 0
	for _, pr := range pairs {
		cnt := v.Len()
		// Only the first key of the run is placed here by descent; later
		// keys belong to this leaf only when strictly below its current
		// last key (equal keys may belong to the right sibling under
		// upper-bound separators).
		if done > 0 && !rightmost && bytes.Compare(pr.Key, v.Key(cnt-1)) >= 0 {
			break
		}
		esz := 2 + len(pr.Key) + heap.RIDSize
		if v.end+esz > len(data) {
			break // leaf full: the caller re-enters through the split path
		}
		i := v.bound(pr.Key, false)
		ins := v.end
		if i < cnt {
			ins = int(v.offs[i])
		}
		copy(data[ins+esz:v.end+esz], data[ins:v.end])
		binary.LittleEndian.PutUint16(data[ins:], uint16(len(pr.Key)))
		copy(data[ins+2:], pr.Key)
		rb := pr.RID.Bytes()
		copy(data[ins+2+len(pr.Key):], rb[:])
		binary.LittleEndian.PutUint16(data[1:], uint16(cnt+1))
		// Keep the view in step with the bytes: entry i is new, the ones
		// after it moved up by esz.
		v.offs = slices.Insert(v.offs, i, int32(ins))
		for j := i + 1; j < len(v.offs); j++ {
			v.offs[j] += int32(esz)
		}
		v.end += esz
		done++
	}
	if done == 0 {
		t.bp.Unpin(p, false)
		return 0, nil
	}
	if err := t.bp.UnpinRewrite(p, nodeSlot, data[:v.end]); err != nil {
		return 0, err
	}
	return done, nil
}

// insertAt descends recursively; on child split it returns the separator
// key and new right sibling for the caller to absorb.
func (t *Tree) insertAt(pid storage.PageID, key []byte, rid heap.RID, w *walk) ([]byte, storage.PageID, error) {
	p, v, err := t.pin(pid, w)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	// A leaf takes key at its upper bound; in an inner node the entries
	// below it lead to the child that covers key.
	i := v.bound(key, false)
	n := v.node()
	t.bp.Unpin(p, false)
	if n.leaf {
		n.entries = slices.Insert(n.entries, i, entry{key: append([]byte(nil), key...), rid: rid})
		return t.writeSplit(pid, n)
	}
	child := n.child0
	if i > 0 {
		child = n.entries[i-1].child
	}
	sep, right, err := t.insertAt(child, key, rid, w)
	if err != nil || right == storage.InvalidPageID {
		return nil, storage.InvalidPageID, err
	}
	// The new right sibling must sit directly after the child that split:
	// placing it merely by key would misorder subtrees inside a run of
	// equal separators and desynchronize them from the leaf chain.
	n.entries = slices.Insert(n.entries, i, entry{key: sep, child: right})
	return t.writeSplit(pid, n)
}

// writeSplit stores n at pid, splitting it in half first when it no
// longer fits one page.
func (t *Tree) writeSplit(pid storage.PageID, n *node) ([]byte, storage.PageID, error) {
	if n.encodedSize() <= t.nodeCap() {
		return nil, storage.InvalidPageID, t.writeNode(pid, n)
	}
	mid := len(n.entries) / 2
	var sep []byte
	var rightN *node
	if n.leaf {
		sep = append([]byte(nil), n.entries[mid].key...)
		rightN = &node{leaf: true, next: n.next, entries: append([]entry(nil), n.entries[mid:]...)}
	} else {
		// The middle key moves up; its child becomes the right node's
		// leftmost child.
		sep = append([]byte(nil), n.entries[mid].key...)
		rightN = &node{child0: n.entries[mid].child, entries: append([]entry(nil), n.entries[mid+1:]...)}
	}
	rightPID, err := t.allocNode(rightN)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	n.entries = n.entries[:mid]
	if n.leaf {
		n.next = rightPID
	}
	if err := t.writeNode(pid, n); err != nil {
		return nil, storage.InvalidPageID, err
	}
	return sep, rightPID, nil
}

// Search calls emit for every pair with key exactly equal to key.
func (t *Tree) Search(key []byte, emit func(rid heap.RID) bool) error {
	return t.RangeScan(key, key, func(_ []byte, rid heap.RID) bool { return emit(rid) })
}

// RangeScan calls emit for every pair with lo <= key <= hi in key order.
// A nil hi means "to the end"; a nil lo starts at the smallest key. The
// key emit gets lies in the scan's copy of its leaf: it is valid until emit
// returns.
func (t *Tree) RangeScan(lo, hi []byte, emit func(key []byte, rid heap.RID) bool) error {
	if t.root == storage.InvalidPageID {
		return nil
	}
	w := walks.Get().(*walk)
	defer walks.Put(w)
	p, v, err := t.descend(lo, true, w)
	if err != nil {
		return err
	}
	v = t.release(p, v, w)
	for i := v.bound(lo, true); ; i = 0 {
		next := v.Link()
		for ; i < v.Len(); i++ {
			k := v.Key(i)
			if hi != nil && bytes.Compare(k, hi) > 0 {
				return nil
			}
			if !emit(k, v.RID(i)) {
				return nil
			}
		}
		if next == storage.InvalidPageID {
			return nil
		}
		if v, err = t.readLeaf(next, w); err != nil {
			return err
		}
	}
}

// PrefixSuccessor returns the smallest byte string greater than every
// string with the given prefix, or nil when no such bound exists (prefix
// is empty or all 0xFF).
func PrefixSuccessor(prefix []byte) []byte {
	succ := append([]byte(nil), prefix...)
	for i := len(succ) - 1; i >= 0; i-- {
		if succ[i] < 0xFF {
			succ[i]++
			return succ[:i+1]
		}
	}
	return nil
}

// PrefixScan calls emit for every pair whose key starts with prefix.
func (t *Tree) PrefixScan(prefix []byte, emit func(key []byte, rid heap.RID) bool) error {
	succ := PrefixSuccessor(prefix)
	return t.RangeScan(prefix, nil, func(key []byte, rid heap.RID) bool {
		if succ != nil && bytes.Compare(key, succ) >= 0 {
			return false
		}
		return emit(key, rid)
	})
}

// MatchScan answers a wildcard pattern ('?' matches one character) the
// way the paper describes the B+-tree doing it: range-scan the longest
// literal prefix before the first wildcard and filter each key against
// the full pattern. A leading wildcard forces a full scan.
func (t *Tree) MatchScan(pattern string, match func(key string, pattern string) bool, emit func(key []byte, rid heap.RID) bool) error {
	lit := 0
	for lit < len(pattern) && pattern[lit] != '?' {
		lit++
	}
	prefix := []byte(pattern[:lit])
	var lo []byte
	if lit > 0 {
		lo = prefix
	}
	succ := PrefixSuccessor(prefix)
	return t.RangeScan(lo, nil, func(key []byte, rid heap.RID) bool {
		if lit > 0 && succ != nil && bytes.Compare(key, succ) >= 0 {
			return false
		}
		if match(string(key), pattern) {
			return emit(key, rid)
		}
		return true
	})
}

// BulkDelete removes every pair whose RID dead reports, reading the file
// once in page order as PostgreSQL's btvacuumscan does: each leaf that holds
// a dead RID is rewritten in place, under the pin that read it. Leaves are
// not rebalanced.
func (t *Tree) BulkDelete(dead func(rid heap.RID) bool) error {
	w := walks.Get().(*walk)
	defer walks.Put(w)
	n := t.bp.DM().NumPages()
	for pid := storage.PageID(1); uint32(pid) < n; pid++ {
		p, v, err := t.pin(pid, w)
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
		rec, err := t.record(nd)
		if err == nil {
			err = t.bp.UnpinRewrite(p, nodeSlot, rec)
		} else {
			t.bp.Unpin(p, false)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
