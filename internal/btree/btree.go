// Package btree implements a disk-based B+-tree over byte-string keys —
// the baseline PostgreSQL access method the paper compares the SP-GiST
// trie against (Figures 6–12).
//
// One tree node occupies one page. Leaves hold sorted (key, RID) pairs
// and are chained left-to-right, which is what makes prefix (range) scans
// cheap — the very advantage Figure 6 reports for the B+-tree over the
// trie on prefix queries. Wildcard ("regular expression") search uses
// only the longest literal prefix before the first wildcard and filters
// the rest, reproducing the B+-tree behaviour the paper describes: a
// pattern starting with '?' degenerates to a full scan.
//
// Duplicate keys are supported; deletion is by (key, RID) and leaves are
// not rebalanced (like the experiments in the paper, which only insert).
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/storage"
)

// Meta page: the magic, and the body storage frames on page 0 —
// [root u32][height u32][count u64].
const (
	magic        = 0x42545245 // "BTRE"
	metaBodySize = 16
)

// Node page layout, after the page header:
//
//	[kind u8][nkeys u16][next u32 (leaf) | child0 u32 (inner)] entries...
//	leaf entry:  [klen u16][key][rid 6]
//	inner entry: [klen u16][key][child u32]
const (
	kindLeaf  = 1
	kindInner = 2
	hdrSize   = 7
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
	count  int64

	// trace, when non-nil, records distinct pages touched by read paths.
	trace atomic.Pointer[storage.PageTrace]

	// cache holds decoded nodes for read-only paths, invalidated on
	// writes — the analogue of PostgreSQL binary-searching directly in
	// buffer pages instead of materializing tuples per visit. Cached
	// nodes are immutable once published, so concurrent readers share
	// them freely.
	cache *storage.NodeCache[storage.PageID, *node]
}

func (t *Tree) metaBody() (body [metaBodySize]byte) {
	binary.LittleEndian.PutUint32(body[0:], uint32(t.root))
	binary.LittleEndian.PutUint32(body[4:], uint32(t.height))
	binary.LittleEndian.PutUint64(body[8:], uint64(t.count))
	return body
}

// Create initializes a new empty B+-tree in an empty page file.
func Create(bp *storage.BufferPool) (*Tree, error) {
	t := &Tree{bp: bp, root: storage.InvalidPageID, cache: storage.NewNodeCache[storage.PageID, *node](maxCachedNodes)}
	body := t.metaBody()
	if err := bp.CreateMeta(magic, body[:]); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing B+-tree file.
func Open(bp *storage.BufferPool) (*Tree, error) {
	var body [metaBodySize]byte
	if err := bp.ReadMeta(magic, body[:]); err != nil {
		return nil, err
	}
	return &Tree{
		bp:     bp,
		root:   storage.PageID(binary.LittleEndian.Uint32(body[0:])),
		height: int(binary.LittleEndian.Uint32(body[4:])),
		count:  int64(binary.LittleEndian.Uint64(body[8:])),
		cache:  storage.NewNodeCache[storage.PageID, *node](maxCachedNodes),
	}, nil
}

// saveMeta writes root, height and count into the meta page, dirtying it
// (and so logging its image with the next record group) only when one of
// them changed. Insert calls it where the root moves, so that a record
// group holding the new root page always holds the pointer to it; the
// count follows at the caller's commit point (SaveMeta).
func (t *Tree) saveMeta() error {
	body := t.metaBody()
	return t.bp.WriteMeta(body[:])
}

// SaveMeta persists the in-memory metadata (root, height, count) into
// the metadata page without flushing data pages; with a WAL attached
// the dirty meta page is logged and recoverable.
func (t *Tree) SaveMeta() error { return t.saveMeta() }

// Flush persists metadata and dirty pages.
func (t *Tree) Flush() error {
	if err := t.saveMeta(); err != nil {
		return err
	}
	return t.bp.FlushAll()
}

// Pool returns the underlying buffer pool.
func (t *Tree) Pool() *storage.BufferPool { return t.bp }

// Count returns the number of stored (key, RID) pairs.
func (t *Tree) Count() int64 { return t.count }

// Height returns the number of levels (nodes == pages on a root-to-leaf
// path); 0 for an empty tree.
func (t *Tree) Height() int { return t.height }

// NumPages returns the number of pages, including metadata.
func (t *Tree) NumPages() uint32 { return t.bp.DM().NumPages() }

// SizeBytes returns the on-disk size of the index.
func (t *Tree) SizeBytes() int64 {
	return int64(t.NumPages()) * int64(t.bp.DM().PageSize())
}

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

func decode(buf []byte) (*node, error) {
	n := &node{}
	switch buf[0] {
	case kindLeaf:
		n.leaf = true
		n.next = storage.PageID(binary.LittleEndian.Uint32(buf[3:]))
	case kindInner:
		n.child0 = storage.PageID(binary.LittleEndian.Uint32(buf[3:]))
	default:
		return nil, fmt.Errorf("btree: unknown node kind %d", buf[0])
	}
	cnt := int(binary.LittleEndian.Uint16(buf[1:]))
	n.entries = make([]entry, 0, cnt)
	off := hdrSize
	for i := 0; i < cnt; i++ {
		kl := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		key := make([]byte, kl)
		copy(key, buf[off:off+kl])
		off += kl
		e := entry{key: key}
		if n.leaf {
			e.rid = heap.RIDFromBytes(buf[off:])
			off += heap.RIDSize
		} else {
			e.child = storage.PageID(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
		n.entries = append(n.entries, e)
	}
	return n, nil
}

// nodeCap is the size of the largest node one page holds.
func (t *Tree) nodeCap() int { return t.bp.DM().PageSize() - storage.PageHeaderSize }

func (t *Tree) readNode(pid storage.PageID) (*node, error) {
	p, err := t.bp.Fetch(pid)
	if err != nil {
		return nil, err
	}
	defer t.bp.Unpin(p, false)
	return decode(storage.PageBody(p.Data))
}

// StartPageTrace begins counting the distinct pages touched by read-only
// operations (the page reads a cold execution would issue).
func (t *Tree) StartPageTrace() {
	t.trace.Store(storage.NewPageTrace())
}

// PageTraceCount reports the distinct pages touched since StartPageTrace
// and stops tracing.
func (t *Tree) PageTraceCount() int {
	tr := t.trace.Swap(nil)
	if tr == nil {
		return 0
	}
	return tr.Count()
}

// maxCachedNodes bounds the decoded-node cache.
const maxCachedNodes = 1 << 16

// invalidate drops a node from the decoded-node cache.
func (t *Tree) invalidate(pid storage.PageID) {
	t.cache.Drop(pid)
}

// readNodeRO serves read-only visits from the decoded-node cache. The
// result must not be mutated: it may be shared with concurrent readers.
func (t *Tree) readNodeRO(pid storage.PageID) (*node, error) {
	if tr := t.trace.Load(); tr != nil {
		tr.Visit(pid)
	}
	if n, ok := t.cache.Get(pid); ok {
		return n, nil
	}
	n, err := t.readNode(pid)
	if err != nil {
		return nil, err
	}
	t.cache.Put(pid, n)
	return n, nil
}

func (t *Tree) writeNode(pid storage.PageID, n *node) error {
	t.invalidate(pid)
	if n.encodedSize() > t.nodeCap() {
		return fmt.Errorf("btree: node of %d bytes exceeds page size", n.encodedSize())
	}
	p, err := t.bp.Fetch(pid)
	if err != nil {
		return err
	}
	n.encode(storage.PageBody(p.Data))
	t.bp.Unpin(p, true)
	return nil
}

func (t *Tree) allocNode(n *node) (storage.PageID, error) {
	p, err := t.bp.NewPage()
	if err != nil {
		return storage.InvalidPageID, err
	}
	n.encode(storage.PageBody(p.Data))
	t.bp.Unpin(p, true)
	return p.ID, nil
}

// lowerBound returns the first entry index with key >= k.
func lowerBound(entries []entry, k []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].key, k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first entry index with key > k.
func upperBound(entries []entry, k []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].key, k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the child page covering key k in inner node n, using
// upper-bound separators (keys equal to a separator live to its right),
// plus the child's entry index (-1 for the leftmost child). The index is
// what lets a split insert its new sibling pointer at the right position
// even among runs of equal separators.
func childFor(n *node, k []byte) (storage.PageID, int) {
	i := upperBound(n.entries, k)
	if i == 0 {
		return n.child0, -1
	}
	return n.entries[i-1].child, i - 1
}

// childForLeftmost returns the child that can hold the FIRST occurrence
// of k (equal keys may straddle a separator after splits of duplicate
// runs).
func childForLeftmost(n *node, k []byte) storage.PageID {
	i := lowerBound(n.entries, k)
	if i == 0 {
		return n.child0
	}
	return n.entries[i-1].child
}

// Insert adds one (key, rid) pair.
func (t *Tree) Insert(key []byte, rid heap.RID) error {
	if len(key)+32 > t.bp.DM().PageSize()/4 {
		return fmt.Errorf("btree: key of %d bytes too large", len(key))
	}
	if t.root == storage.InvalidPageID {
		leaf := &node{leaf: true, next: storage.InvalidPageID,
			entries: []entry{{key: append([]byte(nil), key...), rid: rid}}}
		pid, err := t.allocNode(leaf)
		if err != nil {
			return err
		}
		t.root = pid
		t.height = 1
		t.count++
		return t.saveMeta()
	}
	// Fast path: splice the entry directly into the leaf page bytes, the
	// way PostgreSQL shifts item pointers in place. Only inserts that
	// would overflow the leaf fall back to the decode/split path.
	if ok, err := t.insertFast(key, rid); err != nil {
		return err
	} else if ok {
		t.count++
		return nil
	}
	sep, right, err := t.insertAt(t.root, key, rid)
	if err != nil {
		return err
	}
	if right != storage.InvalidPageID {
		// Root split: grow a new root.
		newRoot := &node{child0: t.root, entries: []entry{{key: sep, child: right}}}
		pid, err := t.allocNode(newRoot)
		if err != nil {
			return err
		}
		t.root = pid
		t.height++
		t.count++
		return t.saveMeta()
	}
	t.count++
	return nil
}

// Pair is one (key, RID) input of InsertBatch.
type Pair struct {
	Key []byte
	RID heap.RID
}

// InsertBatch adds many pairs as one grouped operation. The pairs are
// sorted first, then inserted in key order with a leaf-run fast path:
// one descent pins the target leaf and splices every following key that
// provably belongs to the same leaf — strictly below the leaf's current
// last key, or anything at all on the rightmost leaf — without
// re-descending or re-pinning per row. Keys that fall outside the run
// (or overflow the leaf) fall back to the ordinary split path. For the
// common bulk-load shape (many keys per leaf) this is one descent and
// one pin per leaf cluster instead of one per row.
func (t *Tree) InsertBatch(pairs []Pair) error {
	for _, p := range pairs {
		if len(p.Key)+32 > t.bp.DM().PageSize()/4 {
			return fmt.Errorf("btree: key of %d bytes too large", len(p.Key))
		}
	}
	sorted := append([]Pair(nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0 })
	i := 0
	for i < len(sorted) {
		if t.root == storage.InvalidPageID {
			if err := t.Insert(sorted[i].Key, sorted[i].RID); err != nil {
				return err
			}
			i++
			continue
		}
		n, err := t.spliceRun(sorted[i:])
		if err != nil {
			return err
		}
		if n == 0 {
			// The run's first key needs the split path; insert it alone
			// and resume the run from the next key.
			if err := t.Insert(sorted[i].Key, sorted[i].RID); err != nil {
				return err
			}
			n = 1
		}
		i += n
	}
	return nil
}

// spliceRun descends once to the leaf covering pairs[0].Key and splices
// as many consecutive (sorted) pairs into it as provably belong there
// and fit, returning how many were consumed (0 if the first key needs
// the split path).
func (t *Tree) spliceRun(pairs []Pair) (int, error) {
	pid := t.root
	for {
		n, err := t.readNodeRO(pid)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			break
		}
		pid, _ = childFor(n, pairs[0].Key)
	}
	p, err := t.bp.Fetch(pid)
	if err != nil {
		return 0, err
	}
	data := storage.PageBody(p.Data)
	if data[0] != kindLeaf {
		t.bp.Unpin(p, false)
		return 0, fmt.Errorf("btree: descent ended on non-leaf page %d", pid)
	}
	rightmost := storage.PageID(binary.LittleEndian.Uint32(data[3:])) == storage.InvalidPageID
	done := 0
	for _, pr := range pairs {
		cnt := int(binary.LittleEndian.Uint16(data[1:]))
		// One pass over the entry bytes: find the upper-bound insertion
		// offset, the end of the used region, and the leaf's last key.
		off := hdrSize
		insOff := -1
		var lastOff, lastLen int
		for i := 0; i < cnt; i++ {
			kl := int(binary.LittleEndian.Uint16(data[off:]))
			if insOff < 0 && bytes.Compare(data[off+2:off+2+kl], pr.Key) > 0 {
				insOff = off
			}
			lastOff, lastLen = off+2, kl
			off += 2 + kl + heap.RIDSize
		}
		end := off
		if done > 0 && cnt > 0 && !rightmost {
			// Only the first key of the run is placed here by descent;
			// later keys belong to this leaf only when strictly below
			// its current last key (equal keys may belong to the right
			// sibling under upper-bound separators).
			if bytes.Compare(pr.Key, data[lastOff:lastOff+lastLen]) >= 0 {
				break
			}
		}
		if insOff < 0 {
			insOff = end
		}
		esz := 2 + len(pr.Key) + heap.RIDSize
		if end+esz > len(data) {
			break // leaf full: the caller re-enters through the split path
		}
		copy(data[insOff+esz:end+esz], data[insOff:end])
		binary.LittleEndian.PutUint16(data[insOff:], uint16(len(pr.Key)))
		copy(data[insOff+2:], pr.Key)
		rb := pr.RID.Bytes()
		copy(data[insOff+2+len(pr.Key):], rb[:])
		binary.LittleEndian.PutUint16(data[1:], uint16(cnt+1))
		done++
	}
	if done > 0 {
		t.invalidate(pid)
		t.count += int64(done)
		t.bp.Unpin(p, true)
	} else {
		t.bp.Unpin(p, false)
	}
	return done, nil
}

// insertFast descends read-only to the target leaf and splices the new
// entry into the page bytes in place. It reports false (without side
// effects) when the leaf would overflow and the split path must run.
func (t *Tree) insertFast(key []byte, rid heap.RID) (bool, error) {
	pid := t.root
	for {
		n, err := t.readNodeRO(pid)
		if err != nil {
			return false, err
		}
		if n.leaf {
			break
		}
		pid, _ = childFor(n, key)
	}
	p, err := t.bp.Fetch(pid)
	if err != nil {
		return false, err
	}
	data := storage.PageBody(p.Data)
	if data[0] != kindLeaf {
		t.bp.Unpin(p, false)
		return false, fmt.Errorf("btree: descent ended on non-leaf page %d", pid)
	}
	cnt := int(binary.LittleEndian.Uint16(data[1:]))
	// One pass over the entry bytes: find the upper-bound insertion
	// offset and the end of the used region.
	off := hdrSize
	insOff := -1
	for i := 0; i < cnt; i++ {
		kl := int(binary.LittleEndian.Uint16(data[off:]))
		if insOff < 0 && bytes.Compare(data[off+2:off+2+kl], key) > 0 {
			insOff = off
		}
		off += 2 + kl + heap.RIDSize
	}
	end := off
	if insOff < 0 {
		insOff = end
	}
	esz := 2 + len(key) + heap.RIDSize
	if end+esz > len(data) {
		t.bp.Unpin(p, false)
		return false, nil // leaf full: take the split path
	}
	copy(data[insOff+esz:end+esz], data[insOff:end])
	binary.LittleEndian.PutUint16(data[insOff:], uint16(len(key)))
	copy(data[insOff+2:], key)
	rb := rid.Bytes()
	copy(data[insOff+2+len(key):], rb[:])
	binary.LittleEndian.PutUint16(data[1:], uint16(cnt+1))
	t.invalidate(pid)
	t.bp.Unpin(p, true)
	return true, nil
}

// insertAt descends recursively; on child split it returns the separator
// key and new right sibling for the caller to absorb.
func (t *Tree) insertAt(pid storage.PageID, key []byte, rid heap.RID) ([]byte, storage.PageID, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	if n.leaf {
		i := upperBound(n.entries, key)
		n.entries = append(n.entries, entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = entry{key: append([]byte(nil), key...), rid: rid}
		return t.writeSplit(pid, n)
	}
	child, ci := childFor(n, key)
	sep, right, err := t.insertAt(child, key, rid)
	if err != nil || right == storage.InvalidPageID {
		return nil, storage.InvalidPageID, err
	}
	// The new right sibling must sit directly after the child that split:
	// placing it merely by key would misorder subtrees inside a run of
	// equal separators and desynchronize them from the leaf chain.
	i := ci + 1
	n.entries = append(n.entries, entry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = entry{key: sep, child: right}
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

// descendLeftmost finds the leaf where the first occurrence of key could
// live.
func (t *Tree) descendLeftmost(key []byte) (storage.PageID, error) {
	pid := t.root
	for {
		n, err := t.readNodeRO(pid)
		if err != nil {
			return storage.InvalidPageID, err
		}
		if n.leaf {
			return pid, nil
		}
		pid = childForLeftmost(n, key)
	}
}

// Search calls emit for every pair with key exactly equal to key.
func (t *Tree) Search(key []byte, emit func(rid heap.RID) bool) error {
	return t.RangeScan(key, key, func(_ []byte, rid heap.RID) bool { return emit(rid) })
}

// RangeScan calls emit for every pair with lo <= key <= hi in key order.
// A nil hi means "to the end"; a nil lo starts at the smallest key.
func (t *Tree) RangeScan(lo, hi []byte, emit func(key []byte, rid heap.RID) bool) error {
	if t.root == storage.InvalidPageID {
		return nil
	}
	var pid storage.PageID
	var err error
	if lo == nil {
		pid = t.root
		for {
			n, err := t.readNodeRO(pid)
			if err != nil {
				return err
			}
			if n.leaf {
				break
			}
			pid = n.child0
		}
	} else if pid, err = t.descendLeftmost(lo); err != nil {
		return err
	}
	for pid != storage.InvalidPageID {
		n, err := t.readNodeRO(pid)
		if err != nil {
			return err
		}
		// Readahead along the leaf chain: ask the prefetcher for the next
		// leaf before processing this one, so a cold range scan overlaps
		// its key emission with the following page's disk read.
		if n.next != storage.InvalidPageID && t.bp.ReadaheadPages() > 0 {
			t.bp.Prefetch(n.next)
		}
		start := 0
		if lo != nil {
			start = lowerBound(n.entries, lo)
		}
		for _, e := range n.entries[start:] {
			if hi != nil && bytes.Compare(e.key, hi) > 0 {
				return nil
			}
			if !emit(e.key, e.rid) {
				return nil
			}
		}
		pid = n.next
	}
	return nil
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

// Delete removes pairs with the given key; with a valid rid only the
// matching pair is removed. It returns the number removed. Leaves are not
// rebalanced.
func (t *Tree) Delete(key []byte, rid heap.RID) (int, error) {
	if t.root == storage.InvalidPageID {
		return 0, nil
	}
	pid, err := t.descendLeftmost(key)
	if err != nil {
		return 0, err
	}
	removed := 0
	for pid != storage.InvalidPageID {
		n, err := t.readNode(pid)
		if err != nil {
			return removed, err
		}
		kept := n.entries[:0]
		done := false
		for _, e := range n.entries {
			cmp := bytes.Compare(e.key, key)
			if cmp > 0 {
				done = true
			}
			if cmp == 0 && (!rid.Valid() || e.rid == rid) {
				removed++
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) != len(n.entries) {
			n.entries = kept
			if err := t.writeNode(pid, n); err != nil {
				return removed, err
			}
		}
		if done {
			break
		}
		pid = n.next
	}
	t.count -= int64(removed)
	return removed, nil
}
