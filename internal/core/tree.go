package core

import (
	"fmt"

	"repro/internal/storage"
)

// Tree is one disk-based SP-GiST index: the generic internal methods bound
// to a concrete OpClass and a page file.
//
// Writers must be externally serialized (one mutator at a time), and no
// reader may run concurrently with a mutator; readers may run
// concurrently with each other (node views are immutable and published
// atomically, see nodeTable). The executor layer above
// enforces the reader/writer discipline with its shared/exclusive
// statement lock, mirroring how the paper delegates fine-grained
// concurrency control to the host DBMS.
type Tree struct {
	bp *storage.BufferPool
	oc OpClass
	pr Params

	root NodeRef

	// nodes holds the view of every node a read has visited since it was
	// last written; mutating paths decode private copies.
	nodes nodeTable

	// free holds the free bytes of every page for the clustering
	// allocator, and lists those with at least a quarter page free, so
	// space abandoned by relocations is found again.
	free *storage.FreeSpace
	// lastAlloc is the most recent page that received a node; new sibling
	// groups land there while it has room, keeping subtrees clustered.
	lastAlloc storage.PageID
}

// newFreeSpace returns the free-space map of an index over bp: a page is
// worth trying for a relocated node once a quarter of it is free.
func newFreeSpace(bp *storage.BufferPool) *storage.FreeSpace {
	return storage.NewFreeSpace(bp.DM().PageSize() / 4)
}

// Meta page: the magic, and the body storage frames on page 0 —
// [root page u32][root slot u16].
const (
	treeMagic    = 0x53504753 // "SPGS"
	metaBodySize = refSize
)

func (t *Tree) metaBody() (body [metaBodySize]byte) {
	putRef(body[0:], t.root)
	return body
}

// Create initializes a new empty index in an empty page file.
func Create(bp *storage.BufferPool, oc OpClass) (*Tree, error) {
	if oc.Params().BucketSize <= 0 {
		return nil, fmt.Errorf("spgist: opclass %s has non-positive BucketSize", oc.Name())
	}
	t := &Tree{
		bp:        bp,
		oc:        oc,
		pr:        oc.Params(),
		root:      InvalidRef,
		free:      newFreeSpace(bp),
		lastAlloc: storage.InvalidPageID,
	}
	body := t.metaBody()
	if err := bp.CreateMeta(treeMagic, body[:]); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing index file, rebuilding the free-space map
// and the node table's page cover from one pass over its pages.
func Open(bp *storage.BufferPool, oc OpClass) (*Tree, error) {
	var body [metaBodySize]byte
	if err := bp.ReadMeta(treeMagic, body[:]); err != nil {
		return nil, err
	}
	t := &Tree{
		bp:        bp,
		oc:        oc,
		pr:        oc.Params(),
		root:      getRef(body[0:]),
		free:      newFreeSpace(bp),
		lastAlloc: storage.InvalidPageID,
	}
	n := bp.DM().NumPages()
	for pid := storage.PageID(1); uint32(pid) < n; pid++ {
		p, err := bp.Fetch(pid)
		if storage.IsPageCorrupt(err) {
			// One damaged page does not keep the index — and the database
			// over it — from opening: the page stays out of the free-space
			// map, so nothing new is placed on it, a descent that reaches it
			// fails with this error, and SCRUB names it.
			continue
		}
		if err != nil {
			return nil, err
		}
		t.free.Set(pid, storage.SlotFreeSpace(p.Data))
		t.nodes.cover(pid, storage.SlotCount(p.Data))
		bp.Unpin(p, false)
	}
	return t, nil
}

// OpClass returns the opclass the tree was built with.
func (t *Tree) OpClass() OpClass { return t.oc }

// Pool returns the underlying buffer pool (statistics, flushing).
func (t *Tree) Pool() *storage.BufferPool { return t.bp }

// NumPages returns the number of pages of the index file, including the
// metadata page.
func (t *Tree) NumPages() uint32 { return t.bp.DM().NumPages() }

// saveMeta writes the root reference into the meta page, dirtying it (and
// so logging the change with the next record group) only when it changed.
// The root reference is saved where it moves: a record group that holds
// the moved root always holds the pointer to it.
func (t *Tree) saveMeta() error {
	body := t.metaBody()
	return t.bp.WriteMeta(body[:])
}

// setRoot moves the root reference and saves it at once.
func (t *Tree) setRoot(ref NodeRef) error {
	t.root = ref
	return t.saveMeta()
}

// record pins ref's page and returns the node record in it; the caller
// unpins p.
func (t *Tree) record(ref NodeRef) (p *storage.Page, rec []byte, err error) {
	if p, err = t.bp.Fetch(ref.Page); err != nil {
		return nil, nil, err
	}
	if rec = storage.SlotRead(p.Data, int(ref.Slot)); rec == nil {
		t.bp.Unpin(p, false)
		return nil, nil, fmt.Errorf("spgist: dangling node reference %v", ref)
	}
	return p, rec, nil
}

// readNode loads and decodes the node at ref. The returned node is a
// private copy the caller may mutate.
func (t *Tree) readNode(ref NodeRef) (*node, error) {
	p, rec, err := t.record(ref)
	if err != nil {
		return nil, err
	}
	defer t.bp.Unpin(p, false)
	return decodeNode(rec)
}

// view returns the node at ref for reading, out of the node table or — a
// miss — copied from its page and published for the reads that follow.
func (t *Tree) view(ref NodeRef) (*nodeView, error) {
	v, _, _, err := t.read(ref, false)
	return v, err
}

// read is the one node read of searches and of the insertion descent. With
// leafInPlace, the insertion's form, a data node comes back not as a view
// but as its record inside the pinned page p: the insertion works on it
// where it lies (insertIntoLeaf), so the leaf the previous insertion just
// rewrote is neither copied nor published again, and the caller owns the pin.
func (t *Tree) read(ref NodeRef, leafInPlace bool) (v *nodeView, p *storage.Page, rec []byte, err error) {
	slot := t.nodes.at(ref)
	if slot != nil {
		if v = slot.Load(); v != nil && !(leafInPlace && v.leaf) {
			// Served without a fetch: still a visit of the page.
			t.bp.TracePage(ref.Page)
			return v, nil, nil, nil
		}
	}
	if p, rec, err = t.record(ref); err != nil {
		return nil, nil, nil, err
	}
	if leafInPlace && len(rec) > 0 && rec[0] == nodeKindLeaf {
		return nil, p, rec, nil
	}
	v, err = newView(rec)
	t.bp.Unpin(p, false)
	if err == nil && slot != nil {
		slot.Store(v)
	}
	return v, nil, nil, err
}

// invalidate drops a node's view; every write of a node record calls it.
func (t *Tree) invalidate(ref NodeRef) {
	if slot := t.nodes.at(ref); slot != nil {
		slot.Store(nil)
	}
}

// allocNode places an encoded node record using the clustering policy:
// first the preferred page (normally the parent's), then the most recent
// allocation page, then a fresh page. It returns the new node's address.
//
// This is the greedy realization of the paper's node-packing goal
// (section 3, "Clustering"; Diwan et al.): children stay on their parent's
// page while it has room, and sibling groups that overflow are placed
// together on one page, which keeps the page-height of the tree low
// (Figure 12) at some cost in page utilization (Figures 10/14).
func (t *Tree) allocNode(prefer storage.PageID, rec []byte) (NodeRef, error) {
	try := func(pid storage.PageID) (NodeRef, bool, error) {
		if pid == storage.InvalidPageID || pid == 0 {
			return InvalidRef, false, nil
		}
		if free, ok := t.free.Free(pid); ok && free < len(rec) {
			return InvalidRef, false, nil
		}
		p, err := t.bp.Fetch(pid)
		if err != nil {
			return InvalidRef, false, err
		}
		dir := storage.SlotDirCost(p.Data)
		slot, ok := storage.SlotInsert(p.Data, rec)
		if !ok {
			t.free.Set(pid, storage.SlotFreeSpace(p.Data))
			t.bp.Unpin(p, false)
			return InvalidRef, false, nil
		}
		t.free.Note(p, dir, len(rec))
		t.nodes.cover(pid, slot+1)
		t.bp.UnpinPut(p, slot, rec)
		return NodeRef{Page: pid, Slot: uint16(slot)}, true, nil
	}
	if ref, ok, err := try(prefer); err != nil || ok {
		return ref, err
	}
	if t.lastAlloc != prefer {
		if ref, ok, err := try(t.lastAlloc); err != nil || ok {
			return ref, err
		}
	}
	// Reclaim space abandoned by relocations: the listed page with the
	// lowest id that has room, so that equal insertion sequences build
	// equal files. Only pages with at least a quarter page free are
	// listed, so a typical node fits on the first candidate.
	for tried := storage.PageID(0); ; {
		pick := t.free.Lowest(len(rec), tried, prefer, t.lastAlloc)
		if pick == storage.InvalidPageID {
			break
		}
		if ref, ok, err := try(pick); err != nil || ok {
			return ref, err
		}
		tried = pick
	}
	p, err := t.bp.NewPage()
	if err != nil {
		return InvalidRef, err
	}
	storage.SlotInit(p.Data)
	slot, ok := storage.SlotInsert(p.Data, rec)
	if !ok {
		t.bp.Unpin(p, false)
		return InvalidRef, fmt.Errorf("spgist: node of %d bytes does not fit an empty page", len(rec))
	}
	t.free.Set(p.ID, storage.SlotFreeSpace(p.Data))
	t.nodes.cover(p.ID, slot+1)
	t.lastAlloc = p.ID
	ref := NodeRef{Page: p.ID, Slot: uint16(slot)}
	t.bp.UnpinPut(p, slot, rec)
	return ref, nil
}

// parentLink tells writeNode how to fix the pointer to a node that had to
// move to another page. A nil parentLink means the node is the root.
type parentLink struct {
	ref   NodeRef // the parent inner node
	entry int     // index of the entry pointing to the child
}

// writeNode stores n at ref, relocating it (and patching the parent's
// child pointer or the root pointer) when the record no longer fits its
// page. It returns the node's possibly-new address.
func (t *Tree) writeNode(ref NodeRef, n *node, parent *parentLink) (NodeRef, error) {
	p, err := t.bp.Fetch(ref.Page)
	if err != nil {
		return InvalidRef, err
	}
	return t.writeRecord(p, ref, n.encode(), parent)
}

// writeRecord is writeNode for an encoded node and the already pinned page
// of ref; it consumes the pin.
func (t *Tree) writeRecord(p *storage.Page, ref NodeRef, rec []byte, parent *parentLink) (NodeRef, error) {
	t.invalidate(ref)
	oldLen := len(storage.SlotRead(p.Data, int(ref.Slot)))
	dir := storage.SlotDirCost(p.Data)
	if t.bp.UpdateSlot(p, int(ref.Slot), rec) {
		t.free.Note(p, dir, len(rec)-oldLen)
		t.bp.UnpinUpdate(p, int(ref.Slot), rec)
		return ref, nil
	}
	// Relocate: drop the old copy, place the record elsewhere, fix the
	// incoming pointer. Prefer the parent's page so root-to-leaf paths
	// keep crossing as few pages as possible.
	storage.SlotDelete(p.Data, int(ref.Slot))
	t.free.Note(p, dir, -oldLen)
	t.bp.UnpinDelete(p, int(ref.Slot))
	prefer := ref.Page
	if parent != nil {
		prefer = parent.ref.Page
	}
	newRef, err := t.allocNode(prefer, rec)
	if err != nil {
		return InvalidRef, err
	}
	if parent == nil {
		if t.root != ref {
			return InvalidRef, fmt.Errorf("spgist: relocating non-root node %v without parent link", ref)
		}
		return newRef, t.setRoot(newRef)
	}
	pn, err := t.readNode(parent.ref)
	if err != nil {
		return InvalidRef, err
	}
	if parent.entry >= len(pn.entries) {
		return InvalidRef, fmt.Errorf("spgist: parent link entry %d out of range", parent.entry)
	}
	pn.entries[parent.entry].child = newRef
	t.invalidate(parent.ref)
	// The parent record keeps its exact size (child refs are fixed
	// width), so this update always succeeds in place.
	pp, err := t.bp.Fetch(parent.ref.Page)
	if err != nil {
		return InvalidRef, err
	}
	prec := pn.encode()
	if !t.bp.UpdateSlot(pp, int(parent.ref.Slot), prec) {
		t.bp.Unpin(pp, false)
		return InvalidRef, fmt.Errorf("spgist: same-size parent update failed at %v", parent.ref)
	}
	t.bp.UnpinUpdate(pp, int(parent.ref.Slot), prec)
	return newRef, nil
}

// maxNodeSize is the largest node record one page can hold.
func (t *Tree) maxNodeSize() int {
	return storage.SlotCapacity(t.bp.DM().PageSize())
}

// readLeafChain collects the items of a data node and all its overflow
// records, returning the overflow references (the head's items come
// first).
func (t *Tree) readLeafChain(head *node) ([]item, []NodeRef, error) {
	items := append([]item(nil), head.items...)
	var chain []NodeRef
	next := head.next
	for next.Valid() {
		chain = append(chain, next)
		n, err := t.readNode(next)
		if err != nil {
			return nil, nil, err
		}
		if !n.leaf {
			return nil, nil, fmt.Errorf("spgist: overflow chain reaches inner node %v", next)
		}
		items = append(items, n.items...)
		next = n.next
	}
	return items, chain, nil
}

// chunkItems groups items into runs that each fit one node record.
func (t *Tree) chunkItems(items []item) ([][]item, error) {
	maxSz := t.maxNodeSize()
	base := leafHeaderSize
	var groups [][]item
	cur := []item{}
	curSz := base
	for _, it := range items {
		isz := leafItemExtra + len(it.key)
		if base+isz > maxSz {
			return nil, fmt.Errorf("spgist: key of %d bytes exceeds page capacity", len(it.key))
		}
		if curSz+isz > maxSz {
			groups = append(groups, cur)
			cur = []item{}
			curSz = base
		}
		cur = append(cur, it)
		curSz += isz
	}
	groups = append(groups, cur)
	return groups, nil
}

// writeLeafChain stores items as the data node at ref plus however many
// overflow records they need, releasing surplus records of the node's old
// chain.
func (t *Tree) writeLeafChain(ref NodeRef, parent *parentLink, items []item, oldChain []NodeRef) error {
	for _, cr := range oldChain {
		if err := t.deleteNode(cr); err != nil {
			return err
		}
	}
	groups, err := t.chunkItems(items)
	if err != nil {
		return err
	}
	next := InvalidRef
	for i := len(groups) - 1; i >= 1; i-- {
		n := &node{leaf: true, items: groups[i], next: next}
		r, err := t.allocNode(ref.Page, n.encode())
		if err != nil {
			return err
		}
		next = r
	}
	head := &node{leaf: true, items: groups[0], next: next}
	_, err = t.writeNode(ref, head, parent)
	return err
}

// allocLeafChain creates a fresh data node (plus overflow records when
// items exceed one page record) and returns the head reference and the
// overflow references.
func (t *Tree) allocLeafChain(prefer storage.PageID, items []item) (NodeRef, []NodeRef, error) {
	groups, err := t.chunkItems(items)
	if err != nil {
		return InvalidRef, nil, err
	}
	next := InvalidRef
	var chain []NodeRef
	for i := len(groups) - 1; i >= 1; i-- {
		n := &node{leaf: true, items: groups[i], next: next}
		r, err := t.allocNode(prefer, n.encode())
		if err != nil {
			return InvalidRef, nil, err
		}
		chain = append([]NodeRef{r}, chain...)
		next = r
	}
	head := &node{leaf: true, items: groups[0], next: next}
	ref, err := t.allocNode(prefer, head.encode())
	if err != nil {
		return InvalidRef, nil, err
	}
	return ref, chain, nil
}

// deleteNode removes the record of a node (used when restructuring).
func (t *Tree) deleteNode(ref NodeRef) error {
	t.invalidate(ref)
	p, err := t.bp.Fetch(ref.Page)
	if err != nil {
		return err
	}
	oldLen := len(storage.SlotRead(p.Data, int(ref.Slot)))
	dir := storage.SlotDirCost(p.Data)
	storage.SlotDelete(p.Data, int(ref.Slot))
	t.free.Note(p, dir, -oldLen)
	t.bp.UnpinDelete(p, int(ref.Slot))
	return nil
}
