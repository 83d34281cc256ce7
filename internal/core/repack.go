package core

import (
	"fmt"

	"repro/internal/storage"
)

// Repack rewrites the index into a fresh page file with node-to-page
// clustering close to the minimum-page-height packing of Diwan et al. —
// the clustering the paper's SP-GiST core guarantees (section 3.1). The
// insert path maintains locality greedily; Repack is the offline
// counterpart (PostgreSQL's CLUSTER): starting from each subtree root it
// packs nodes breadth-first into the current page until the page is
// full, and every node that does not fit becomes the root of its own
// page group. Root-to-leaf paths therefore cross roughly
// depth/levels-per-page pages.
//
// The returned tree lives in bp, which must be empty; the receiver is
// left untouched.
func (t *Tree) Repack(bp *storage.BufferPool) (*Tree, error) {
	if bp.DM().NumPages() != 0 {
		return nil, fmt.Errorf("spgist: repack into non-empty file")
	}
	if bp.DM().PageSize() != t.bp.DM().PageSize() {
		return nil, fmt.Errorf("spgist: repack must keep the page size")
	}
	nt, err := Create(bp, t.oc)
	if err != nil {
		return nil, err
	}
	if !t.root.Valid() {
		return nt, nil
	}

	// Load the whole tree structure. (Repacking is an offline, bulk
	// operation; the paper's experiments repack implicitly because their
	// clustering maintains minimum page height at all times.)
	type info struct {
		n    *node
		size int
	}
	nodes := make(map[NodeRef]*info)
	var collect func(ref NodeRef) error
	collect = func(ref NodeRef) error {
		if _, seen := nodes[ref]; seen {
			return nil
		}
		n, err := t.readNode(ref)
		if err != nil {
			return err
		}
		nodes[ref] = &info{n: n, size: n.encodedSize()}
		if n.leaf {
			if n.next.Valid() {
				return collect(n.next)
			}
			return nil
		}
		for _, e := range n.entries {
			if e.child.Valid() {
				if err := collect(e.child); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := collect(t.root); err != nil {
		return nil, err
	}

	// Group nodes into pages: BFS with capacity from each group root.
	const slotOverhead = storage.SlotEntrySize
	capacity := storage.SlotUsable(bp.DM().PageSize())
	type group struct{ refs []NodeRef }
	var groups []group
	assigned := make(map[NodeRef]bool, len(nodes))
	groupRoots := []NodeRef{t.root}
	for len(groupRoots) > 0 {
		root := groupRoots[0]
		groupRoots = groupRoots[1:]
		if assigned[root] {
			continue
		}
		g := group{}
		free := capacity
		frontier := []NodeRef{root}
		for len(frontier) > 0 {
			ref := frontier[0]
			frontier = frontier[1:]
			if assigned[ref] {
				continue
			}
			inf := nodes[ref]
			need := inf.size + slotOverhead
			if need > free {
				if len(g.refs) == 0 {
					// A lone node exceeding an empty page cannot exist
					// (maxNodeSize caps encodings); requeueing it would
					// loop forever, so fail loudly instead.
					return nil, fmt.Errorf("spgist: repack node of %d bytes exceeds page capacity %d", inf.size, capacity)
				}
				// Too big for this page: the node roots its own group.
				groupRoots = append(groupRoots, ref)
				continue
			}
			free -= need
			assigned[ref] = true
			g.refs = append(g.refs, ref)
			if inf.n.leaf {
				if inf.n.next.Valid() {
					frontier = append(frontier, inf.n.next)
				}
				continue
			}
			for _, e := range inf.n.entries {
				if e.child.Valid() {
					frontier = append(frontier, e.child)
				}
			}
		}
		if len(g.refs) > 0 {
			groups = append(groups, g)
		}
	}

	// A cluster only pins its nodes to ONE page; several clusters can
	// share a page without hurting page height. Bin-pack clusters into
	// pages first-fit in BFS order (which keeps related clusters on
	// nearby pages), so utilization does not regress.
	type pageBin struct {
		free     int
		clusters []int
	}
	var bins []pageBin
	clusterSize := func(g group) int {
		sz := 0
		for _, ref := range g.refs {
			sz += nodes[ref].size + slotOverhead
		}
		return sz
	}
	for gi := range groups {
		sz := clusterSize(groups[gi])
		placed := false
		for bi := range bins {
			if bins[bi].free >= sz {
				bins[bi].free -= sz
				bins[bi].clusters = append(bins[bi].clusters, gi)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, pageBin{free: capacity - sz, clusters: []int{gi}})
		}
	}

	// Assign new addresses: bin i occupies page 1+i; slots sequential in
	// cluster order within the page.
	remap := make(map[NodeRef]NodeRef, len(nodes))
	pageRefs := make([][]NodeRef, len(bins))
	for bi, bin := range bins {
		for _, gi := range bin.clusters {
			pageRefs[bi] = append(pageRefs[bi], groups[gi].refs...)
		}
		for si, ref := range pageRefs[bi] {
			remap[ref] = NodeRef{Page: storage.PageID(1 + bi), Slot: uint16(si)}
		}
	}

	// Write the pages out with remapped child pointers.
	for bi := range bins {
		p, err := bp.NewPage()
		if err != nil {
			return nil, err
		}
		if p.ID != storage.PageID(1+bi) {
			bp.Unpin(p, false)
			return nil, fmt.Errorf("spgist: repack page allocation out of order")
		}
		storage.SlotInit(p.Data)
		for si, ref := range pageRefs[bi] {
			n := nodes[ref].n
			cp := &node{leaf: n.leaf, pred: n.pred}
			if n.leaf {
				cp.items = n.items
				cp.next = InvalidRef
				if n.next.Valid() {
					cp.next = remap[n.next]
				}
			} else {
				cp.entries = make([]entry, len(n.entries))
				for i, e := range n.entries {
					cp.entries[i] = entry{label: e.label, child: InvalidRef}
					if e.child.Valid() {
						cp.entries[i].child = remap[e.child]
					}
				}
			}
			slot, ok := storage.SlotInsert(p.Data, cp.encode())
			if !ok || slot != si {
				bp.Unpin(p, false)
				return nil, fmt.Errorf("spgist: repack slot assignment failed (page %d slot %d)", p.ID, si)
			}
		}
		nt.free.Set(p.ID, storage.SlotFreeSpace(p.Data))
		nt.nodes.cover(p.ID, len(pageRefs[bi]))
		bp.Unpin(p, true)
	}
	nt.root = remap[t.root]
	return nt, nt.saveMeta()
}
