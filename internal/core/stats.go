package core

// TreeStats summarizes the shape and footprint of an index. The paper's
// Figures 10–12 and 14 report exactly these quantities: index size, the
// maximum tree height counted in nodes (an unbalanced space-partitioning
// tree can be tall), and the maximum height counted in pages (which the
// clustering keeps close to a B+-tree's).
type TreeStats struct {
	InnerNodes int
	LeafNodes  int
	LeafItems  int // stored items; a MultiAssign key is one in every cell it crosses
	// MaxNodeHeight is the maximum number of tree nodes on a
	// root-to-leaf path.
	MaxNodeHeight int
	// MaxPageHeight is the maximum number of distinct disk pages on a
	// root-to-leaf path — the number of page I/Os a cold point lookup
	// costs, and the quantity the clustering technique minimizes.
	MaxPageHeight int
	Pages         uint32 // allocated pages, including metadata
	SizeBytes     int64  // on-disk size
}

// Stats walks the tree and computes TreeStats.
func (t *Tree) Stats() (TreeStats, error) {
	st := TreeStats{
		Pages:     t.NumPages(),
		SizeBytes: t.bp.SizeBytes(),
	}
	err := t.walk(func(_ NodeRef, v *nodeView, level, pageDepth int) bool {
		if v.leaf {
			st.LeafNodes++
			st.LeafItems += v.n
		} else {
			st.InnerNodes++
		}
		if level > st.MaxNodeHeight {
			st.MaxNodeHeight = level
		}
		if pageDepth > st.MaxPageHeight {
			st.MaxPageHeight = pageDepth
		}
		return true
	})
	return st, err
}
