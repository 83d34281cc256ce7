// Package core implements SP-GiST: an extensible indexing framework for
// disk-based space-partitioning trees, after Aref & Ilyas and the ICDE
// 2006 PostgreSQL realization by Eltabakh, Eltarras & Aref.
//
// The framework supplies the *internal methods* shared by every
// space-partitioning tree — Insert, Scan (search), BulkDelete (VACUUM's one
// page-order pass over the index file) and the incremental nearest-neighbor
// search of the paper's section 5 — plus the node-to-page clustering that
// packs many small tree nodes into disk pages. A concrete index (trie,
// kd-tree, point quadtree, PMR quadtree, suffix tree, ...) is obtained by
// supplying the *external methods* of the OpClass interface and the
// interface parameters of Params, exactly the extension points Table 1 of
// the paper describes.
package core

// Value is an opclass-typed datum: a key, a node predicate, a partition
// label, a query operand or a reconstructed traversal value. The framework
// never inspects Values; it moves them between the opclass callbacks and
// serializes them with the opclass codecs.
//
// What the index stores — predicates, labels, the keys of data nodes —
// reaches the methods a read calls (Choose, InnerConsistent, LeafConsistent,
// NNInner, NNRecon, NNLeaf) as the encoded bytes, where the node's record
// holds them, so nothing is decoded or allocated to look at one. A method
// must not change those bytes or keep them past the call, and must survive
// bytes no Encode* wrote (a damaged file) without panicking — any answer
// will do. Values remain the currency of what builds nodes: the key being
// inserted, PickSplit, ChooseOut. The NN search's traversal values are
// bytes as well (see NNOpClass).
type Value = any

// Query is a search predicate handed to Scan. Op is an opclass-defined
// operator name (for example "=", "#=", "?=", "@", "^", "&&", "@="); Arg
// is its right-hand operand. A nil *Query means "match everything".
type Query struct {
	Op  string
	Arg Value
}

// PathShrink controls how chains of single-child nodes collapse,
// mirroring Figure 1 of the paper.
type PathShrink int

const (
	// NeverShrink keeps one tree level per decomposition step.
	NeverShrink PathShrink = iota
	// LeafShrink collapses single-child chains at the leaf level only.
	LeafShrink
	// TreeShrink collapses single-child chains anywhere (patricia trie).
	TreeShrink
)

func (p PathShrink) String() string {
	switch p {
	case NeverShrink:
		return "NeverShrink"
	case LeafShrink:
		return "LeafShrink"
	case TreeShrink:
		return "TreeShrink"
	default:
		return "PathShrink(?)"
	}
}

// Params are the SP-GiST interface parameters (paper section 3.1) that
// tailor the generic index into one member of the space-partitioning
// class.
type Params struct {
	// NumPartitions is the number of disjoint partitions produced by each
	// space decomposition (quadtree 4, kd-tree 2, trie 27, ...). It is
	// informational: PickSplit decides the actual fanout.
	NumPartitions int
	// PathShrink selects the tree-shrinking mode.
	PathShrink PathShrink
	// NodeShrink, when true, omits empty partitions from inner nodes
	// (Figure 2(b)); when false every partition keeps an entry even while
	// it has no child.
	NodeShrink bool
	// BucketSize is the maximum number of data items a data (leaf) node
	// holds before PickSplit is invoked.
	BucketSize int
	// Resolution bounds the number of space decompositions along any
	// root-to-leaf path; once a data node sits at level >= Resolution it
	// grows instead of splitting. Zero means unlimited.
	Resolution int
	// SplitOnce, when true, applies the PMR-quadtree splitting rule: the
	// data node that triggered the split is decomposed exactly once per
	// insertion, and over-full children wait for future insertions.
	SplitOnce bool
	// MultiAssign declares that PickSplit and Choose may route one key
	// into several partitions (PMR quadtree: a segment belongs to every
	// quadrant it crosses). Scans then deduplicate results by RID.
	MultiAssign bool
	// DedupScan forces RID deduplication during scans even without
	// MultiAssign. The suffix tree needs it: one heap row contributes one
	// key per suffix, and several suffixes can satisfy one query.
	DedupScan bool
}

// ChooseAction tells Insert what to do at an inner node.
type ChooseAction int

const (
	// MatchNode descends into one (or, with MultiAssign, several) of the
	// existing partitions.
	MatchNode ChooseAction = iota
	// AddNode adds a new labeled partition to this inner node and retries
	// (NodeShrink trees grow their fanout lazily).
	AddNode
	// SplitNode splits this node's predicate because the new key
	// disagrees with it part-way (patricia-trie prefix conflict,
	// Figure 1(c) restructuring). The node P with predicate pred becomes
	// an upper node with UpperPred and a single partition UpperLabel
	// pointing to a lower node holding LowerPred and P's entries; Insert
	// then retries at the upper node.
	SplitNode
)

// ChooseIn is the input of OpClass.Choose. The insertion descent owns it:
// one ChooseIn serves a whole descent and is refilled per node, so the
// opclass must not keep the pointer, Pred, Labels or Matches past the call.
type ChooseIn struct {
	Key    Value  // key being inserted
	Level  int    // decomposition level of the node
	Pred   []byte // encoded node predicate (empty when the opclass stores none)
	Labels Labels // encoded partition labels in entry order
	Recon  Value  // reconstructed traversal value at this node
	// Matches is the descent's buffer for ChooseOut.Matches, handed over
	// empty with room for one match: an opclass that appends its matches
	// to it and returns the result allocates nothing for them.
	Matches []ChooseMatch
}

// ChooseMatch is one descent target selected by Choose.
//
// Recon is the child's traversal value, what ChooseIn.Recon holds one
// level down. Like InnerFollow.Recon, an opclass sets it only if its own
// Choose or PickSplit reads ChooseIn.Recon / PickSplitIn.Recon (the PMR
// quadtree's cell); one that navigates by level, predicate and labels
// alone (trie, kd-tree, point quadtree) leaves it nil.
type ChooseMatch struct {
	Entry    int   // index into ChooseIn.Labels
	LevelAdd int   // level increase for the child
	Recon    Value // reconstructed value for the child
}

// ChooseOut is the output of OpClass.Choose.
type ChooseOut struct {
	Action ChooseAction

	// MatchNode: the partitions to descend into (exactly one unless
	// Params.MultiAssign).
	Matches []ChooseMatch

	// AddNode: label of the new partition.
	NewLabel Value

	// SplitNode: see ChooseAction.
	UpperPred  Value
	UpperLabel Value
	LowerPred  Value
}

// PickSplitIn is the input of OpClass.PickSplit: the keys of an over-full
// data node (including the one being inserted).
type PickSplitIn struct {
	Keys  []Value
	Level int
	Recon Value
}

// PickSplitOut describes the decomposition of an over-full data node into
// an inner node with partitions.
type PickSplitOut struct {
	// Failed reports that the keys cannot be distinguished any further
	// (all equal, or past the resolution the opclass supports); the
	// framework then keeps them in one oversized data node.
	Failed bool

	Pred      Value   // predicate of the new inner node (nil ok)
	Labels    []Value // partition labels
	Mapping   [][]int // Mapping[i] = partitions receiving Keys[i] (each non-empty; len>1 only with MultiAssign)
	LevelAdds []int   // per-label level increase for each partition
	Recons    []Value // per-label reconstructed values (nil when the opclass reads none, see ChooseMatch)
}

// InnerIn is the input of OpClass.InnerConsistent for one inner node met
// during a search. The search driver owns it: one InnerIn serves a whole
// scan and is refilled per node, so the opclass must not keep the pointer,
// Pred or Labels past the call.
type InnerIn struct {
	Query  *Query // nil means full scan: follow everything
	Level  int
	Pred   []byte // encoded node predicate (empty when the opclass stores none)
	Labels Labels // encoded partition labels in entry order
	Recon  Value  // this node's traversal value, as its parent's Follow gave it
}

// InnerFollow is one child a search should visit.
//
// Recon is the child's traversal value. An opclass sets it only if its
// own InnerConsistent reads InnerIn.Recon (the PMR quadtree, whose cells
// exist nowhere but on the path); an opclass that navigates by level,
// predicate and labels alone (trie, kd-tree, point quadtree) leaves it
// nil and the search carries no traversal value at all. Insertion follows
// the same rule through ChooseMatch.Recon; the NN search derives its own
// (NNRecon).
type InnerFollow struct {
	Entry    int
	LevelAdd int
	Recon    Value
}

// InnerOut lists the children consistent with the query. Follow is the
// search driver's buffer, handed over empty: the opclass appends one
// InnerFollow per child to visit and must not retain the slice.
type InnerOut struct {
	Follow []InnerFollow
}

// OpClass bundles the external methods and codecs of one SP-GiST index
// type. Implementations must be stateless with respect to the tree: the
// framework may call the methods in any order and caches nothing between
// calls.
type OpClass interface {
	// Name identifies the opclass (catalog display, file naming).
	Name() string
	// Params returns the interface parameters of the instantiation.
	Params() Params
	// RootRecon is the reconstructed traversal value at the root for
	// insertion and search (the world cell for the PMR quadtree, nil when
	// unused). The NN search has its own, as bytes
	// (NNOpClass.NNRootRecon).
	RootRecon() Value

	// Codecs. The encoded forms are what is stored on disk and what the
	// read-side methods below receive; the framework decodes only keys, for
	// PickSplit, for Choose's Key and for callers of Tree.NN.
	EncodeKey(Value) []byte
	DecodeKey([]byte) Value
	EncodePred(Value) []byte
	EncodeLabel(Value) []byte

	// Choose directs the insertion descent at an inner node.
	Choose(in *ChooseIn) ChooseOut
	// PickSplit decomposes the keys of an over-full data node.
	PickSplit(in *PickSplitIn) PickSplitOut
	// InnerConsistent selects the children to visit during a search by
	// appending them to out.Follow (see InnerIn and InnerOut for who owns
	// what).
	InnerConsistent(in *InnerIn, out *InnerOut)
	// LeafConsistent decides whether a stored key, as encoded, satisfies
	// the query.
	LeafConsistent(q *Query, key []byte, level int) bool
}

// BatchOrderer is implemented by opclasses whose trees take their shape
// from the order keys arrive in. Tree.InsertBatch inserts keys[order[i]]
// for i = 0, 1, … after OrderBatch has permuted order (0 … len(keys)-1 on
// entry), which must depend on the keys alone: equal batches, equal files.
type BatchOrderer interface {
	OpClass
	OrderBatch(keys []Value, order []int)
}

// NNOpClass is implemented by opclasses that support the incremental
// nearest-neighbor search of the paper's section 5. Distances must be
// lower bounds that never decrease along a root-to-leaf path, which is
// what makes the best-first traversal correct.
//
// The paper's NN_Consistent comes in two halves, because the search
// enqueues every child of a node it expands but dequeues only the few
// that can still beat the current candidates: NNInner runs per enqueued
// child and must stay cheap, NNRecon runs only for a child that was
// dequeued and turned out to be an inner node. Both receive the same
// parent-side arguments: the parent's encoded predicate, the encoded label
// of the child's partition, the parent's level and the parent's traversal
// value.
//
// Traversal values are bytes, like predicates, labels and keys: the
// opclass encodes them (the kd-tree, point quadtree and PMR quadtree a
// box, through geom.AppendBoxBytes; the trie nothing) and the cursor
// keeps them in an arena it owns and recycles, so deriving one allocates
// nothing. NNRootRecon and NNRecon only append to dst; recon may lie in
// dst's own backing array, before len(dst), and must not be kept past
// the call.
type NNOpClass interface {
	OpClass
	// NNRootRecon appends the root's traversal value to dst.
	NNRootRecon(dst []byte) []byte
	// NNInner returns the minimum possible distance between the query
	// object and any key stored under the partition labeled label, and
	// the child's level increase. parentDist is the distance computed
	// for this node when it was enqueued (the paper's parent-distance
	// propagation for tries).
	NNInner(q Value, pred, label []byte, level int, recon []byte, parentDist float64) (dist float64, levelAdd int)
	// NNRecon appends to dst the traversal value of the child under the
	// partition labeled label — whatever NNInner and NNRecon want to find
	// in recon when that child is expanded in turn; nothing if they read
	// none.
	NNRecon(pred, label []byte, level int, recon, dst []byte) []byte
	// NNLeaf returns the exact distance between the query object and a
	// stored key, as encoded.
	NNLeaf(q Value, key []byte) float64
}
