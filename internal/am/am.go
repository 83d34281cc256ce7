// Package am adapts the concrete index structures (SP-GiST instantiations,
// B+-tree, R-tree) to one uniform access-method interface the executor
// dispatches through — the role of PostgreSQL's interface routines
// (amgettuple, aminsert, ambuild, ...) that the paper registers in pg_am.
//
// Index scans may be lossy (the R-tree indexes segment MBRs, the B+-tree
// answers '?=' from a literal prefix); the executor rechecks the operator
// against the heap tuple for every candidate, as PostgreSQL does for
// lossy index hits, so correctness never depends on index precision.
package am

import (
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/kdtree"
	"repro/internal/pmr"
	"repro/internal/pquad"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/suffix"
	"repro/internal/trie"
)

// NNIter yields nearest-neighbor candidates in increasing distance.
type NNIter func() (rid heap.RID, dist float64, ok bool)

// Index is the uniform access-method interface: the routines the executor
// calls. What works the same way for every access method — file size,
// flushing, counting the pages a scan reads — is the buffer pool's the
// index was opened over (storage.BufferPool: SizeBytes, FlushAll,
// StartPageTrace / PageTraceCount), as in PostgreSQL it is the storage
// and buffer managers'. No index keeps a count of its entries: the
// planner reads row counts off the heap, and a full scan is the count.
type Index interface {
	// Insert adds keys[i] for row rids[i], for every i, in the order
	// that suits the index. It is the one insert routine, as in the
	// paper's interface: a transaction's index batch goes in through it
	// a chunk at a time (the keys of its INSERTs and UPDATEs) and CREATE
	// INDEX's once per batch of the heap's rows, as PostgreSQL's
	// spgbuild drives spgdoinsert.
	Insert(keys []catalog.Datum, rids []heap.RID) error
	// Check reports why Insert would refuse one of keys whatever the
	// index holds, nil when it would take them all: a B+-tree key too
	// large for a node to split around. A transaction's keys wait in
	// the executor's index batch until its COMMIT, so a statement checks
	// its keys here and a key no index can take fails the statement.
	Check(keys []catalog.Datum) error
	// BulkDelete removes the entries of every row whose RID dead reports,
	// reading the index file once in page order (PostgreSQL's
	// ambulkdelete; the paper's spgistbulkdelete). VACUUM calls it once
	// per batch of dead versions, with no key: it never decodes a dead
	// tuple.
	BulkDelete(dead func(heap.RID) bool) error
	// Scan drives an index scan for `key op arg`, emitting candidate
	// RIDs (possibly lossy).
	Scan(op string, arg catalog.Datum, emit func(heap.RID) bool) error
	// NNScan starts an incremental nearest-neighbor scan over the
	// index's keys, or errors when the index cannot rank them. Only a
	// class with an ordering operator (NNOp) ranks rows: the suffix
	// tree's NN scan ranks suffixes, so the planner never uses it. The
	// scan has no end: what it holds is dropped, never given back.
	NNScan(arg catalog.Datum) (NNIter, error)
	// NNSearch runs the same scan, calling yield with each candidate in
	// increasing distance until yield returns false or the index is
	// exhausted, and ends it before returning, as PostgreSQL's amendscan
	// does, so what it held serves the next scan. It returns the error
	// that cut the scan short, if the index met one. The executor's kNN
	// runs through this.
	NNSearch(arg catalog.Datum, yield func(rid heap.RID, dist float64) bool) error
}

// New creates (or reopens) an index of the given operator class over the
// supplied buffer pool.
func New(ocName string, bp *storage.BufferPool, create bool) (Index, error) {
	oc, ok := catalog.LookupOpClass(ocName)
	if !ok {
		return nil, fmt.Errorf("am: unknown operator class %q", ocName)
	}
	switch oc.Name {
	case "spgist_trie":
		return newSPGiST(oc, trie.New(), bp, create)
	case "spgist_suffix":
		t, err := openTree(suffix.New(), bp, create)
		if err != nil {
			return nil, err
		}
		return &suffixIndex{spgistIndex{oc: oc, tree: t}}, nil
	case "spgist_kdtree":
		return newSPGiST(oc, kdtree.New(), bp, create)
	case "spgist_pquadtree":
		return newSPGiST(oc, pquad.New(), bp, create)
	case "spgist_pmr":
		return newSPGiST(oc, pmr.New(), bp, create)
	case "btree_text":
		var t *btree.Tree
		var err error
		if create {
			t, err = btree.Create(bp)
		} else {
			t, err = btree.Open(bp)
		}
		if err != nil {
			return nil, err
		}
		return &btreeIndex{oc: oc, tree: t}, nil
	case "rtree_point", "rtree_segment":
		var t *rtree.Tree
		var err error
		if create {
			t, err = rtree.Create(bp)
		} else {
			t, err = rtree.Open(bp)
		}
		if err != nil {
			return nil, err
		}
		return &rtreeIndex{oc: oc, tree: t, segments: oc.Name == "rtree_segment"}, nil
	default:
		return nil, fmt.Errorf("am: operator class %q has no index implementation", oc.Name)
	}
}

func openTree(oc core.OpClass, bp *storage.BufferPool, create bool) (*core.Tree, error) {
	if create {
		return core.Create(bp, oc)
	}
	return core.Open(bp, oc)
}

func newSPGiST(oc *catalog.OperatorClass, c core.OpClass, bp *storage.BufferPool, create bool) (Index, error) {
	t, err := openTree(c, bp, create)
	if err != nil {
		return nil, err
	}
	return &spgistIndex{oc: oc, tree: t}, nil
}

// datumToValue converts a key datum to the opclass's core.Value form.
func datumToValue(d catalog.Datum) (core.Value, error) {
	switch d.Typ {
	case catalog.Text:
		return d.S, nil
	case catalog.Point:
		return d.P, nil
	case catalog.Box:
		return d.B, nil
	case catalog.Segment:
		return d.G, nil
	default:
		return nil, fmt.Errorf("am: type %v not indexable", d.Typ)
	}
}

// spgistIndex adapts a core.Tree.
type spgistIndex struct {
	oc   *catalog.OperatorClass
	tree *core.Tree
}

// Insert groups the keys: core orders them (by the opclass's order if it
// has one, else by encoded form, so the clustered descents find the inner
// nodes they share in its node table).
func (x *spgistIndex) Insert(keys []catalog.Datum, rids []heap.RID) error {
	vs := make([]core.Value, len(keys))
	for i, k := range keys {
		v, err := datumToValue(k)
		if err != nil {
			return err
		}
		vs[i] = v
	}
	return x.tree.InsertBatch(vs, rids)
}

// Check refuses none: whether a leaf holds a key depends on what the
// tree above it has consumed of it. A key that no leaf page holds fails
// the Insert that merges it, which ends its transaction.
func (x *spgistIndex) Check([]catalog.Datum) error { return nil }

func (x *spgistIndex) BulkDelete(dead func(heap.RID) bool) error {
	return x.tree.BulkDelete(dead)
}

func (x *spgistIndex) Scan(op string, arg catalog.Datum, emit func(heap.RID) bool) error {
	if !x.oc.SupportsOp(op) {
		return fmt.Errorf("am: operator class %s does not support %q", x.oc.Name, op)
	}
	v, err := datumToValue(arg)
	if err != nil {
		return err
	}
	return x.tree.Scan(&core.Query{Op: op, Arg: v}, func(_ []byte, rid heap.RID) bool {
		return emit(rid)
	})
}

func (x *spgistIndex) NNScan(arg catalog.Datum) (NNIter, error) {
	v, err := datumToValue(arg)
	if err != nil {
		return nil, err
	}
	cur, err := x.tree.NNScan(v)
	if err != nil {
		return nil, err
	}
	return func() (heap.RID, float64, bool) {
		_, rid, d, ok := cur.Next()
		return rid, d, ok
	}, nil
}

// NNSearch drives the tree's NN cursor and closes it, which recycles its
// queue and arenas for the next search.
func (x *spgistIndex) NNSearch(arg catalog.Datum, yield func(heap.RID, float64) bool) error {
	v, err := datumToValue(arg)
	if err != nil {
		return err
	}
	cur, err := x.tree.NNScan(v)
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		_, rid, d, ok := cur.Next()
		if !ok {
			return cur.Err()
		}
		if !yield(rid, d) {
			return nil
		}
	}
}

// suffixIndex overrides insertion to index all suffixes; BulkDelete drops
// a dead row's suffixes by RID like any other entries.
type suffixIndex struct {
	spgistIndex
}

// Insert must not inherit the plain SP-GiST path: each word expands to
// all its suffixes, which go to core in batches of up to 1 MiB.
func (x *suffixIndex) Insert(keys []catalog.Datum, rids []heap.RID) error {
	words := make([]string, len(keys))
	for i, k := range keys {
		if k.Typ != catalog.Text {
			return fmt.Errorf("am: suffix index requires VARCHAR keys")
		}
		words[i] = k.S
	}
	return suffix.Insert(x.tree, words, rids)
}

// btreeIndex adapts the B+-tree baseline over text keys.
type btreeIndex struct {
	oc   *catalog.OperatorClass
	tree *btree.Tree
}

// Insert hands the keys to the tree's leaf-run bulk path, which sorts
// them: one descent and one page pin per leaf cluster.
func (x *btreeIndex) Insert(keys []catalog.Datum, rids []heap.RID) error {
	pairs := make([]btree.Pair, len(keys))
	for i, k := range keys {
		if k.Typ != catalog.Text {
			return fmt.Errorf("am: btree_text requires VARCHAR keys")
		}
		pairs[i] = btree.Pair{Key: []byte(k.S), RID: rids[i]}
	}
	return x.tree.InsertBatch(pairs)
}

func (x *btreeIndex) Check(keys []catalog.Datum) error {
	for _, k := range keys {
		if err := x.tree.CheckKey([]byte(k.S)); err != nil {
			return err
		}
	}
	return nil
}

func (x *btreeIndex) BulkDelete(dead func(heap.RID) bool) error {
	return x.tree.BulkDelete(dead)
}

func (x *btreeIndex) Scan(op string, arg catalog.Datum, emit func(heap.RID) bool) error {
	k := []byte(arg.S)
	pass := func(_ []byte, rid heap.RID) bool { return emit(rid) }
	switch op {
	case "=":
		return x.tree.Search(k, emit)
	case "#=":
		return x.tree.PrefixScan(k, pass)
	case "?=":
		// The paper's described behaviour: range-scan the literal prefix,
		// filter the pattern; a leading '?' forces a full scan.
		return x.tree.MatchScan(arg.S, trie.MatchPattern, pass)
	case "<", "<=":
		return x.tree.RangeScan(nil, k, pass) // lossy at the bound; executor rechecks
	case ">", ">=":
		return x.tree.RangeScan(k, nil, pass)
	default:
		return fmt.Errorf("am: btree_text does not support %q", op)
	}
}

func (x *btreeIndex) NNScan(catalog.Datum) (NNIter, error) {
	return nil, errBtreeNN
}

func (x *btreeIndex) NNSearch(catalog.Datum, func(heap.RID, float64) bool) error {
	return errBtreeNN
}

var errBtreeNN = errors.New("am: btree has no NN operator")

// rtreeIndex adapts the R-tree baseline over points or segments.
type rtreeIndex struct {
	oc       *catalog.OperatorClass
	tree     *rtree.Tree
	segments bool
}

func (x *rtreeIndex) rect(key catalog.Datum) (geom.Box, error) {
	switch {
	case !x.segments && key.Typ == catalog.Point:
		return geom.Box{Min: key.P, Max: key.P}, nil
	case x.segments && key.Typ == catalog.Segment:
		return key.G.MBR(), nil
	default:
		return geom.Box{}, fmt.Errorf("am: %s cannot index %v keys", x.oc.Name, key.Typ)
	}
}

func (x *rtreeIndex) Insert(keys []catalog.Datum, rids []heap.RID) error {
	for i, key := range keys {
		r, err := x.rect(key)
		if err != nil {
			return err
		}
		if err := x.tree.Insert(r, rids[i]); err != nil {
			return err
		}
	}
	return nil
}

// Check refuses none: every rectangle fits a node.
func (x *rtreeIndex) Check([]catalog.Datum) error { return nil }

func (x *rtreeIndex) BulkDelete(dead func(heap.RID) bool) error {
	return x.tree.BulkDelete(dead)
}

func (x *rtreeIndex) Scan(op string, arg catalog.Datum, emit func(heap.RID) bool) error {
	pass := func(_ geom.Box, rid heap.RID) bool { return emit(rid) }
	switch {
	case op == "@" && !x.segments:
		return x.tree.SearchPoint(arg.P, emit)
	case op == "^" && !x.segments:
		return x.tree.SearchContained(arg.B, pass)
	case op == "=" && x.segments:
		// Lossy: all segments sharing the MBR; the executor rechecks.
		return x.tree.Search(arg.G.MBR(), pass)
	case op == "&&" && x.segments:
		// Lossy: MBR overlap; the executor rechecks true intersection.
		return x.tree.Search(arg.B, pass)
	default:
		return fmt.Errorf("am: %s does not support %q", x.oc.Name, op)
	}
}

func (x *rtreeIndex) NNScan(catalog.Datum) (NNIter, error) {
	return nil, errRtreeNN
}

func (x *rtreeIndex) NNSearch(catalog.Datum, func(heap.RID, float64) bool) error {
	return errRtreeNN
}

var errRtreeNN = errors.New("am: rtree has no NN operator")
