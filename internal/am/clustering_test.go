package am

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
)

// shape is what figures 11–12 of the paper measure of a tree: its page
// height (the most pages on a root-to-leaf path) and the distinct pages
// an exact-match descent traces, a mean over the probes.
type shape struct {
	pageHeight int
	pages      float64
}

// within reports whether s is no worse than bound, whose mean is given to
// two decimals.
func (s shape) within(bound shape) bool {
	return s.pageHeight <= bound.pageHeight && s.pages < bound.pages+0.005
}

func (s shape) String() string {
	return fmt.Sprintf("page height %d, %.2f pages per descent", s.pageHeight, s.pages)
}

// measureShape returns the shape of the SP-GiST index x, whose pages are
// bp's, probing it with an exact match (op) for each of probes, each of
// which must find a row.
func measureShape(t *testing.T, x *spgistIndex, bp *storage.BufferPool, op string, probes []catalog.Datum) shape {
	t.Helper()
	st, err := x.tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range probes {
		found := 0
		total += traced(bp, func() {
			if err := x.Scan(op, p, func(heap.RID) bool { found++; return true }); err != nil {
				t.Fatalf("%s %v: %v", op, p, err)
			}
		})
		if found == 0 {
			t.Fatalf("%s %v found no row", op, p)
		}
	}
	return shape{st.MaxPageHeight, float64(total) / float64(len(probes))}
}

// unwrapSPGiST returns the SP-GiST index under idx, a suffix index's too.
func unwrapSPGiST(idx Index) *spgistIndex {
	if ix, ok := idx.(*suffixIndex); ok {
		return &ix.spgistIndex
	}
	return idx.(*spgistIndex)
}

// TestInsertBuiltClustering reproduces figures 11–12 on the tree CREATE
// INDEX serves. For each SP-GiST operator class, 10⁴ keys are inserted
// one at a time in data order, as single-row INSERTs insert them, and
// the tree's page height and pages per exact-match descent are recorded
// next to those of the same tree repacked to minimum page height
// (core.Tree.Repack, the clustering section 3 of the paper keeps at all
// times). Figure 12's "nearly equal page heights" holds for the repacked
// tree only: the built tree's figures are today's, bounds for a bottom-up
// builder to tighten, and the repacked tree's must not be exceeded. The
// kd-tree is also built from the same keys in 500-key Insert calls,
// the end-to-end benchmark's statement size, whose median-first order
// (kdtree.OpClass.OrderBatch) gives page height 14 and 6.425 pages per
// descent; with each batch sorted by encoded key it gave 16 and 7.08.
// So is the suffix index, whose 500 words a call go in as one batch of
// all their suffixes in encoded-key order (suffix.Insert): 5.88 pages per
// descent, against 15.59 one word at a time. When each word's suffixes
// went in one by one, in the words' sorted order, a 500-word call gave
// 15.35 and one word at a time 15.71.
func TestInsertBuiltClustering(t *testing.T) {
	const n = 10000
	world := geom.MakeBox(0, 0, 100, 100) // the figures' world and segment length
	var words, points, segments []catalog.Datum
	for _, w := range datagen.Words(n, 1) {
		words = append(words, catalog.NewText(w))
	}
	for _, p := range datagen.Points(n, 1, world) {
		points = append(points, catalog.NewPoint(p))
	}
	for _, s := range datagen.Segments(n, 1, world, 5) {
		segments = append(segments, catalog.NewSegment(s))
	}
	cases := []struct {
		opclass         string
		keys            []catalog.Datum
		op              string // the exact match
		built, repacked shape  // bounds: today's figures
		batched         shape  // built in 500-key Insert calls; zero: not measured
	}{
		{"spgist_trie", words, "=", shape{4, 2.82}, shape{2, 1.99}, shape{}},
		{"spgist_suffix", words, "@=", shape{4, 15.59}, shape{2, 2.62}, shape{4, 5.88}},
		{"spgist_kdtree", points, "@", shape{15, 6.86}, shape{4, 2.51}, shape{14, 6.43}},
		{"spgist_pquadtree", points, "@", shape{10, 4.91}, shape{3, 2.47}, shape{}},
		{"spgist_pmr", segments, "=", shape{8, 10.73}, shape{3, 3.64}, shape{}},
	}
	for _, c := range cases {
		t.Run(c.opclass, func(t *testing.T) {
			bp := storage.NewBufferPool("", storage.NewMem(storage.DefaultPageSize), 256)
			idx, err := New(c.opclass, bp, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range c.keys {
				if err := insertOne(idx, k, rid(i)); err != nil {
					t.Fatal(err)
				}
			}
			x := unwrapSPGiST(idx)
			probes := datagen.Sample(c.keys, 200, 2)
			built := measureShape(t, x, bp, c.op, probes)

			pbp := storage.NewBufferPool("", storage.NewMem(storage.DefaultPageSize), 256)
			packed, err := x.tree.Repack(pbp)
			if err != nil {
				t.Fatal(err)
			}
			repacked := measureShape(t, &spgistIndex{oc: x.oc, tree: packed}, pbp, c.op, probes)
			t.Logf("as built: %v; repacked: %v", built, repacked)
			if !built.within(c.built) || !repacked.within(c.repacked) {
				t.Errorf("as built: %v, repacked: %v; want at most %v and %v", built, repacked, c.built, c.repacked)
			}
			if c.batched == (shape{}) {
				return
			}
			bbp := storage.NewBufferPool("", storage.NewMem(storage.DefaultPageSize), 256)
			bx, err := New(c.opclass, bbp, true)
			if err != nil {
				t.Fatal(err)
			}
			rids := make([]heap.RID, len(c.keys))
			for i := range rids {
				rids[i] = rid(i)
			}
			for lo := 0; lo < len(c.keys); lo += 500 {
				if err := bx.Insert(c.keys[lo:lo+500], rids[lo:lo+500]); err != nil {
					t.Fatal(err)
				}
			}
			batched := measureShape(t, unwrapSPGiST(bx), bbp, c.op, probes)
			t.Logf("built in 500-key batches: %v", batched)
			if !batched.within(c.batched) {
				t.Errorf("built in 500-key batches: %v; want at most %v", batched, c.batched)
			}
		})
	}
}
