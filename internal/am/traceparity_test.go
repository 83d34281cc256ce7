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

// traced runs op under a page trace of the index file bp and returns the
// distinct pages it visited.
func traced(bp *storage.BufferPool, op func()) int {
	bp.StartPageTrace()
	op()
	return bp.PageTraceCount()
}

// TestPageTraceParity pins the distinct pages each query of every operator
// class traces — the I/O measure of figures 6, 13 and 15 and of EXPLAIN
// ANALYZE's index_pages. Each index is built from a fixed seeded dataset,
// written out and reopened on a fresh pool for every query, so the query
// first runs cold (no node in SP-GiST's node table, no page in the pool)
// and then again warm, where SP-GiST serves its nodes from the node table
// without a pool fetch: both runs must trace the same pages, and those
// must equal the figures recorded when the trace was moved out of the
// index structures and into the buffer pool. The kd-tree's were
// re-recorded when its batches began to go in median first
// (kdtree.OpClass.OrderBatch): its boxes and kNN-10s traced 23, 22, 26,
// 22, 19, 18 and 12 pages before. The suffix index's were re-recorded
// when a statement's words began to go in as one batch of all their
// suffixes, ordered by encoded key (suffix.Insert): its substring queries
// traced 3, 3, 3 and 9 pages before.
func TestPageTraceParity(t *testing.T) {
	world := geom.MakeBox(0, 0, 100, 100)
	words := datagen.Words(4000, 31)
	pts := datagen.Points(3000, 32, world)
	segs := datagen.Segments(1200, 33, world, 6)
	boxes := datagen.Boxes(4, 34, world, 10)

	text := func(ws []string) []catalog.Datum {
		ds := make([]catalog.Datum, len(ws))
		for i, w := range ws {
			ds[i] = catalog.NewText(w)
		}
		return ds
	}
	var ptKeys, segKeys, boxArgs []catalog.Datum
	for _, p := range pts {
		ptKeys = append(ptKeys, catalog.NewPoint(p))
	}
	for _, s := range segs {
		segKeys = append(segKeys, catalog.NewSegment(s))
	}
	for _, b := range boxes {
		boxArgs = append(boxArgs, catalog.NewBox(b))
	}
	type query struct {
		op   string // "" is a nearest-neighbor search for ten rows
		args []catalog.Datum
	}
	textQueries := []query{
		{"=", text(datagen.Sample(words, 4, 41))},
		{"#=", text(datagen.Prefixes(words, 4, 42))},
		{"?=", text(datagen.Patterns(words, 4, 0.3, 43))},
	}
	pointQueries := []query{{"@", ptKeys[100:104]}, {"^", boxArgs}}
	segQueries := []query{{"=", segKeys[100:104]}, {"&&", boxArgs}}
	cases := []struct {
		opclass string
		keys    []catalog.Datum
		queries []query
		want    []int // pages per query, in order
	}{
		{
			opclass: "spgist_trie", keys: text(words),
			queries: append(textQueries, query{"", text(datagen.Sample(words, 3, 44))}),
			want:    []int{3, 3, 3, 3, 3, 8, 10, 3, 2, 9, 10, 3, 11, 11, 11},
		},
		{
			opclass: "spgist_suffix", keys: text(words[:600]),
			queries: []query{
				{"@=", text(datagen.Substrings(words[:600], 4, 45))},
				{"", text(datagen.Sample(words[:600], 3, 46))},
			},
			want: []int{2, 3, 3, 4, 11, 11, 11},
		},
		{
			opclass: "spgist_kdtree", keys: ptKeys,
			queries: append(pointQueries, query{"", ptKeys[500:503]}),
			want:    []int{2, 2, 2, 1, 14, 16, 18, 13, 10, 12, 11},
		},
		{
			opclass: "spgist_pquadtree", keys: ptKeys,
			queries: append(pointQueries, query{"", ptKeys[500:503]}),
			want:    []int{3, 2, 2, 1, 21, 19, 27, 22, 15, 14, 9},
		},
		{
			opclass: "spgist_pmr", keys: segKeys,
			queries: append(segQueries, query{"", ptKeys[500:503]}),
			want:    []int{5, 4, 5, 3, 10, 8, 10, 12, 9, 6, 5},
		},
		{opclass: "btree_text", keys: text(words), queries: textQueries, want: []int{2, 2, 2, 2, 2, 2, 3, 2, 2, 2, 13, 2}},
		{opclass: "rtree_point", keys: ptKeys, queries: pointQueries, want: []int{2, 2, 2, 2, 2, 4, 4, 3}},
		{opclass: "rtree_segment", keys: segKeys, queries: segQueries, want: []int{2, 2, 2, 2, 2, 3, 4, 2}},
	}
	for ci := range cases {
		c := &cases[ci]
		t.Run(c.opclass, func(t *testing.T) {
			dm := storage.NewMem(8192)
			bp := storage.NewBufferPool("", dm, 64)
			idx, err := New(c.opclass, bp, true)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(c.keys); lo += 250 {
				hi := min(lo+250, len(c.keys))
				rids := make([]heap.RID, 0, hi-lo)
				for i := lo; i < hi; i++ {
					rids = append(rids, rid(i))
				}
				if err := idx.Insert(c.keys[lo:hi], rids); err != nil {
					t.Fatal(err)
				}
			}
			if err := bp.FlushAll(); err != nil {
				t.Fatal(err)
			}
			var got []int
			for _, q := range c.queries {
				for _, arg := range q.args {
					bp := storage.NewBufferPool("", dm, 64)
					idx, err := New(c.opclass, bp, false)
					if err != nil {
						t.Fatal(err)
					}
					run := func() {
						if q.op != "" {
							if err := idx.Scan(q.op, arg, func(heap.RID) bool { return true }); err != nil {
								t.Fatalf("%s %v: %v", q.op, arg, err)
							}
							return
						}
						next, err := idx.NNScan(arg)
						if err != nil {
							t.Fatal(err)
						}
						for k := 0; k < 10; k++ {
							if _, _, ok := next(); !ok {
								break
							}
						}
					}
					cold := traced(bp, run)
					if warm := traced(bp, run); warm != cold {
						t.Errorf("%q %v: %d pages cold, %d warm", q.op, arg, cold, warm)
					}
					got = append(got, cold)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("pages per query:\n got  %#v\n want %#v", got, c.want)
			}
		})
	}
}
