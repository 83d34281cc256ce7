package pquad

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
)

func newTree(t testing.TB) *core.Tree {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(8192), 128)
	tr, err := core.Create(bp, New())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rid(i int) heap.RID { return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)} }

// insertOne inserts one key as a one-key batch, which is what a
// single-row INSERT runs.
func insertOne(t *core.Tree, key core.Value, r heap.RID) error {
	return t.InsertBatch([]core.Value{key}, []heap.RID{r})
}

func buildRandom(t testing.TB, tr *core.Tree, n int, seed int64) []geom.Point {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		if err := insertOne(tr, pts[i], rid(i)); err != nil {
			t.Fatalf("insert %v: %v", pts[i], err)
		}
	}
	return pts
}

func TestQuadrantClassification(t *testing.T) {
	c := geom.Point{X: 5, Y: 5}
	cases := []struct {
		p    geom.Point
		want byte
	}{
		{geom.Point{X: 5, Y: 5}, LabelSelf},
		{geom.Point{X: 1, Y: 1}, LabelSW},
		{geom.Point{X: 9, Y: 1}, LabelSE},
		{geom.Point{X: 1, Y: 9}, LabelNW},
		{geom.Point{X: 9, Y: 9}, LabelNE},
		{geom.Point{X: 5, Y: 1}, LabelSE}, // x tie goes east
		{geom.Point{X: 1, Y: 5}, LabelNW}, // y tie goes north
		{geom.Point{X: 5, Y: 9}, LabelNE},
	}
	for _, cse := range cases {
		if got := quadrant(cse.p, c); got != cse.want {
			t.Errorf("quadrant(%v) = %d, want %d", cse.p, got, cse.want)
		}
	}
}

func TestPointAndRangeAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	pts := buildRandom(t, tr, 5000, 1)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		q := pts[r.Intn(len(pts))]
		rids, err := tr.Lookup(&core.Query{Op: "@", Arg: q})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, p := range pts {
			if p.Eq(q) {
				want++
			}
		}
		if len(rids) != want {
			t.Fatalf("@ %v: got %d, want %d", q, len(rids), want)
		}

		b := geom.MakeBox(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		rids, err = tr.Lookup(&core.Query{Op: "^", Arg: b})
		if err != nil {
			t.Fatal(err)
		}
		want = 0
		for _, p := range pts {
			if b.Contains(p) {
				want++
			}
		}
		if len(rids) != want {
			t.Fatalf("^ %v: got %d, want %d", b, len(rids), want)
		}
	}
}

func TestNNAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	pts := buildRandom(t, tr, 3000, 3)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		q := geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		k := 1 + r.Intn(64)
		_, _, dists, err := tr.NN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]float64, len(pts))
		for i, p := range pts {
			all[i] = p.Dist(q)
		}
		sort.Float64s(all)
		for i := range dists {
			if dists[i] != all[i] {
				t.Fatalf("trial %d: NN #%d dist %g, brute force %g", trial, i, dists[i], all[i])
			}
		}
	}
}

func TestDeleteAndDuplicates(t *testing.T) {
	tr := newTree(t)
	p := geom.Point{X: 3, Y: 4}
	for i := 0; i < 100; i++ {
		if err := insertOne(tr, p, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.BulkDelete(func(r heap.RID) bool { return r == rid(7) }); err != nil {
		t.Fatalf("delete: %v", err)
	}
	rids, err := tr.Lookup(&core.Query{Op: "@", Arg: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 99 {
		t.Fatalf("after delete: %d, want 99", len(rids))
	}
}

// The quadtree fans out 4-way, so with uniform data it should be shallower
// than a kd-tree over the same points (it decomposes both dimensions per
// level).
func TestFourWayFanout(t *testing.T) {
	tr := newTree(t)
	buildRandom(t, tr, 4000, 5)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxNodeHeight > 30 {
		t.Fatalf("unexpectedly deep point quadtree: %d", st.MaxNodeHeight)
	}
	if st.LeafItems != 4000 {
		t.Fatalf("LeafItems = %d", st.LeafItems)
	}
}
