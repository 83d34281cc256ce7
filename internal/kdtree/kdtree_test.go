package kdtree

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

func randPoint(r *rand.Rand) geom.Point {
	return geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
}

func buildRandom(t testing.TB, tr *core.Tree, n int, seed int64) []geom.Point {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = randPoint(r)
		if err := tr.Insert(pts[i], rid(i)); err != nil {
			t.Fatalf("insert %v: %v", pts[i], err)
		}
	}
	return pts
}

func TestPointEncodingRoundTrip(t *testing.T) {
	p := geom.Point{X: -12.5, Y: 1e-17}
	if got := DecodePoint(EncodePoint(p)); !got.Eq(p) {
		t.Fatalf("round trip: %v != %v", got, p)
	}
}

func TestPointMatchAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	pts := buildRandom(t, tr, 5000, 1)
	r := rand.New(rand.NewSource(2))
	probe := func(q geom.Point) {
		want := 0
		for _, p := range pts {
			if p.Eq(q) {
				want++
			}
		}
		rids, err := tr.Lookup(&core.Query{Op: "@", Arg: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != want {
			t.Fatalf("@ %v: got %d, want %d", q, len(rids), want)
		}
	}
	for i := 0; i < 200; i++ {
		probe(pts[r.Intn(len(pts))])
		probe(randPoint(r)) // almost surely absent
	}
}

func TestRangeSearchAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	pts := buildRandom(t, tr, 5000, 3)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		b := geom.MakeBox(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		want := 0
		for _, p := range pts {
			if b.Contains(p) {
				want++
			}
		}
		rids, err := tr.Lookup(&core.Query{Op: "^", Arg: b})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != want {
			t.Fatalf("^ %v: got %d, want %d", b, len(rids), want)
		}
	}
}

func TestRangeBoundaryInclusive(t *testing.T) {
	tr := newTree(t)
	pts := []geom.Point{{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 9, Y: 9}, {X: 5, Y: 1}, {X: 1, Y: 5}}
	for i, p := range pts {
		if err := tr.Insert(p, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Box borders exactly on stored points: all must be reported.
	rids, err := tr.Lookup(&core.Query{Op: "^", Arg: geom.MakeBox(1, 1, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 4 {
		t.Fatalf("inclusive borders: got %d, want 4", len(rids))
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := newTree(t)
	p := geom.Point{X: 42, Y: 7}
	for i := 0; i < 500; i++ {
		if err := tr.Insert(p, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	rids, err := tr.Lookup(&core.Query{Op: "@", Arg: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 500 {
		t.Fatalf("duplicates: got %d, want 500", len(rids))
	}
}

func TestNNAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	pts := buildRandom(t, tr, 3000, 5)
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		q := randPoint(r)
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

func TestNNExhaustsIndex(t *testing.T) {
	tr := newTree(t)
	buildRandom(t, tr, 100, 7)
	keys, _, _, err := tr.NN(geom.Point{X: 50, Y: 50}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 100 {
		t.Fatalf("NN over-asked returned %d, want 100", len(keys))
	}
}

func TestDeletePoints(t *testing.T) {
	tr := newTree(t)
	pts := buildRandom(t, tr, 1000, 8)
	n, err := tr.BulkDelete(func(r heap.RID) bool { return r.Slot%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pts)/2 {
		t.Fatalf("BulkDelete removed %d, want %d", n, len(pts)/2)
	}
	for i, p := range pts {
		rids, err := tr.Lookup(&core.Query{Op: "@", Arg: p})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, rd := range rids {
			if rd == rid(i) {
				found = true
			}
		}
		if i%2 == 0 && found {
			t.Fatalf("deleted point %v still found", p)
		}
		if i%2 == 1 && !found {
			t.Fatalf("surviving point %v lost", p)
		}
	}
}

// Every insert into a bucket-size-1 kd-tree splits, so the tree must stay
// navigable and the node count must track the key count.
func TestStatsBinaryShape(t *testing.T) {
	tr := newTree(t)
	buildRandom(t, tr, 2000, 9)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 2000 {
		t.Fatalf("Keys = %d", st.Keys)
	}
	if st.InnerNodes < 900 {
		t.Fatalf("kd-tree with bucket 1 should have ~n/2 inner nodes, got %d", st.InnerNodes)
	}
	if st.MaxPageHeight > st.MaxNodeHeight {
		t.Fatal("page height exceeds node height")
	}
}
