package kdtree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
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

func randPoint(r *rand.Rand) geom.Point {
	return geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
}

func buildRandom(t testing.TB, tr *core.Tree, n int, seed int64) []geom.Point {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = randPoint(r)
		if err := insertOne(tr, pts[i], rid(i)); err != nil {
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

// buildBatched loads n random points, every tenth a repeat of an earlier
// one, in InsertBatch calls of 250 keys: median first.
func buildBatched(t testing.TB, tr *core.Tree, n int, seed int64) []geom.Point {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	keys := make([]core.Value, n)
	rids := make([]heap.RID, n)
	for i := range pts {
		if pts[i] = randPoint(r); i%10 == 9 {
			pts[i] = pts[r.Intn(i)]
		}
		keys[i], rids[i] = pts[i], rid(i)
	}
	for lo := 0; lo < n; lo += 250 {
		hi := min(lo+250, n)
		if err := tr.InsertBatch(keys[lo:hi], rids[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

func TestRangeSearchAgainstBruteForce(t *testing.T) {
	for name, build := range map[string]func(testing.TB, *core.Tree, int, int64) []geom.Point{
		"one by one": buildRandom, "batched": buildBatched,
	} {
		tr := newTree(t)
		pts := build(t, tr, 5000, 3)
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
				t.Fatalf("%s: ^ %v: got %d, want %d", name, b, len(rids), want)
			}
		}
	}
}

func TestRangeBoundaryInclusive(t *testing.T) {
	tr := newTree(t)
	pts := []geom.Point{{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 9, Y: 9}, {X: 5, Y: 1}, {X: 1, Y: 5}}
	for i, p := range pts {
		if err := insertOne(tr, p, rid(i)); err != nil {
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
		if err := insertOne(tr, p, rid(i)); err != nil {
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
	if err := tr.BulkDelete(func(r heap.RID) bool { return r.Slot%2 == 0 }); err != nil {
		t.Fatal(err)
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
	if st.LeafItems != 2000 {
		t.Fatalf("LeafItems = %d", st.LeafItems)
	}
	if st.InnerNodes < 900 {
		t.Fatalf("kd-tree with bucket 1 should have ~n/2 inner nodes, got %d", st.InnerNodes)
	}
	if st.MaxPageHeight > st.MaxNodeHeight {
		t.Fatal("page height exceeds node height")
	}
}

// medianFirstRef is OrderBatch's order computed by full sorts, by
// (coordinate of the level, index): the first key that ties the median's
// coordinate, then the half below it, then the copies of its point, then
// the rest of the half above, each half ordered the same way one level
// down.
func medianFirstRef(pts []geom.Point, idx []int, level int) []int {
	if len(idx) < 2 {
		return idx
	}
	s := append([]int(nil), idx...)
	sort.Slice(s, func(a, b int) bool {
		ca, cb := coord(pts[s[a]], level), coord(pts[s[b]], level)
		return ca < cb || ca == cb && s[a] < s[b]
	})
	split := len(s) / 2
	for split > 0 && coord(pts[s[split-1]], level) == coord(pts[s[split]], level) {
		split--
	}
	var copies, rest []int
	for _, i := range s[split+1:] {
		if pts[i].Eq(pts[s[split]]) {
			copies = append(copies, i)
		} else {
			rest = append(rest, i)
		}
	}
	out := []int{s[split]}
	out = append(out, medianFirstRef(pts, s[:split], level+1)...)
	out = append(out, copies...)
	return append(out, medianFirstRef(pts, rest, level+1)...)
}

func TestOrderBatchIsMedianFirst(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	gen := map[string]func(i int) geom.Point{
		"distinct":   func(int) geom.Point { return randPoint(r) },
		"duplicates": func(int) geom.Point { return geom.Point{X: float64(r.Intn(5)), Y: float64(r.Intn(3))} },
		"all equal":  func(int) geom.Point { return geom.Point{X: 1, Y: 2} },
	}
	for name, g := range gen {
		for _, n := range []int{0, 1, 2, 3, 500} {
			pts := make([]geom.Point, n)
			keys := make([]core.Value, n)
			identity := make([]int, n)
			for i := range pts {
				pts[i] = g(i)
				keys[i], identity[i] = pts[i], i
			}
			order := append([]int(nil), identity...)
			New().OrderBatch(keys, order)
			want := medianFirstRef(pts, identity, 0)
			if fmt.Sprint(order) != fmt.Sprint(want) {
				t.Fatalf("%s, %d keys: order %v, want %v", name, n, order, want)
			}
			again := append([]int(nil), identity...)
			New().OrderBatch(keys, again)
			if fmt.Sprint(again) != fmt.Sprint(order) {
				t.Fatalf("%s, %d keys: a second call ordered %v, the first %v", name, n, again, order)
			}
		}
	}
}

// oneKeyInsertAllocs is what inserting one random point into this
// test's tree allocated on average through the one-key routine that
// InsertBatch replaced (Tree.Insert, measured before it was deleted).
const oneKeyInsertAllocs = 33

// TestOneKeyBatchAllocatesAsInsert checks that InsertBatch of one key,
// the path of every single-row INSERT, allocates no more than the
// one-key routine it replaced: it is not ordered. Where sync.Pool drops
// what it is given at random (the race detector does that) the count
// varies by chance, and the test skips.
func TestOneKeyBatchAllocatesAsInsert(t *testing.T) {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		if p.Put(x); p.Get() != any(x) {
			t.Skip("sync.Pool drops what it is given: allocation counts vary by chance")
		}
	}
	tr := newTree(t)
	r := rand.New(rand.NewSource(9))
	keys := make([]core.Value, 2000)
	for i := range keys {
		keys[i] = randPoint(r)
	}
	j := 0
	rids := []heap.RID{{}}
	b := testing.AllocsPerRun(len(keys)-1, func() {
		rids[0] = rid(j)
		if err := tr.InsertBatch(keys[j:j+1], rids); err != nil {
			t.Fatal(err)
		}
		j++
	})
	t.Logf("a one-key InsertBatch allocates %.0f times", b)
	if b > oneKeyInsertAllocs {
		t.Errorf("a one-key InsertBatch allocates %.0f times, the one-key Insert it replaced %d", b, oneKeyInsertAllocs)
	}
}
