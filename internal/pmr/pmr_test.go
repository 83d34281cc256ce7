package pmr

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
)

func newTree(t testing.TB, opts ...Option) *core.Tree {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(8192), 128)
	tr, err := core.Create(bp, New(opts...))
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

// randSegment mirrors the paper's line-segment datasets: uniform midpoints
// in the world with short random extents.
func randSegment(r *rand.Rand) geom.Segment {
	cx := r.Float64() * 100
	cy := r.Float64() * 100
	dx := (r.Float64() - 0.5) * 10
	dy := (r.Float64() - 0.5) * 10
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 100 {
			return 100
		}
		return v
	}
	return geom.Segment{
		A: geom.Point{X: clamp(cx - dx), Y: clamp(cy - dy)},
		B: geom.Point{X: clamp(cx + dx), Y: clamp(cy + dy)},
	}
}

func buildRandom(t testing.TB, tr *core.Tree, n int, seed int64) []geom.Segment {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	segs := make([]geom.Segment, n)
	for i := 0; i < n; i++ {
		segs[i] = randSegment(r)
		if err := insertOne(tr, segs[i], rid(i)); err != nil {
			t.Fatalf("insert %v: %v", segs[i], err)
		}
	}
	return segs
}

func TestSegmentEncodingRoundTrip(t *testing.T) {
	s := geom.Segment{A: geom.Point{X: 1.5, Y: -2}, B: geom.Point{X: 99, Y: 0.125}}
	got := DecodeSegment(EncodeSegment(s))
	if !got.A.Eq(s.A) || !got.B.Eq(s.B) {
		t.Fatalf("round trip: %v != %v", got, s)
	}
}

func TestExactMatchAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	segs := buildRandom(t, tr, 3000, 1)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		q := segs[r.Intn(len(segs))]
		want := 0
		for _, s := range segs {
			if s.Eq(q) {
				want++
			}
		}
		rids, err := tr.Lookup(&core.Query{Op: "=", Arg: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != want {
			t.Fatalf("= %v: got %d, want %d", q, len(rids), want)
		}
	}
	// Absent segment.
	rids, err := tr.Lookup(&core.Query{Op: "=", Arg: geom.Segment{
		A: geom.Point{X: 1.23456, Y: 2}, B: geom.Point{X: 3, Y: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 0 {
		t.Fatalf("absent segment found %d times", len(rids))
	}
}

func TestWindowQueryAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	segs := buildRandom(t, tr, 3000, 3)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		b := geom.MakeBox(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		want := 0
		for _, s := range segs {
			if s.IntersectsBox(b) {
				want++
			}
		}
		rids, err := tr.Lookup(&core.Query{Op: "&&", Arg: b})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != want {
			t.Fatalf("&& %v: got %d, want %d", b, len(rids), want)
		}
	}
}

// A window query must report a segment crossing many cells exactly once —
// the MultiAssign deduplication contract.
func TestNoDuplicateResultsForLongSegments(t *testing.T) {
	tr := newTree(t, WithThreshold(2))
	// A diagonal across the whole world plus enough short segments to
	// force deep decomposition.
	long := geom.Segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 100, Y: 100}}
	if err := insertOne(tr, long, rid(0)); err != nil {
		t.Fatal(err)
	}
	buildRandom(t, tr, 500, 5)
	rids, err := tr.Lookup(&core.Query{Op: "&&", Arg: geom.MakeBox(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[heap.RID]int{}
	for _, rd := range rids {
		seen[rd]++
		if seen[rd] > 1 {
			t.Fatalf("rid %v reported %d times", rd, seen[rd])
		}
	}
	if seen[rid(0)] != 1 {
		t.Fatal("long diagonal segment missing from window query")
	}
}

func TestNNAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	segs := buildRandom(t, tr, 2000, 6)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		q := geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		k := 1 + r.Intn(32)
		_, _, dists, err := tr.NN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]float64, len(segs))
		for i, s := range segs {
			all[i] = s.DistToPoint(q)
		}
		sort.Float64s(all)
		for i := range dists {
			if dists[i] != all[i] {
				t.Fatalf("trial %d: NN #%d dist %g, brute force %g", trial, i, dists[i], all[i])
			}
		}
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t)
	segs := buildRandom(t, tr, 500, 8)
	// A segment is an item in every cell it crosses; a full scan reports
	// it once.
	if err := tr.BulkDelete(func(r heap.RID) bool { return r == rid(0) }); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := tr.Scan(nil, func([]byte, heap.RID) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(segs)-1 {
		t.Fatalf("full scan after BulkDelete yields %d segments, want %d", n, len(segs)-1)
	}
	rids, err := tr.Lookup(&core.Query{Op: "=", Arg: segs[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range rids {
		if rd == rid(0) {
			t.Fatal("deleted segment still found")
		}
	}
}

// The resolution cap must stop decomposition: identical segments pile up
// in one cell instead of splitting forever.
func TestResolutionCap(t *testing.T) {
	tr := newTree(t, WithThreshold(2), WithResolution(4))
	s := geom.Segment{A: geom.Point{X: 10, Y: 10}, B: geom.Point{X: 11, Y: 11}}
	for i := 0; i < 200; i++ {
		if err := insertOne(tr, s, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	rids, err := tr.Lookup(&core.Query{Op: "=", Arg: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 200 {
		t.Fatalf("got %d, want 200", len(rids))
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxNodeHeight > 6 {
		t.Fatalf("resolution cap ignored: height %d", st.MaxNodeHeight)
	}
}

// Segments outside the world must still be retrievable by equality even
// though they cannot be assigned a proper cell.
func TestOutOfWorldSegment(t *testing.T) {
	tr := newTree(t, WithThreshold(2))
	out := geom.Segment{A: geom.Point{X: 200, Y: 200}, B: geom.Point{X: 210, Y: 210}}
	if err := insertOne(tr, out, rid(0)); err != nil {
		t.Fatal(err)
	}
	buildRandom(t, tr, 200, 9)
	rids, err := tr.Lookup(&core.Query{Op: "=", Arg: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 {
		t.Fatalf("out-of-world segment found %d times, want 1", len(rids))
	}
}
