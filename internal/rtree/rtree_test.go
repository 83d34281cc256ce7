package rtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
)

func newTestTree(t testing.TB, pageSize int) *Tree {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(pageSize), 128)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rid(i int) heap.RID { return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)} }

func pointRect(p geom.Point) geom.Box { return geom.Box{Min: p, Max: p} }

func buildPoints(t testing.TB, tr *Tree, n int, seed int64) []geom.Point {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		if err := tr.Insert(pointRect(pts[i]), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

// scanCount returns how many entries a search over the whole plane yields.
func scanCount(t testing.TB, tr *Tree) int {
	t.Helper()
	world := geom.Box{Min: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}, Max: geom.Point{X: math.Inf(1), Y: math.Inf(1)}}
	n := 0
	if err := tr.Search(world, func(geom.Box, heap.RID) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPointMatchAgainstBruteForce(t *testing.T) {
	tr := newTestTree(t, 1024) // small pages force splits and height
	pts := buildPoints(t, tr, 3000, 1)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		q := pts[r.Intn(len(pts))]
		want := 0
		for _, p := range pts {
			if p.Eq(q) {
				want++
			}
		}
		got := 0
		if err := tr.SearchPoint(q, func(heap.RID) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("point %v: got %d, want %d", q, got, want)
		}
	}
	// Absent point.
	got := 0
	tr.SearchPoint(geom.Point{X: -5, Y: -5}, func(heap.RID) bool { got++; return true })
	if got != 0 {
		t.Fatalf("absent point found %d times", got)
	}
}

func TestRangeSearchAgainstBruteForce(t *testing.T) {
	tr := newTestTree(t, 1024)
	pts := buildPoints(t, tr, 3000, 3)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		b := geom.MakeBox(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		want := 0
		for _, p := range pts {
			if b.Contains(p) {
				want++
			}
		}
		got := 0
		err := tr.SearchContained(b, func(geom.Box, heap.RID) bool { got++; return true })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("range %v: got %d, want %d", b, got, want)
		}
	}
}

func TestSegmentMBRSearch(t *testing.T) {
	tr := newTestTree(t, 1024)
	r := rand.New(rand.NewSource(5))
	segs := make([]geom.Segment, 2000)
	for i := range segs {
		a := geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		b := geom.Point{X: a.X + (r.Float64()-0.5)*10, Y: a.Y + (r.Float64()-0.5)*10}
		segs[i] = geom.Segment{A: a, B: b}
		if err := tr.Insert(segs[i].MBR(), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Window query with exact recheck against the real segments — what
	// the executor layer does for lossy MBR hits.
	for i := 0; i < 50; i++ {
		w := geom.MakeBox(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		want := 0
		for _, s := range segs {
			if s.IntersectsBox(w) {
				want++
			}
		}
		got := 0
		err := tr.Search(w, func(_ geom.Box, rd heap.RID) bool {
			idx := (int(rd.Page)-1)*1000 + int(rd.Slot)
			if segs[idx].IntersectsBox(w) {
				got++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("window %v: got %d, want %d", w, got, want)
		}
	}
}

// Structural invariant: every child MBR is contained in its parent entry
// rectangle, and all leaves sit at the same depth.
func TestMBRContainmentInvariant(t *testing.T) {
	tr := newTestTree(t, 1024)
	buildPoints(t, tr, 3000, 6)
	leafDepth := -1
	var walk func(pid storage.PageID, depth int, bound *geom.Box)
	walk = func(pid storage.PageID, depth int, bound *geom.Box) {
		n, err := tr.readNode(pid)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.entries {
			if bound != nil && !bound.ContainsBox(e.rect) {
				t.Fatalf("entry rect %v escapes parent bound %v", e.rect, *bound)
			}
			if !n.leaf {
				r := e.rect
				walk(e.child, depth+1, &r)
			}
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("unbalanced leaves: %d vs %d", leafDepth, depth)
			}
			if depth != tr.Height() {
				t.Fatalf("leaf depth %d != height %d", depth, tr.Height())
			}
		}
	}
	walk(tr.root, 1, nil)
}

func TestNodeFillBounds(t *testing.T) {
	tr := newTestTree(t, 1024)
	buildPoints(t, tr, 3000, 7)
	var walk func(pid storage.PageID, isRoot bool)
	walk = func(pid storage.PageID, isRoot bool) {
		n, err := tr.readNode(pid)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.entries) > tr.maxFill {
			t.Fatalf("node with %d entries exceeds M=%d", len(n.entries), tr.maxFill)
		}
		if !isRoot && len(n.entries) < 1 {
			t.Fatal("empty non-root node")
		}
		if !n.leaf {
			for _, e := range n.entries {
				walk(e.child, false)
			}
		}
	}
	walk(tr.root, true)
}

func TestDelete(t *testing.T) {
	tr := newTestTree(t, 1024)
	pts := buildPoints(t, tr, 500, 8)
	if err := tr.BulkDelete(func(r heap.RID) bool { return r == rid(17) }); err != nil {
		t.Fatal(err)
	}
	got := 0
	tr.SearchPoint(pts[17], func(rd heap.RID) bool {
		if rd == rid(17) {
			got++
		}
		return true
	})
	if got != 0 {
		t.Fatal("deleted entry still found")
	}
	if n := scanCount(t, tr); n != 499 {
		t.Fatalf("full search yields %d entries, want 499", n)
	}
	// Deleting again is a no-op.
	if err := tr.BulkDelete(func(r heap.RID) bool { return r == rid(17) }); err != nil {
		t.Fatal(err)
	}
	if n := scanCount(t, tr); n != 499 {
		t.Fatalf("after a double delete the full search yields %d entries, want 499", n)
	}
}

func TestPersistence(t *testing.T) {
	bp := storage.NewBufferPool("", storage.NewMem(1024), 64)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	pts := buildPoints(t, tr, 500, 9)
	tr2, err := Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	if n := scanCount(t, tr2); n != 500 || tr2.Height() != tr.Height() {
		t.Fatalf("reopen mismatch: %d entries, height %d", n, tr2.Height())
	}
	got := 0
	tr2.SearchPoint(pts[0], func(heap.RID) bool { got++; return true })
	if got == 0 {
		t.Fatal("point lost after reopen")
	}
}
