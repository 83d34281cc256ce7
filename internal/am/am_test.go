package am

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
)

func pool() *storage.BufferPool {
	return storage.NewBufferPool("", storage.NewMem(8192), 256)
}

// insertOne adds one row's key, a single-row INSERT's call.
func insertOne(idx Index, key catalog.Datum, r heap.RID) error {
	return idx.Insert([]catalog.Datum{key}, []heap.RID{r})
}

func rid(i int) heap.RID { return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)} }

func TestNewRejectsUnknownOpClass(t *testing.T) {
	if _, err := New("nope", pool(), true); err == nil {
		t.Fatal("unknown opclass accepted")
	}
}

func TestEveryOpClassConstructs(t *testing.T) {
	for _, name := range []string{
		"spgist_trie", "spgist_suffix", "spgist_kdtree",
		"spgist_pquadtree", "spgist_pmr", "btree_text",
		"rtree_point", "rtree_segment",
	} {
		bp := pool()
		if _, err := New(name, bp, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bp.DM().NumPages() == 0 {
			t.Fatalf("%s: fresh index has no meta page", name)
		}
	}
}

// Every (opclass, operator) pair must agree with a brute-force filter
// through the uniform AM interface.
func TestScanAgreementAcrossOpClasses(t *testing.T) {
	words := datagen.Words(2000, 1)
	pts := datagen.Points(2000, 2, geom.MakeBox(0, 0, 100, 100))
	segs := datagen.Segments(1000, 3, geom.MakeBox(0, 0, 100, 100), 8)

	count := func(idx Index, op string, arg catalog.Datum) int {
		n := 0
		if err := idx.Scan(op, arg, func(heap.RID) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Text classes.
	for _, name := range []string{"spgist_trie", "btree_text"} {
		idx, err := New(name, pool(), true)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range words {
			if err := insertOne(idx, catalog.NewText(w), rid(i)); err != nil {
				t.Fatal(err)
			}
		}
		w := words[10]
		wantEq := 0
		for _, x := range words {
			if x == w {
				wantEq++
			}
		}
		if got := count(idx, "=", catalog.NewText(w)); got != wantEq {
			t.Fatalf("%s =: got %d want %d", name, got, wantEq)
		}
		wantPfx := 0
		for _, x := range words {
			if strings.HasPrefix(x, w[:1]) {
				wantPfx++
			}
		}
		if got := count(idx, "#=", catalog.NewText(w[:1])); got != wantPfx {
			t.Fatalf("%s #=: got %d want %d", name, got, wantPfx)
		}
	}

	// Point classes (rtree_point's scans are exact for points).
	for _, name := range []string{"spgist_kdtree", "spgist_pquadtree", "rtree_point"} {
		idx, err := New(name, pool(), true)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := insertOne(idx, catalog.NewPoint(p), rid(i)); err != nil {
				t.Fatal(err)
			}
		}
		box := geom.MakeBox(20, 20, 40, 40)
		want := 0
		for _, p := range pts {
			if box.Contains(p) {
				want++
			}
		}
		if got := count(idx, "^", catalog.NewBox(box)); got != want {
			t.Fatalf("%s ^: got %d want %d", name, got, want)
		}
		if got := count(idx, "@", catalog.NewPoint(pts[5])); got < 1 {
			t.Fatalf("%s @: point lost", name)
		}
	}

	// Segment classes: PMR is exact; the R-tree over MBRs is lossy, so
	// its candidate set must be a superset.
	pmrIdx, _ := New("spgist_pmr", pool(), true)
	rtIdx, _ := New("rtree_segment", pool(), true)
	for i, s := range segs {
		insertOne(pmrIdx, catalog.NewSegment(s), rid(i))
		insertOne(rtIdx, catalog.NewSegment(s), rid(i))
	}
	win := geom.MakeBox(10, 10, 30, 30)
	want := 0
	for _, s := range segs {
		if s.IntersectsBox(win) {
			want++
		}
	}
	if got := count(pmrIdx, "&&", catalog.NewBox(win)); got != want {
		t.Fatalf("pmr &&: got %d want %d", got, want)
	}
	if got := count(rtIdx, "&&", catalog.NewBox(win)); got < want {
		t.Fatalf("rtree &&: lossy candidates %d below true %d", got, want)
	}
}

func TestSuffixIndexInsertsAllSuffixes(t *testing.T) {
	idx, err := New("spgist_suffix", pool(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := insertOne(idx, catalog.NewText("hello"), rid(0)); err != nil {
		t.Fatal(err)
	}
	suffixes := func() int {
		st, err := idx.(*suffixIndex).tree.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st.LeafItems
	}
	if got := suffixes(); got != 5 {
		t.Fatalf("%d suffixes stored, want 5", got)
	}
	n := 0
	idx.Scan("@=", catalog.NewText("ell"), func(heap.RID) bool { n++; return true })
	if n != 1 {
		t.Fatalf("substring found %d rows, want 1", n)
	}
	if err := idx.BulkDelete(func(r heap.RID) bool { return r == rid(0) }); err != nil {
		t.Fatal(err)
	}
	if got := suffixes(); got != 0 {
		t.Fatalf("BulkDelete left %d of the 5 suffixes", got)
	}
	n = 0
	idx.Scan("@=", catalog.NewText("ell"), func(heap.RID) bool { n++; return true })
	if n != 0 {
		t.Fatal("substring survives delete")
	}
}

// A statement holding a word of a few KB (the heap takes a 3 000-byte
// VARCHAR) indexes every suffix of every word; suffix.Insert splits the
// 4.5 MB of the long word's suffixes over several InsertBatch calls.
func TestSuffixIndexTakesLongWords(t *testing.T) {
	idx, err := New("spgist_suffix", pool(), true)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	long := make([]byte, 3000)
	for i := range long {
		long[i] = byte('a' + r.Intn(26))
	}
	words := []string{"hello", string(long), "yellow"}
	keys := make([]catalog.Datum, len(words))
	total := 0
	for i, w := range words {
		keys[i] = catalog.NewText(w)
		total += len(w)
	}
	if err := idx.Insert(keys, []heap.RID{rid(0), rid(1), rid(2)}); err != nil {
		t.Fatal(err)
	}
	st, err := idx.(*suffixIndex).tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeafItems != total {
		t.Fatalf("%d suffixes stored, want %d", st.LeafItems, total)
	}
	for sub, want := range map[string][]heap.RID{
		string(long[1500:1520]): {rid(1)},
		string(long[2990:]):     {rid(1)},
		"ello":                  {rid(0), rid(2)},
	} {
		var got []heap.RID
		idx.Scan("@=", catalog.NewText(sub), func(r heap.RID) bool { got = append(got, r); return true })
		slices.SortFunc(got, func(a, b heap.RID) int { return cmp.Compare(a.Slot, b.Slot) })
		if !slices.Equal(got, want) {
			t.Fatalf("@= %.20q: got %v, want %v", sub, got, want)
		}
	}
}

func TestNNThroughAMInterface(t *testing.T) {
	idx, err := New("spgist_kdtree", pool(), true)
	if err != nil {
		t.Fatal(err)
	}
	pts := datagen.Points(500, 4, geom.MakeBox(0, 0, 100, 100))
	for i, p := range pts {
		insertOne(idx, catalog.NewPoint(p), rid(i))
	}
	iter, err := idx.NNScan(catalog.NewPoint(geom.Point{X: 50, Y: 50}))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i < 20; i++ {
		_, d, ok := iter()
		if !ok {
			t.Fatalf("iterator exhausted at %d", i)
		}
		if d < prev {
			t.Fatalf("NN order violated: %g after %g", d, prev)
		}
		prev = d
	}
	// NNSearch yields the same sequence and stops where yield says.
	var got []float64
	err = idx.NNSearch(catalog.NewPoint(geom.Point{X: 50, Y: 50}), func(_ heap.RID, d float64) bool {
		got = append(got, d)
		return len(got) < 20
	})
	if err != nil || len(got) != 20 || got[19] != prev {
		t.Fatalf("NNSearch: %d results, the 20th at %v (NNScan's at %g), err %v", len(got), got, prev, err)
	}
	// The B+-tree has no ordering operator.
	bt, _ := New("btree_text", pool(), true)
	if _, err := bt.NNScan(catalog.NewText("x")); err == nil {
		t.Fatal("btree NNScan should fail")
	}
	if err := bt.NNSearch(catalog.NewText("x"), func(heap.RID, float64) bool { return true }); err == nil {
		t.Fatal("btree NNSearch should fail")
	}
}

// TestNNSearchEndsItsScan: NNSearch closes its cursor whether yield stops
// the scan or the index runs out, so the next search reuses it and a warm
// one allocates only its query value. A scan left open would cost every
// later search a fresh cursor: its struct, queue, entries and arena. The
// executor's kNN stops through yield at k rows and on a heap-read error.
func TestNNSearchEndsItsScan(t *testing.T) {
	idx, err := New("spgist_kdtree", pool(), true)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range datagen.Points(500, 4, geom.MakeBox(0, 0, 100, 100)) {
		insertOne(idx, catalog.NewPoint(p), rid(i))
	}
	q := catalog.NewPoint(geom.Point{X: 50, Y: 50})
	for _, stop := range []int{10, 1000} {
		n := 0
		yield := func(heap.RID, float64) bool { n++; return n < stop }
		search := func() {
			n = 0
			if err := idx.NNSearch(q, yield); err != nil {
				t.Fatal(err)
			}
		}
		search()
		if want := min(stop, 500); n != want {
			t.Fatalf("NNSearch stopping at %d yielded %d rows, want %d", stop, n, want)
		}
		allocs := testing.AllocsPerRun(100, search)
		switch {
		case !poolsKeep():
			t.Logf("sync.Pool drops what it is given (the race detector does that): %.1f allocations measure nothing", allocs)
		case allocs > 1:
			t.Errorf("a warm NNSearch stopping at %d allocates %.1f times, want 1 (the query value)", stop, allocs)
		}
	}
}

// poolsKeep reports whether a sync.Pool hands back what it was just given.
// Under the race detector Put drops a quarter of its arguments at random.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}

func TestTypeMismatchErrors(t *testing.T) {
	bt, _ := New("btree_text", pool(), true)
	if err := insertOne(bt, catalog.NewInt(5), rid(0)); err == nil {
		t.Error("btree accepted INT key")
	}
	rt, _ := New("rtree_point", pool(), true)
	if err := insertOne(rt, catalog.NewSegment(geom.Segment{}), rid(0)); err == nil {
		t.Error("rtree_point accepted SEGMENT key")
	}
	kd, _ := New("spgist_kdtree", pool(), true)
	if err := kd.Scan("?=", catalog.NewText("x"), func(heap.RID) bool { return true }); err == nil {
		t.Error("kdtree accepted ?= scan")
	}
}

func TestReopenExistingIndexFile(t *testing.T) {
	bp := pool()
	idx, err := New("spgist_trie", bp, true)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		w := datagen.Words(1, r.Int63())[0]
		insertOne(idx, catalog.NewText(w), rid(i))
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	idx2, err := New("spgist_trie", bp, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := idx2.(*spgistIndex).tree.Scan(nil, func([]byte, heap.RID) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("full scan of the reopened index yields %d entries, want 500", n)
	}
}
