package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/kdtree"
	"repro/internal/storage"
)

// TestBatchBuiltKdTreeShape pins what the kd-tree's median-first batch
// order (kdtree.OpClass.OrderBatch) is worth on the end-to-end
// benchmark's points table: the seed-1 dataset's 15 000 points in
// [0, 1000)² at three decimals (drawn after its 45 000 unique words, as
// the benchmark draws them), loaded in 500-key InsertBatch calls, the
// statement size of its load. Over 1 024 fixed queries of the scan_warm
// kinds — a ten-nearest-neighbour search and a box holding about ten
// points — it bounds the tree's node height and the distinct pages each
// query traces. With every batch sorted by encoded key, which for a point
// is the low mantissa byte of X first, the same load built a tree of node
// height 31 whose kNN-10 traced 31.59 pages and whose box 30.52, in a
// file of 135 pages as now.
func TestBatchBuiltKdTreeShape(t *testing.T) {
	const (
		nWords, nPts, batch, nq = 45000, 15000, 500, 1024
		world                   = 1000.0
	)
	r := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for len(seen) < nWords {
		seen[r.Intn(100000000)] = true
	}
	coord := func(r *rand.Rand, span float64) float64 { return float64(r.Intn(int(span*1000))) / 1000 }
	pts := make([]core.Value, nPts)
	for i := range pts {
		pts[i] = geom.Point{X: coord(r, world), Y: coord(r, world)}
	}
	bp := storage.NewBufferPool("", storage.NewMem(storage.DefaultPageSize), 1024)
	tr, err := core.Create(bp, kdtree.New())
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]heap.RID, nPts)
	for i := range rids {
		rids[i] = rid(i)
	}
	for i := 0; i < nPts; i += batch {
		if err := tr.InsertBatch(pts[i:i+batch], rids[i:i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}

	q := rand.New(rand.NewSource(2))
	side := math.Sqrt(10 * world * world / nPts)
	var knnPages, boxPages, boxRows int
	for range nq {
		center := geom.Point{X: coord(q, world), Y: coord(q, world)}
		bp.StartPageTrace()
		cur, err := tr.NNScan(center)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if _, _, _, ok := cur.Next(); !ok {
				t.Fatalf("kNN %v: %d results, err %v", center, k, cur.Err())
			}
		}
		cur.Close()
		knnPages += bp.PageTraceCount()

		x, y := coord(q, world-side), coord(q, world-side)
		bp.StartPageTrace()
		if err := tr.Scan(&core.Query{Op: "^", Arg: geom.MakeBox(x, y, x+side, y+side)},
			func([]byte, heap.RID) bool { boxRows++; return true }); err != nil {
			t.Fatal(err)
		}
		boxPages += bp.PageTraceCount()
	}
	perKNN, perBox := float64(knnPages)/nq, float64(boxPages)/nq
	t.Logf("node height %d, page height %d, %d pages; %.2f pages per kNN-10, %.2f per box (%.1f rows)",
		st.MaxNodeHeight, st.MaxPageHeight, tr.NumPages(), perKNN, perBox, float64(boxRows)/nq)
	if st.MaxNodeHeight > 26 || perKNN >= 21.205 || perBox >= 20.485 || tr.NumPages() > 135 {
		t.Errorf("node height %d, %.2f pages per kNN-10, %.2f per box, %d pages; want at most 26, 21.20, 20.48 and 135",
			st.MaxNodeHeight, perKNN, perBox, tr.NumPages())
	}
}
