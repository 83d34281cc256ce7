package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/kdtree"
	"repro/internal/storage"
	"repro/internal/trie"
)

// BenchmarkWarmDescent times the index descents of the end-to-end
// benchmark's scan_warm statements with no server, SQL or heap around them:
// a box of about ten rows and a ten-nearest-neighbour search over 15 000
// points in [0, 1000)² in a kd-tree, and an exact match and a four-digit
// prefix over 40 000 eight-digit words in a trie. Both trees are loaded in
// 500-key InsertBatch calls, the benchmark's statement size, and a full
// scan puts every node in the node table before the clock starts. Each
// sub-benchmark rotates over 1 024 queries drawn from one seed.
func BenchmarkWarmDescent(b *testing.B) {
	const (
		nPts, nWords, batch, nq = 15000, 40000, 500, 1024
		world                   = 1000.0
	)
	r := rand.New(rand.NewSource(42))
	coord := func(span float64) float64 { return float64(r.Intn(int(span*1000))) / 1000 }
	load := func(oc core.OpClass, keys []core.Value) *core.Tree {
		tr, err := core.Create(storage.NewBufferPool("", storage.NewMem(8192), 1024), oc)
		if err != nil {
			b.Fatal(err)
		}
		rids := make([]heap.RID, len(keys))
		for i := range rids {
			rids[i] = rid(i)
		}
		for i := 0; i < len(keys); i += batch {
			j := min(i+batch, len(keys))
			if err := tr.InsertBatch(keys[i:j], rids[i:j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := tr.Scan(nil, func([]byte, heap.RID) bool { return true }); err != nil {
			b.Fatal(err)
		}
		return tr
	}

	pts := make([]core.Value, nPts)
	for i := range pts {
		pts[i] = geom.Point{X: coord(world), Y: coord(world)}
	}
	seen := map[string]bool{}
	var words []core.Value
	for len(words) < nWords {
		if w := fmt.Sprintf("%08d", r.Intn(100000000)); !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	kd, tt := load(kdtree.New(), pts), load(trie.New(), words)

	side := math.Sqrt(10 * world * world / nPts) // about ten points a box
	var boxes, exact, prefix [nq]*core.Query
	var centers [nq]core.Value
	for i := range nq {
		x, y := coord(world-side), coord(world-side)
		boxes[i] = &core.Query{Op: "^", Arg: geom.MakeBox(x, y, x+side, y+side)}
		centers[i] = geom.Point{X: coord(world), Y: coord(world)}
		w := words[r.Intn(nWords)].(string)
		exact[i] = &core.Query{Op: "=", Arg: w}
		prefix[i] = &core.Query{Op: "#=", Arg: w[:4]}
	}

	rows := 0
	emit := func([]byte, heap.RID) bool { rows++; return true }
	scan := func(tr *core.Tree, qs *[nq]*core.Query) func(*testing.B) {
		return func(b *testing.B) {
			rows = 0
			for i := 0; i < b.N; i++ {
				if err := tr.Scan(qs[i%nq], emit); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		}
	}
	b.Run("kdtree_box", scan(kd, &boxes))
	b.Run("kdtree_knn10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := kd.NNScan(centers[i%nq])
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 10; k++ {
				if _, _, _, ok := cur.Next(); !ok {
					b.Fatalf("kNN: %d results, err %v", k, cur.Err())
				}
			}
			cur.Close()
		}
	})
	b.Run("trie_exact", scan(tt, &exact))
	b.Run("trie_prefix4", scan(tt, &prefix))
}
