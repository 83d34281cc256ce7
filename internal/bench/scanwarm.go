package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
)

// The end-to-end benchmark's points table at scale 1: its
// dataset draws 45 000 unique words first, then 15 000 points in
// [0, 1000)² at three decimals, all from one generator.
const (
	scanWarmWords  = 45000
	scanWarmPoints = 15000
	scanWarmWorld  = 1000.0
	// scanWarmQueries is how many kNN-10 and box queries TraceScanWarm runs.
	scanWarmQueries = 1024
)

// coord draws one coordinate in [0, span) at three decimals, as the
// benchmark draws its points and query corners.
func coord(r *rand.Rand, span float64) float64 {
	return float64(r.Intn(int(span*1000))) / 1000
}

// ScanWarmPoints returns the end-to-end benchmark's seed-1 points in the
// order its load inserts them.
func ScanWarmPoints() []geom.Point { return BenchPoints(1) }

// BenchPoints returns the end-to-end benchmark's points at seed (and
// scale 1) in the order its load inserts them.
func BenchPoints(seed int64) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	for len(seen) < scanWarmWords {
		seen[r.Intn(100000000)] = true
	}
	pts := make([]geom.Point, scanWarmPoints)
	for i := range pts {
		pts[i] = geom.Point{X: coord(r, scanWarmWorld), Y: coord(r, scanWarmWorld)}
	}
	return pts
}

// ScanWarmShape is what TraceScanWarm measures: the distinct pages one
// query traces on average, and the rows a box returns.
type ScanWarmShape struct {
	PagesPerKNN, PagesPerBox, RowsPerBox float64
}

// TraceScanWarm runs 1 024 fixed queries of scan_warm's spatial
// kinds over tr, an index of ScanWarmPoints whose pages bp holds: a
// ten-nearest-neighbour search and a box holding about ten points, each
// traced on bp.
func TraceScanWarm(tr *core.Tree, bp *storage.BufferPool) (ScanWarmShape, error) {
	q := rand.New(rand.NewSource(2))
	side := math.Sqrt(10 * scanWarmWorld * scanWarmWorld / scanWarmPoints)
	var knnPages, boxPages, boxRows int
	for range scanWarmQueries {
		center := geom.Point{X: coord(q, scanWarmWorld), Y: coord(q, scanWarmWorld)}
		bp.StartPageTrace()
		cur, err := tr.NNScan(center)
		if err != nil {
			return ScanWarmShape{}, err
		}
		for k := 0; k < 10; k++ {
			if _, _, _, ok := cur.Next(); !ok {
				cur.Close()
				return ScanWarmShape{}, fmt.Errorf("kNN %v: %d results, err %v", center, k, cur.Err())
			}
		}
		cur.Close()
		knnPages += bp.PageTraceCount()

		x, y := coord(q, scanWarmWorld-side), coord(q, scanWarmWorld-side)
		bp.StartPageTrace()
		if err := tr.Scan(&core.Query{Op: "^", Arg: geom.MakeBox(x, y, x+side, y+side)},
			func([]byte, heap.RID) bool { boxRows++; return true }); err != nil {
			return ScanWarmShape{}, err
		}
		boxPages += bp.PageTraceCount()
	}
	const nq = scanWarmQueries
	return ScanWarmShape{float64(knnPages) / nq, float64(boxPages) / nq, float64(boxRows) / nq}, nil
}
