package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/kdtree"
)

var world = geom.MakeBox(0, 0, 100, 100)

type pointRow struct {
	n int

	kdInsert, rtInsert time.Duration
	kdPoint, rtPoint   measured
	kdRange, rtRange   measured
	kdSize, rtSize     int64
}

func measurePointRow(cfg Config, n int) (pointRow, error) {
	row := pointRow{n: n}
	pts := datagen.Points(n, cfg.Seed, world)
	pointQ := datagen.Sample(pts, cfg.Queries, cfg.Seed+1)
	// Range queries selecting ~0.1% of the space, like small windows.
	boxQ := datagen.Boxes(cfg.Queries, cfg.Seed+2, world, 3)

	kdBuilt, kdIns, err := LoadSPGiST(cfg.pool(), kdtree.New(), pts)
	if err != nil {
		return row, err
	}
	row.kdInsert = kdIns
	kd, err := kdBuilt.Repack(cfg.pool())
	if err != nil {
		return row, err
	}
	sink := 0
	emit := func(_ []byte, _ heap.RID) bool { sink++; return true }
	row.kdPoint = measure(kd.Pool(), len(pointQ), func(i int) {
		kd.Scan(&core.Query{Op: "@", Arg: pointQ[i]}, emit)
	})
	row.kdRange = measure(kd.Pool(), len(boxQ), func(i int) {
		kd.Scan(&core.Query{Op: "^", Arg: boxQ[i]}, emit)
	})
	row.kdSize = kdBuilt.Pool().SizeBytes() // dynamic (insert-maintained) size, as in the paper

	boxes := make([]geom.Box, len(pts))
	for i, p := range pts {
		boxes[i] = geom.Box{Min: p, Max: p}
	}
	rt, rtIns, err := LoadRTree(cfg.pool(), boxes)
	if err != nil {
		return row, err
	}
	row.rtInsert = rtIns
	row.rtPoint = measure(rt.Pool(), len(pointQ), func(i int) {
		rt.SearchPoint(pointQ[i], func(heap.RID) bool { sink++; return true })
	})
	row.rtRange = measure(rt.Pool(), len(boxQ), func(i int) {
		rt.SearchContained(boxQ[i], func(_ geom.Box, _ heap.RID) bool { sink++; return true })
	})
	row.rtSize = rt.Pool().SizeBytes()
	return row, nil
}

// RunPoints regenerates Figures 13-14: the SP-GiST kd-tree against the
// R-tree over two-dimensional point datasets (paper sizes 250K-4M).
func RunPoints(cfg Config) []Figure {
	cfg = cfg.normalized()
	sizes := cfg.sizes([]int{2500, 5000, 10000, 20000, 40000})
	rows := make([]pointRow, 0, len(sizes))
	for _, n := range sizes {
		row, err := measurePointRow(cfg, n)
		if err != nil {
			panic(fmt.Sprintf("bench points: %v", err))
		}
		rows = append(rows, row)
	}
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = float64(r.n)
	}

	fig13 := Figure{
		ID: "fig13", Title: "Insertion and search relative performance: R-tree vs kd-tree",
		XLabel: "keys", YLabel: "(R-tree/kd-tree) x 100",
		Notes: []string{
			"paper: point search >300, range search ~125 (kd-tree wins); insert <100 (R-tree wins)",
		},
	}
	var pY, rY, iY, pIO, rIO []float64
	for _, r := range rows {
		pY = append(pY, 100*ratio(r.rtPoint.t, r.kdPoint.t))
		rY = append(rY, 100*ratio(r.rtRange.t, r.kdRange.t))
		iY = append(iY, 100*ratio(r.rtInsert, r.kdInsert))
		pIO = append(pIO, 100*pageRatio(r.rtPoint, r.kdPoint))
		rIO = append(rIO, 100*pageRatio(r.rtRange, r.kdRange))
	}
	fig13.Series = []Series{
		{Name: "point x100", X: xs, Y: pY},
		{Name: "range x100", X: xs, Y: rY},
		{Name: "insert x100", X: xs, Y: iY},
		{Name: "point io x100", X: xs, Y: pIO},
		{Name: "range io x100", X: xs, Y: rIO},
	}
	fig13.Notes = append(fig13.Notes,
		"time = warm in-memory; io = distinct pages touched per query (cold-I/O proxy, the paper's regime)")

	fig14 := Figure{
		ID: "fig14", Title: "Relative index size: R-tree vs kd-tree",
		XLabel: "keys", YLabel: "(R-tree/kd-tree) x 100",
		Notes: []string{"paper: well below 100 (kd-tree larger: bucket size 1, low page utilization)"},
	}
	var sY []float64
	for _, r := range rows {
		sY = append(sY, 100*float64(r.rtSize)/float64(r.kdSize))
	}
	fig14.Series = []Series{{Name: "size x100", X: xs, Y: sY}}

	return []Figure{fig13, fig14}
}
