package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/pmr"
)

type segmentRow struct {
	n int

	pmrInsert, rtInsert time.Duration
	pmrExact, rtExact   measured
	pmrRange, rtRange   measured
}

func measureSegmentRow(cfg Config, n int) (segmentRow, error) {
	row := segmentRow{n: n}
	segs := datagen.Segments(n, cfg.Seed, world, 5)
	exactQ := datagen.Sample(segs, cfg.Queries, cfg.Seed+1)
	boxQ := datagen.Boxes(cfg.Queries, cfg.Seed+2, world, 5)

	pq, pmrIns, err := LoadSPGiST(cfg.pool(), pmr.New(), segs)
	if err != nil {
		return row, err
	}
	row.pmrInsert = pmrIns
	if pq, err = pq.Repack(cfg.pool()); err != nil {
		return row, err
	}
	sink := 0
	emit := func(_ []byte, _ heap.RID) bool { sink++; return true }
	row.pmrExact = measure(pq.Pool(), len(exactQ), func(i int) {
		pq.Scan(&core.Query{Op: "=", Arg: exactQ[i]}, emit)
	})
	row.pmrRange = measure(pq.Pool(), len(boxQ), func(i int) {
		pq.Scan(&core.Query{Op: "&&", Arg: boxQ[i]}, emit)
	})

	mbrs := make([]geom.Box, len(segs))
	for i, s := range segs {
		mbrs[i] = s.MBR()
	}
	rt, rtIns, err := LoadRTree(cfg.pool(), mbrs)
	if err != nil {
		return row, err
	}
	row.rtInsert = rtIns
	// The R-tree indexes MBRs, so exact and window queries recheck the
	// real segment — the executor's lossy-hit recheck, priced in.
	ridToSeg := func(rd heap.RID) geom.Segment {
		return segs[(int(rd.Page)-1)*1000+int(rd.Slot)]
	}
	row.rtExact = measure(rt.Pool(), len(exactQ), func(i int) {
		q := exactQ[i]
		rt.Search(q.MBR(), func(_ geom.Box, rd heap.RID) bool {
			if ridToSeg(rd).Eq(q) {
				sink++
			}
			return true
		})
	})
	row.rtRange = measure(rt.Pool(), len(boxQ), func(i int) {
		q := boxQ[i]
		rt.Search(q, func(_ geom.Box, rd heap.RID) bool {
			if ridToSeg(rd).IntersectsBox(q) {
				sink++
			}
			return true
		})
	})
	return row, nil
}

// RunSegments regenerates Figure 15: the PMR quadtree against the R-tree
// over line-segment datasets (paper sizes 250K-4M).
func RunSegments(cfg Config) []Figure {
	cfg = cfg.normalized()
	sizes := cfg.sizes([]int{2500, 5000, 10000, 20000, 40000})
	rows := make([]segmentRow, 0, len(sizes))
	for _, n := range sizes {
		row, err := measureSegmentRow(cfg, n)
		if err != nil {
			panic(fmt.Sprintf("bench segments: %v", err))
		}
		rows = append(rows, row)
	}
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = float64(r.n)
	}

	fig15 := Figure{
		ID: "fig15", Title: "Insertion and search relative performance: R-tree vs PMR quadtree",
		XLabel: "keys", YLabel: "(R-tree/PMR quadtree) x 100",
		Notes: []string{
			"paper: all series below 100 (R-tree wins); insert ratio flat, search gap narrows with size",
		},
	}
	var iY, eY, rY, eIO, rIO []float64
	for _, r := range rows {
		iY = append(iY, 100*ratio(r.rtInsert, r.pmrInsert))
		eY = append(eY, 100*ratio(r.rtExact.t, r.pmrExact.t))
		rY = append(rY, 100*ratio(r.rtRange.t, r.pmrRange.t))
		eIO = append(eIO, 100*pageRatio(r.rtExact, r.pmrExact))
		rIO = append(rIO, 100*pageRatio(r.rtRange, r.pmrRange))
	}
	fig15.Series = []Series{
		{Name: "insert x100", X: xs, Y: iY},
		{Name: "exact x100", X: xs, Y: eY},
		{Name: "range x100", X: xs, Y: rY},
		{Name: "exact io x100", X: xs, Y: eIO},
		{Name: "range io x100", X: xs, Y: rIO},
	}
	fig15.Notes = append(fig15.Notes,
		"time = warm in-memory; io = distinct pages touched per query (cold-I/O proxy, the paper's regime)")
	return []Figure{fig15}
}
