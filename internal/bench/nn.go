package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kdtree"
	"repro/internal/pquad"
	"repro/internal/trie"
)

// RunNN regenerates Figure 17: incremental NN search latency over three
// SP-GiST instantiations (kd-tree, point quadtree, patricia trie), with
// the number of requested neighbors swept 8..1024 over a fixed relation
// (paper: 2M tuples; scaled).
func RunNN(cfg Config) []Figure {
	cfg = cfg.normalized()
	n := cfg.sizes([]int{20000})[0]
	ks := []int{8, 16, 32, 64, 128, 256, 512, 1024}

	pts := datagen.Points(n, cfg.Seed, world)
	words := datagen.Words(n, cfg.Seed+1)
	pQ := datagen.Points(cfg.Queries, cfg.Seed+2, world)
	wQ := datagen.Words(cfg.Queries, cfg.Seed+3)

	kd := cfg.repacked(LoadSPGiST(cfg.pool(), kdtree.New(), pts))
	pq := cfg.repacked(LoadSPGiST(cfg.pool(), pquad.New(), pts))
	tr := cfg.repacked(LoadSPGiST(cfg.pool(), trie.New(), words))

	// A smaller probe count keeps the k=1024 sweep fast.
	probes := cfg.Queries / 10
	if probes < 5 {
		probes = 5
	}
	nnTime := func(t *core.Tree, k int, query func(i int) core.Value) float64 {
		d := timeOp(probes, func(i int) {
			t.NN(query(i), k)
		})
		return float64(d) / float64(time.Millisecond)
	}

	xs := make([]float64, len(ks))
	kdY := make([]float64, len(ks))
	pqY := make([]float64, len(ks))
	trY := make([]float64, len(ks))
	for i, k := range ks {
		xs[i] = float64(k)
		kdY[i] = nnTime(kd, k, func(i int) core.Value { return pQ[i%len(pQ)] })
		pqY[i] = nnTime(pq, k, func(i int) core.Value { return pQ[i%len(pQ)] })
		trY[i] = nnTime(tr, k, func(i int) core.Value { return wQ[i%len(wQ)] })
	}
	return []Figure{{
		ID: "fig17", Title: "NN search performance (time per query, ms)",
		XLabel: "number of NNs", YLabel: "time (ms)",
		Series: []Series{
			{Name: "kd-tree", X: xs, Y: kdY},
			{Name: "pquadtree", X: xs, Y: pqY},
			{Name: "trie", X: xs, Y: trY},
		},
		Notes: []string{
			"paper: trie is orders of magnitude slower (Hamming distance converges slowly);",
			"kd-tree and point quadtree stay fast and close to each other",
		},
	}}
}
