package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/trie"
)

// noShrinkTrie wraps the patricia trie but reports NodeShrink=false and
// pre-creates every partition at split time, reproducing Figure 2(a)'s
// "no node shrink" variant for the ablation.
type noShrinkTrie struct {
	*trie.OpClass
}

func (o noShrinkTrie) Params() core.Params {
	p := o.OpClass.Params()
	p.NodeShrink = false
	return p
}

func (o noShrinkTrie) PickSplit(in *core.PickSplitIn) core.PickSplitOut {
	out := o.OpClass.PickSplit(in)
	if out.Failed {
		return out
	}
	// Extend the label set to the full alphabet + blank so empty
	// partitions persist as entries (NodeShrink=false).
	have := map[byte]int{}
	for i, l := range out.Labels {
		have[l.(byte)] = i
	}
	pred := ""
	if out.Pred != nil {
		pred = out.Pred.(string)
	}
	full := []byte{trie.Blank}
	for c := byte('a'); c <= 'z'; c++ {
		full = append(full, c)
	}
	for _, lb := range full {
		if _, ok := have[lb]; ok {
			continue
		}
		out.Labels = append(out.Labels, lb)
		if lb == trie.Blank {
			out.LevelAdds = append(out.LevelAdds, len(pred))
		} else {
			out.LevelAdds = append(out.LevelAdds, len(pred)+1)
		}
	}
	return out
}

// RunAblation measures design choices the paper calls out:
//
//   - NodeShrink on/off (Figure 2): index size with empty partitions kept;
//   - BucketSize sweep: leaf capacity vs tree height and size;
//   - page size: the clustering's effect on page height.
func RunAblation(cfg Config) []Figure {
	cfg = cfg.normalized()
	n := cfg.sizes([]int{40000})[0]
	words := datagen.Words(n, cfg.Seed)

	build := func(oc core.OpClass, pageSize int) core.TreeStats {
		bp := storage.NewBufferPool("", storage.NewMem(pageSize), cfg.PoolPages)
		t, _, err := LoadSPGiST(bp, oc, words)
		if err != nil {
			panic(fmt.Sprintf("bench ablation: %v", err))
		}
		st, err := t.Stats()
		if err != nil {
			panic(err)
		}
		return st
	}

	// NodeShrink ablation.
	shrunk := build(trie.New(), cfg.PageSize)
	unshrunk := build(noShrinkTrie{trie.New()}, cfg.PageSize)
	nodeShrink := Figure{
		ID: "ablation-nodeshrink", Title: "NodeShrink on/off (trie, size & height)",
		XLabel: "variant", YLabel: "value",
		Series: []Series{
			{Name: "size MB", X: []float64{1, 2}, Y: []float64{
				float64(shrunk.SizeBytes) / (1 << 20), float64(unshrunk.SizeBytes) / (1 << 20)}},
			{Name: "inner nodes", X: []float64{1, 2}, Y: []float64{
				float64(shrunk.InnerNodes), float64(unshrunk.InnerNodes)}},
			{Name: "page height", X: []float64{1, 2}, Y: []float64{
				float64(shrunk.MaxPageHeight), float64(unshrunk.MaxPageHeight)}},
		},
		Notes: []string{"variant 1 = NodeShrink (Figure 2(b)); variant 2 = keep empty partitions (Figure 2(a))"},
	}

	// Bucket-size sweep.
	buckets := []int{1, 4, 16, 64, 256}
	var bx, bheight, bsize []float64
	for _, b := range buckets {
		st := build(trie.New(trie.WithBucketSize(b)), cfg.PageSize)
		bx = append(bx, float64(b))
		bheight = append(bheight, float64(st.MaxNodeHeight))
		bsize = append(bsize, float64(st.SizeBytes)/(1<<20))
	}
	bucket := Figure{
		ID: "ablation-bucket", Title: "BucketSize sweep (trie)",
		XLabel: "bucket size", YLabel: "value",
		Series: []Series{
			{Name: "node height", X: bx, Y: bheight},
			{Name: "size MB", X: bx, Y: bsize},
		},
		Notes: []string{"larger buckets absorb splits: shallower trees, better utilization"},
	}

	// Page-size sweep: page height tracks how many nodes the clustering
	// can co-locate.
	pages := []int{1024, 2048, 4096, 8192, 16384}
	var px, ph, nh []float64
	for _, ps := range pages {
		st := build(trie.New(), ps)
		px = append(px, float64(ps))
		ph = append(ph, float64(st.MaxPageHeight))
		nh = append(nh, float64(st.MaxNodeHeight))
	}
	paging := Figure{
		ID: "ablation-pagesize", Title: "Page-size sweep (trie clustering)",
		XLabel: "page size", YLabel: "height",
		Series: []Series{
			{Name: "page height", X: px, Y: ph},
			{Name: "node height", X: px, Y: nh},
		},
		Notes: []string{"bigger pages let the clustering collapse more levels per page"},
	}

	return []Figure{nodeShrink, bucket, paging}
}
