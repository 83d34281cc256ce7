package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/heap"
	"repro/internal/suffix"
)

// RunSuffix regenerates Figure 16: substring-match search through the
// SP-GiST suffix tree against a sequential scan of the heap relation (no
// other access method supports substring match at all).
func RunSuffix(cfg Config) []Figure {
	cfg = cfg.normalized()
	sizes := cfg.sizes([]int{2500, 5000, 10000, 20000, 40000})
	xs := make([]float64, 0, len(sizes))
	ys := make([]float64, 0, len(sizes))
	for _, n := range sizes {
		words := datagen.Words(n, cfg.Seed)
		subQ := datagen.Substrings(words, cfg.Queries, cfg.Seed+1)

		// The heap relation the sequential scan reads.
		hf, err := heap.Create(cfg.pool())
		if err != nil {
			panic(fmt.Sprintf("bench suffix: %v", err))
		}
		for i, w := range words {
			tup := catalog.Tuple{catalog.NewText(w), catalog.NewInt(int64(i))}
			if _, err := hf.Insert(catalog.EncodeTuple(tup)); err != nil {
				panic(fmt.Sprintf("bench suffix: %v", err))
			}
		}

		// The suffix tree.
		st := cfg.repacked(LoadSuffix(cfg.pool(), words))

		sink := 0
		seqTime := timeOp(len(subQ), func(i int) {
			q := subQ[i]
			hf.Scan(func(_ heap.RID, rec []byte) bool {
				tup, _ := catalog.DecodeTuple(rec)
				if strings.Contains(tup[0].S, q) {
					sink++
				}
				return true
			})
		})
		sfxTime := timeOp(len(subQ), func(i int) {
			st.Scan(suffix.SubstringQuery(subQ[i]), func(_ []byte, _ heap.RID) bool {
				sink++
				return true
			})
		})
		xs = append(xs, float64(n))
		ys = append(ys, math.Log10(ratio(seqTime, sfxTime)))
	}
	return []Figure{{
		ID: "fig16", Title: "Substring match: sequential scan vs suffix tree",
		XLabel: "keys", YLabel: "log10(sequential/suffix-tree)",
		Series: []Series{{Name: "log10 ratio", X: xs, Y: ys}},
		Notes: []string{
			"paper: more than 3 orders of magnitude at 4M keys; grows with relation size",
		},
	}}
}
