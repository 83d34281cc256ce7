package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/heap"
	"repro/internal/trie"
)

// stringRow carries every measurement of one dataset size, from which
// Figures 6-12 derive.
type stringRow struct {
	n int

	trieInsert, btreeInsert time.Duration // total build time
	trieExact, btreeExact   measured
	triePrefix, btreePrefix measured
	trieRegex, btreeRegex   measured
	trieExactStd            float64 // seconds
	trieSize, btreeSize     int64
	trieNodeH, btreeNodeH   int
	triePageH, btreePageH   int
	trieRepackH             int // page height after min-height repacking
}

func measureStringRow(cfg Config, n int) (stringRow, error) {
	row := stringRow{n: n}
	words := datagen.Words(n, cfg.Seed)
	exactQ := datagen.Sample(words, cfg.Queries, cfg.Seed+1)
	prefixQ := datagen.Prefixes(words, cfg.Queries, cfg.Seed+2)
	regexQ := datagen.Patterns(words, cfg.Queries, 0.3, cfg.Seed+3)

	built, tIns, err := LoadSPGiST(cfg.pool(), trie.New(), words)
	if err != nil {
		return row, err
	}
	row.trieInsert = tIns
	// Searches in every experiment run on repacked trees: the paper's
	// clustering guarantees minimum page height at all times, while this
	// repository maintains a greedy approximation during inserts and
	// restores the minimum-height packing with core.Tree.Repack (offline
	// Diwan-style packing, PostgreSQL-CLUSTER style).
	tr, err := built.Repack(cfg.pool())
	if err != nil {
		return row, err
	}
	sink := 0
	emit := func(_ []byte, _ heap.RID) bool { sink++; return true }
	exactTimes := timePerOp(len(exactQ), func(i int) {
		tr.Scan(&core.Query{Op: "=", Arg: exactQ[i]}, emit)
	})
	row.trieExactStd = stddev(exactTimes)
	row.trieExact = measure(tr.Pool(), len(exactQ), func(i int) {
		tr.Scan(&core.Query{Op: "=", Arg: exactQ[i]}, emit)
	})
	row.triePrefix = measure(tr.Pool(), len(prefixQ), func(i int) {
		tr.Scan(&core.Query{Op: "#=", Arg: prefixQ[i]}, emit)
	})
	row.trieRegex = measure(tr.Pool(), len(regexQ), func(i int) {
		tr.Scan(&core.Query{Op: "?=", Arg: regexQ[i]}, emit)
	})
	st, err := built.Stats()
	if err != nil {
		return row, err
	}
	row.trieSize = st.SizeBytes
	row.trieNodeH = st.MaxNodeHeight
	row.triePageH = st.MaxPageHeight
	rst, err := tr.Stats()
	if err != nil {
		return row, err
	}
	row.trieRepackH = rst.MaxPageHeight

	bt, bIns, err := LoadBTree(cfg.pool(), words)
	if err != nil {
		return row, err
	}
	row.btreeInsert = bIns
	row.btreeExact = measure(bt.Pool(), len(exactQ), func(i int) {
		bt.Search([]byte(exactQ[i]), func(heap.RID) bool { sink++; return true })
	})
	row.btreePrefix = measure(bt.Pool(), len(prefixQ), func(i int) {
		bt.PrefixScan([]byte(prefixQ[i]), emit)
	})
	row.btreeRegex = measure(bt.Pool(), len(regexQ), func(i int) {
		bt.MatchScan(regexQ[i], trie.MatchPattern, emit)
	})
	row.btreeSize = bt.Pool().SizeBytes()
	row.btreeNodeH = bt.Height()
	row.btreePageH = bt.Height() // one B+-tree node per page
	return row, nil
}

// RunStrings regenerates Figures 6-12: the patricia trie against the
// B+-tree over word datasets (paper sizes 500K-32M keys, scaled).
func RunStrings(cfg Config) []Figure {
	cfg = cfg.normalized()
	// The paper sweeps 500K..32M for insert/size/height and 2M..32M for
	// the search figures; one sweep serves both (prefix of sizes).
	sizes := cfg.sizes([]int{5000, 10000, 20000, 40000, 80000, 160000, 320000})
	rows := make([]stringRow, 0, len(sizes))
	for _, n := range sizes {
		row, err := measureStringRow(cfg, n)
		if err != nil {
			panic(fmt.Sprintf("bench strings: %v", err))
		}
		rows = append(rows, row)
	}
	searchRows := rows[2:] // paper's search figures start at 2M of 500K..32M

	xs := func(rs []stringRow) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = float64(r.n)
		}
		return out
	}

	fig6 := Figure{
		ID: "fig6", Title: "Search time relative performance: B+-tree vs patricia trie",
		XLabel: "keys", YLabel: "(B-tree/trie) x 100",
		Notes: []string{
			"paper: exact match >150 (trie wins), prefix match <100 (B+-tree wins)",
		},
	}
	var exactY, prefixY, exactIO, prefixIO []float64
	for _, r := range searchRows {
		exactY = append(exactY, 100*ratio(r.btreeExact.t, r.trieExact.t))
		prefixY = append(prefixY, 100*ratio(r.btreePrefix.t, r.triePrefix.t))
		exactIO = append(exactIO, 100*pageRatio(r.btreeExact, r.trieExact))
		prefixIO = append(prefixIO, 100*pageRatio(r.btreePrefix, r.triePrefix))
	}
	fig6.Series = []Series{
		{Name: "exact x100", X: xs(searchRows), Y: exactY},
		{Name: "prefix x100", X: xs(searchRows), Y: prefixY},
		{Name: "exact io x100", X: xs(searchRows), Y: exactIO},
		{Name: "prefix io x100", X: xs(searchRows), Y: prefixIO},
	}
	fig6.Notes = append(fig6.Notes,
		"time = warm in-memory; io = distinct pages touched per query (cold-I/O proxy, the paper's regime)")

	fig7 := Figure{
		ID: "fig7", Title: "Regular-expression search: B+-tree vs patricia trie",
		XLabel: "keys", YLabel: "log10(B-tree/trie)",
		Notes: []string{"paper: more than 2 orders of magnitude (log10 > 2)"},
	}
	var regexY, regexIO []float64
	for _, r := range searchRows {
		regexY = append(regexY, math.Log10(ratio(r.btreeRegex.t, r.trieRegex.t)))
		regexIO = append(regexIO, math.Log10(pageRatio(r.btreeRegex, r.trieRegex)))
	}
	fig7.Series = []Series{
		{Name: "log10 time", X: xs(searchRows), Y: regexY},
		{Name: "log10 io", X: xs(searchRows), Y: regexIO},
	}

	fig8 := Figure{
		ID: "fig8", Title: "Trie exact-match search time standard deviation",
		XLabel: "keys", YLabel: "stddev (ms)",
		Notes: []string{"paper: small and slowly growing (1.5-4 ms at server scale)"},
	}
	var stdY []float64
	for _, r := range searchRows {
		stdY = append(stdY, r.trieExactStd*1000)
	}
	fig8.Series = []Series{{Name: "stddev ms", X: xs(searchRows), Y: stdY}}

	fig9 := Figure{
		ID: "fig9", Title: "Insert time relative performance: B+-tree vs trie",
		XLabel: "keys", YLabel: "(B-tree/trie) x 100",
		Notes: []string{"paper: well below 100 (B+-tree inserts faster); declines with size"},
	}
	var insY []float64
	for _, r := range rows {
		insY = append(insY, 100*ratio(r.btreeInsert, r.trieInsert))
	}
	fig9.Series = []Series{{Name: "insert x100", X: xs(rows), Y: insY}}

	fig10 := Figure{
		ID: "fig10", Title: "Relative index size: B+-tree vs trie",
		XLabel: "keys", YLabel: "(B-tree/trie) x 100",
		Notes: []string{"paper: below 100 (trie is larger); declines with size"},
	}
	var sizeY []float64
	for _, r := range rows {
		sizeY = append(sizeY, 100*float64(r.btreeSize)/float64(r.trieSize))
	}
	fig10.Series = []Series{{Name: "size x100", X: xs(rows), Y: sizeY}}

	fig11 := Figure{
		ID: "fig11", Title: "Maximum tree height in nodes",
		XLabel: "keys", YLabel: "max height (nodes)",
		Notes: []string{"paper: trie much taller (unbalanced, ~7-8) than B+-tree (~3)"},
	}
	var tnh, bnh []float64
	for _, r := range rows {
		tnh = append(tnh, float64(r.trieNodeH))
		bnh = append(bnh, float64(r.btreeNodeH))
	}
	fig11.Series = []Series{
		{Name: "B-tree", X: xs(rows), Y: bnh},
		{Name: "SP-GiST trie", X: xs(rows), Y: tnh},
	}

	fig12 := Figure{
		ID: "fig12", Title: "Maximum tree height in pages",
		XLabel: "keys", YLabel: "max height (pages)",
		Notes: []string{"paper: nearly equal page heights — the clustering works"},
	}
	var tph, bph, rph []float64
	for _, r := range rows {
		tph = append(tph, float64(r.triePageH))
		bph = append(bph, float64(r.btreePageH))
		rph = append(rph, float64(r.trieRepackH))
	}
	fig12.Series = []Series{
		{Name: "B-tree", X: xs(rows), Y: bph},
		{Name: "trie (insert)", X: xs(rows), Y: tph},
		{Name: "trie (repack)", X: xs(rows), Y: rph},
	}
	fig12.Notes = append(fig12.Notes,
		"insert = as the server builds it, 500-key batches with greedy insert-time clustering; repack = offline min-page-height packing (the paper's guarantee)")

	return []Figure{fig6, fig7, fig8, fig9, fig10, fig11, fig12}
}
