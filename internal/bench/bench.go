// Package bench regenerates every table and figure of the paper's
// evaluation (section 6) at laptop scale. Each experiment builds the
// same index structures over the same workload distributions the paper
// used — only the dataset sizes are scaled down (geometric sweeps
// preserved) — and reports the same series the figure plots: relative
// ratios, log-ratios, heights, sizes, and NN latencies. Every index is
// loaded through the routine the server's index adapter calls, in the
// end-to-end benchmark's 500-row statement batches (load), so the insert,
// height and size series describe the tree the server builds.
//
// All figure axes in the paper are ratios or structural quantities, not
// absolute times, so the reproduction target is the *shape*: who wins,
// by roughly what factor, and where the crossovers fall.
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/suffix"
)

// Config scales and seeds the experiments.
type Config struct {
	// Scale multiplies every dataset size (1.0 = the scaled-down
	// defaults, roughly 1/100 of the paper's; 100 reproduces the paper's
	// absolute sizes given enough time and memory).
	Scale float64
	// Seed drives all workload generation.
	Seed int64
	// PageSize is the page size for every structure (default 8 KB).
	PageSize int
	// PoolPages is the buffer-pool capacity per structure.
	PoolPages int
	// Queries is the number of probes per measurement.
	Queries int
}

// DefaultConfig returns the defaults used by cmd/spgist-bench.
func DefaultConfig() Config {
	return Config{Scale: 1, Seed: 42, PageSize: storage.DefaultPageSize, PoolPages: 2048, Queries: 200}
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.PageSize <= 0 {
		c.PageSize = storage.DefaultPageSize
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 2048
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c Config) sizes(base []int) []int {
	out := make([]int, len(base))
	for i, b := range base {
		n := int(float64(b) * c.Scale)
		if n < 100 {
			n = 100
		}
		out[i] = n
	}
	return out
}

func (c Config) pool() *storage.BufferPool {
	return storage.NewBufferPool("", storage.NewMem(c.PageSize), c.PoolPages)
}

// repacked returns a loaded SP-GiST tree repacked into a new pool, the
// tree the figures search, and panics if loading or repacking failed.
func (c Config) repacked(t *core.Tree, _ time.Duration, err error) *core.Tree {
	if err == nil {
		t, err = t.Repack(c.pool())
	}
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return t
}

// Series is one plotted line: Y[i] measured at X[i].
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one regenerated table/figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render prints the figure as an aligned text table. A figure without
// series (an experiment that could not run) prints its title and notes.
func (f *Figure) Render(w *strings.Builder) {
	fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(f.ID), f.Title)
	fmt.Fprintf(w, "  x-axis: %s   y-axis: %s\n", f.XLabel, f.YLabel)
	if len(f.Series) > 0 {
		fmt.Fprintf(w, "  %-12s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(w, " %16s", s.Name)
		}
		w.WriteString("\n")
		for i := range f.Series[0].X {
			fmt.Fprintf(w, "  %-12.0f", f.Series[0].X[i])
			for _, s := range f.Series {
				if i < len(s.Y) {
					fmt.Fprintf(w, " %16.3f", s.Y[i])
				} else {
					fmt.Fprintf(w, " %16s", "-")
				}
			}
			w.WriteString("\n")
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	w.WriteString("\n")
}

// Markdown renders the figure as a markdown table. A figure without
// series prints its heading and notes.
func (f *Figure) Markdown(w *strings.Builder) {
	fmt.Fprintf(w, "### %s — %s\n\n", strings.ToUpper(f.ID), f.Title)
	if len(f.Series) > 0 {
		fmt.Fprintf(w, "| %s |", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(w, " %s |", s.Name)
		}
		w.WriteString("\n|")
		for range f.Series {
			w.WriteString("---|")
		}
		w.WriteString("---|\n")
		for i := range f.Series[0].X {
			fmt.Fprintf(w, "| %.0f |", f.Series[0].X[i])
			for _, s := range f.Series {
				if i < len(s.Y) {
					fmt.Fprintf(w, " %.3f |", s.Y[i])
				} else {
					w.WriteString(" - |")
				}
			}
			w.WriteString("\n")
		}
		w.WriteString("\n")
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "*%s*\n\n", n)
	}
}

// statementRows is how many keys one load call carries: the end-to-end
// benchmark loads its tables in INSERT statements of 500 rows (loadBatch
// in benchmark/dataset.go), and the server hands each statement's keys to
// an index in one call. Loading in such batches makes a figure's tree the
// one the server builds.
const statementRows = 500

func benchRID(i int) heap.RID {
	return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)}
}

// load inserts keys[i] under benchRID(i), statementRows keys per call of
// insert, and returns the time the calls took.
func load[K any](keys []K, insert func([]K, []heap.RID) error) (time.Duration, error) {
	rids := make([]heap.RID, len(keys))
	for i := range rids {
		rids[i] = benchRID(i)
	}
	start := time.Now()
	for lo := 0; lo < len(keys); lo += statementRows {
		hi := min(lo+statementRows, len(keys))
		if err := insert(keys[lo:hi], rids[lo:hi]); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// LoadSPGiST creates an SP-GiST tree of oc over bp and loads keys into it
// through InsertBatch, the routine the server's index adapter calls.
func LoadSPGiST[K any](bp *storage.BufferPool, oc core.OpClass, keys []K) (*core.Tree, time.Duration, error) {
	t, err := core.Create(bp, oc)
	if err != nil {
		return nil, 0, err
	}
	vs := make([]core.Value, len(keys))
	for i, k := range keys {
		vs[i] = k
	}
	d, err := load(vs, t.InsertBatch)
	return t, d, err
}

// LoadSuffix creates a suffix tree over bp and loads words into it
// through suffix.Insert, which the server's suffix index calls.
func LoadSuffix(bp *storage.BufferPool, words []string) (*core.Tree, time.Duration, error) {
	t, err := core.Create(bp, suffix.New())
	if err != nil {
		return nil, 0, err
	}
	d, err := load(words, func(ws []string, rids []heap.RID) error { return suffix.Insert(t, ws, rids) })
	return t, d, err
}

// LoadBTree creates a B+-tree over bp and loads words into it through
// InsertBatch, the routine the server's index adapter calls.
func LoadBTree(bp *storage.BufferPool, words []string) (*btree.Tree, time.Duration, error) {
	t, err := btree.Create(bp)
	if err != nil {
		return nil, 0, err
	}
	d, err := load(words, func(ws []string, rids []heap.RID) error {
		pairs := make([]btree.Pair, len(ws))
		for i, w := range ws {
			pairs[i] = btree.Pair{Key: []byte(w), RID: rids[i]}
		}
		return t.InsertBatch(pairs)
	})
	return t, d, err
}

// LoadRTree creates an R-tree over bp and loads boxes into it through
// rtree.Tree.Insert, the engine's one R-tree insert routine, which takes
// one key per call.
func LoadRTree(bp *storage.BufferPool, boxes []geom.Box) (*rtree.Tree, time.Duration, error) {
	t, err := rtree.Create(bp)
	if err != nil {
		return nil, 0, err
	}
	d, err := load(boxes, func(bs []geom.Box, rids []heap.RID) error {
		for i, b := range bs {
			if err := t.Insert(b, rids[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return t, d, err
}

// measured couples the two cost metrics of one operation: warm wall time
// (the CPU-bound regime of modern in-memory runs) and distinct pages
// touched per query (the page reads a cold run would issue — the
// I/O-bound regime of the paper's 2005 measurements).
type measured struct {
	t     time.Duration
	pages float64
}

// measure times n runs of op, then repeats them under a page trace of bp,
// the index's file. The two passes keep tracing overhead out of the
// timings.
func measure(bp *storage.BufferPool, n int, op func(i int)) measured {
	d := timeOp(n, op)
	total := 0
	for i := 0; i < n; i++ {
		bp.StartPageTrace()
		op(i)
		total += bp.PageTraceCount()
	}
	return measured{t: d, pages: float64(total) / float64(n)}
}

func pageRatio(num, den measured) float64 {
	if den.pages <= 0 {
		return 0
	}
	return num.pages / den.pages
}

// timeOp measures the average wall time of one operation over n runs.
func timeOp(n int, op func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	if n == 0 {
		return 0
	}
	return time.Duration(int64(time.Since(start)) / int64(n))
}

// timePerOp measures each run separately (for standard deviations).
func timePerOp(n int, op func(i int)) []time.Duration {
	out := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		op(i)
		out[i] = time.Since(start)
	}
	return out
}

func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum float64
	for _, d := range ds {
		sum += d.Seconds()
	}
	return sum / float64(len(ds))
}

func stddev(ds []time.Duration) float64 {
	if len(ds) < 2 {
		return 0
	}
	m := mean(ds)
	var sum float64
	for _, d := range ds {
		diff := d.Seconds() - m
		sum += diff * diff
	}
	return math.Sqrt(sum / float64(len(ds)-1))
}

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Registry of all experiments.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) []Figure
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"table7", "External-method code size vs SP-GiST core", RunTable7},
		{"strings", "Figures 6-12: trie vs B+-tree on word data", RunStrings},
		{"points", "Figures 13-14: kd-tree vs R-tree on point data", RunPoints},
		{"segments", "Figure 15: PMR quadtree vs R-tree on segment data", RunSegments},
		{"suffix", "Figure 16: suffix tree vs sequential scan", RunSuffix},
		{"nn", "Figure 17: NN search across SP-GiST instantiations", RunNN},
		{"ablation", "Ablations: clustering, node shrink, bucket size", RunAblation},
	}
}

// Lookup finds an experiment by id, also accepting individual figure ids
// (fig6..fig17) by mapping them to their experiment group.
func Lookup(id string) (Experiment, bool) {
	alias := map[string]string{
		"fig6": "strings", "fig7": "strings", "fig8": "strings", "fig9": "strings",
		"fig10": "strings", "fig11": "strings", "fig12": "strings",
		"fig13": "points", "fig14": "points",
		"fig15": "segments",
		"fig16": "suffix",
		"fig17": "nn",
	}
	if mapped, ok := alias[strings.ToLower(id)]; ok {
		id = mapped
	}
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
