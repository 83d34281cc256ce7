// Command spgist-bench regenerates the paper's evaluation: every figure
// (6-17) and Table 7, at laptop scale.
//
// Usage:
//
//	spgist-bench -exp all                 # everything, text output
//	spgist-bench -exp fig13               # one figure (its group runs)
//	spgist-bench -exp strings -scale 10   # 10x larger datasets
//	spgist-bench -exp all -md             # markdown instead of text tables
//
// Latency, throughput and I/O counts over the whole server are measured
// by the end-to-end benchmark under benchmark/, not here.
//
// Dataset sizes default to roughly 1/100 of the paper's; -scale 100
// reproduces the original sizes given time and memory. All figure axes
// are ratios or structural quantities, so the shape of each curve is the
// reproduction target, not absolute milliseconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: all, table7, strings, points, segments, suffix, nn, ablation, or fig6..fig17")
		scale   = flag.Float64("scale", 1, "dataset size multiplier (100 = paper scale)")
		seed    = flag.Int64("seed", 42, "workload seed")
		queries = flag.Int("queries", 200, "probes per measurement")
		md      = flag.Bool("md", false, "emit markdown instead of text tables")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Queries = *queries

	var exps []bench.Experiment
	if strings.EqualFold(*exp, "all") {
		exps = bench.All()
	} else {
		e, ok := bench.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	var out strings.Builder
	for _, e := range exps {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.ID, e.Title)
		for _, fig := range e.Run(cfg) {
			if *md {
				fig.Markdown(&out)
			} else {
				fig.Render(&out)
			}
		}
	}
	fmt.Print(out.String())
}
