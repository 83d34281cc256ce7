package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runAA is the A/A tool: it runs every workload n times on the same
// code, each run a fresh process on its own seed, splits the runs into
// two interleaved sets (odd and even), and prints for every gated
// metric on every workload both medians, their relative difference, the
// max/min over all runs and the spread the driver computes (the
// distance between the quartiles over the median). It returns non-zero
// if any difference exceeds half the metric's bound or any spread
// exceeds a third of it.
func runAA(n, seconds int, rundir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// runs[workload][metric] is the metric's value in each run, in order.
	runs := map[string]map[string][]float64{}
	for i := 1; i <= n; i++ {
		for _, w := range workloads {
			t0 := time.Now()
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.Itoa(i),
				"-seconds", strconv.Itoa(seconds), "-rundir", rundir, "-trace", "-1")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: run %d of %s: %v\n", i, w.name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: run %d of %s: bad result line (%v)\n", i, w.name, err)
				return 1
			}
			if runs[w.name] == nil {
				runs[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				runs[w.name][name] = append(runs[w.name][name], m.Value)
			}
			runs[w.name]["wall_s"] = append(runs[w.name]["wall_s"], time.Since(t0).Seconds())
			fmt.Fprintf(os.Stderr, "run %d/%d %s done in %.1f s\n", i, n, w.name, time.Since(t0).Seconds())
		}
	}

	bad := 0
	fmt.Printf("A/A study: %d runs of each workload on seeds 1..%d, %d s windows; set A is the odd runs, set B the even ones.\n\n", n, n, seconds)
	fmt.Println("| workload | metric | median A | median B | B vs A | max/min | IQR/median | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		for _, d := range endToEnd {
			all := runs[w.name][d.name]
			var a, b []float64
			for i, x := range all {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			q1, q3 := quartiles(all)
			spread := (q3 - q1) / median(all)
			flag := ""
			if abs(diff) > d.bound/2 || (d.name != "setup_s" && spread > d.bound/3) {
				flag = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.3f | %.2f%% | %.0f%% | %s |\n",
				w.name, d.name, ma, mb, 100*diff, slices.Max(all)/slices.Min(all), 100*spread, 100*d.bound, flag)
		}
	}
	fmt.Println("\n| workload | ref.us median | ref.us max/min over runs | ref.spread median (p90/p10 of the blocks within a run) |")
	fmt.Println("|---|---|---|---|")
	var refs []float64
	for _, w := range workloads {
		us := runs[w.name]["ref.us"]
		refs = append(refs, us...)
		fmt.Printf("| %s | %.2f | %.3f | %.3f |\n", w.name, median(us), slices.Max(us)/slices.Min(us), median(runs[w.name]["ref.spread"]))
	}
	fmt.Printf("\nMedian ref.us over all %d runs: %.2f (refUS is %.0f).\n", len(refs), median(refs), refUS)

	fmt.Println("\nEvery run (wall_s is the whole process: three set-ups, window, ladder):")
	for _, w := range workloads {
		fmt.Printf("\n| %s | %s |\n|---|%s\n", w.name, strings.Join(seq(n), " | "), strings.Repeat("---|", n))
		for _, name := range []string{"setup_s", "ops_per_s", "p50_us", "pages_per_op", "write_bytes_per_user_byte", "disk_bytes_per_user_byte", "raw.ops_per_s", "raw.p50_us", "raw.setup_s", "ref.us", "ref.spread", "wall_s"} {
			cells := make([]string, n)
			for i, x := range runs[w.name][name] {
				cells[i] = fmt.Sprintf("%.5g", x)
			}
			fmt.Printf("| %s | %s |\n", name, strings.Join(cells, " | "))
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d (metric, workload) pairs outside the A/A limits.\n", bad)
		return 1
	}
	return 0
}

func seq(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "seed " + strconv.Itoa(i+1)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
