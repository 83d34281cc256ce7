package repro

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// BENCH_59.json is the committed baseline of the end-to-end benchmark:
// every workload × end_to_end metric of BENCHMARK.json, each the median of
// seeds 1–3 of `bash benchmark/run.sh --workload W --seed S --seconds 10
// --trace 0` with the three per-seed values beside it. The three count
// metrics repeat exactly at equal seed, so CI gates them; the timings are
// this machine's and are recorded, not gated.
//
//	mkdir -p .bench_build/runs
//	for w in point_warm point_cold scan_warm write_mix point_fresh; do for s in 1 2 3; do
//	  bash benchmark/run.sh --workload $w --seed $s --seconds 10 --trace 0 | tail -n 1 > .bench_build/runs/$w.$s.json
//	done; done
//	go test -run TestBenchBaseline -count=1 . -args -bench-runs=.bench_build/runs -bench-record   # writes the file
//	go test -run TestBenchBaseline -count=1 . -args -bench-runs=.bench_build/runs                  # gates the runs against it
const benchBaselineFile = "BENCH_59.json"

var (
	benchRuns   = flag.String("bench-runs", "", "directory of <workload>.<seed>.json files, each the last line benchmark/run.sh printed")
	benchRecord = flag.Bool("bench-record", false, "write "+benchBaselineFile+" from -bench-runs instead of gating against it")
)

// benchDecl is the part of BENCHMARK.json the baseline answers to.
type benchDecl struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

type benchValue struct {
	Unit   string             `json:"unit"`
	Median float64            `json:"median"`
	Seeds  map[string]float64 `json:"seeds"`
}

type benchBaseline struct {
	PR          int                              `json:"pr"`
	Description string                           `json:"description"`
	Command     string                           `json:"command"`
	Workloads   map[string]map[string]benchValue `json:"workloads"`
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// readRuns loads dir's <workload>.<seed>.json files: workload → metric →
// seed → value. A run that failed statements is refused.
func readRuns(t *testing.T, dir string) map[string]map[string]map[string]float64 {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "*.*.json"))
	runs := map[string]map[string]map[string]float64{}
	for _, path := range paths {
		var res struct {
			Correct bool
			Failed  int
			Metrics map[string]struct{ Value float64 }
		}
		readJSON(t, path, &res)
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: the run failed %d statements", path, res.Failed)
		}
		base := filepath.Base(path)
		seedExt := filepath.Ext(base[:len(base)-len(".json")])
		workload, seed := base[:len(base)-len(".json")-len(seedExt)], seedExt[1:]
		if runs[workload] == nil {
			runs[workload] = map[string]map[string]float64{}
		}
		for metric, m := range res.Metrics {
			if runs[workload][metric] == nil {
				runs[workload][metric] = map[string]float64{}
			}
			runs[workload][metric][seed] = m.Value
		}
	}
	return runs
}

// TestBenchBaseline checks that the committed baseline names every
// workload × end_to_end metric BENCHMARK.json declares, with seeds 1–3 and
// their median. Given -bench-runs it also gates those runs: a count metric
// (bound 2 %) worse than the baseline's value for the same seed by more
// than its bound fails; timings are printed beside the baseline only.
func TestBenchBaseline(t *testing.T) {
	var decl benchDecl
	readJSON(t, "BENCHMARK.json", &decl)
	if *benchRecord {
		recordBaseline(t, decl)
	}
	var base benchBaseline
	readJSON(t, benchBaselineFile, &base)
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			v, ok := base.Workloads[w.Name][m.Name]
			if !ok {
				t.Errorf("%s has no %s for %s", benchBaselineFile, m.Name, w.Name)
				continue
			}
			seeds := []float64{v.Seeds["1"], v.Seeds["2"], v.Seeds["3"]}
			if len(v.Seeds) != 3 || slices.Min(seeds) <= 0 || v.Unit != m.Unit {
				t.Errorf("%s %s: want seeds 1, 2, 3 in %s, have %v in %q", w.Name, m.Name, m.Unit, v.Seeds, v.Unit)
				continue
			}
			slices.Sort(seeds)
			if v.Median != seeds[1] {
				t.Errorf("%s %s: median %v is not the median of %v", w.Name, m.Name, v.Median, seeds)
			}
		}
	}
	if *benchRuns == "" || *benchRecord {
		return
	}
	gated := 0
	for workload, metrics := range readRuns(t, *benchRuns) {
		for _, m := range decl.EndToEnd {
			for seed, got := range metrics[m.Name] {
				want, ok := base.Workloads[workload][m.Name].Seeds[seed]
				if !ok {
					t.Errorf("%s seed %s: %s has no %s to gate against", workload, seed, benchBaselineFile, m.Name)
					continue
				}
				worse := got/want - 1
				if m.Better == "higher" {
					worse = want/got - 1
				}
				line := fmt.Sprintf("%s seed %s %s: %.6g against the baseline's %.6g (%+.2f %% worse, bound %g %%)", workload, seed, m.Name, got, want, 100*worse, 100*m.Bound)
				if m.Bound > 0.02 { // a timing: another machine's
					t.Log(line)
					continue
				}
				gated++
				if worse > m.Bound {
					t.Error(line)
				}
			}
		}
	}
	if gated == 0 {
		t.Errorf("-bench-runs=%s holds no run to gate", *benchRuns)
	}
}

// recordBaseline writes the baseline file from -bench-runs.
func recordBaseline(t *testing.T, decl benchDecl) {
	t.Helper()
	runs := readRuns(t, *benchRuns)
	base := benchBaseline{
		Description: "End-to-end benchmark baseline: every workload × end_to_end metric of BENCHMARK.json, median of seeds 1–3 (the per-seed values beside it). Count metrics repeat exactly at equal seed; timings are calibrated to the harness's reference op and belong to the machine that recorded them.",
		Command:     "bash benchmark/run.sh --workload W --seed S --seconds 10 --trace 0, S = 1, 2, 3; go test -run TestBenchBaseline . -args -bench-runs=DIR -bench-record",
		Workloads:   map[string]map[string]benchValue{},
	}
	if _, err := fmt.Sscanf(benchBaselineFile, "BENCH_%d.json", &base.PR); err != nil {
		t.Fatalf("%s: %v", benchBaselineFile, err)
	}
	for _, w := range decl.Workloads {
		base.Workloads[w.Name] = map[string]benchValue{}
		for _, m := range decl.EndToEnd {
			seeds := map[string]float64{}
			var vals []float64
			for s := 1; s <= 3; s++ {
				v, ok := runs[w.Name][m.Name][strconv.Itoa(s)]
				if !ok {
					t.Fatalf("-bench-runs=%s: no %s of %s at seed %d", *benchRuns, m.Name, w.Name, s)
				}
				seeds[strconv.Itoa(s)] = v
				vals = append(vals, v)
			}
			slices.Sort(vals)
			base.Workloads[w.Name][m.Name] = benchValue{Unit: m.Unit, Median: vals[1], Seeds: seeds}
		}
	}
	out, err := json.MarshalIndent(base, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchBaselineFile, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
