package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// The smoke test runs every workload at a hundredth of its size and
// holds the output to BENCHMARK.json. It has no Benchmark functions:
// the timings of a run this small mean nothing.

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables holds BENCHMARK.json to the tables in
// metrics.go and workloads.go, so neither can drift from the other.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(list string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", list, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", list, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s[%d] %s: bound differs from the program's %v", list, i, d.name, d.bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)
}

var countMetrics = []string{"pages_per_op", "write_bytes_per_user_byte", "disk_bytes_per_user_byte"}

func smoke(t *testing.T, w *workload, seed int64) *result {
	t.Helper()
	res, err := runWorkload(w, seed, 4, 0.01, -1, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d: correct=%v, %d of %d statements failed", w.name, seed, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func TestSmoke(t *testing.T) {
	s := readSpec(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, again, other := smoke(t, w, 1), smoke(t, w, 1), smoke(t, w, 2)

			// Every metric BENCHMARK.json names, once, finite, well named.
			want := append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...)
			if len(a.Metrics) != len(want) {
				t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(a.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := a.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("metric %s is missing", d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("metric %s is %v", d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
				case !nameOK.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				}
			}
			for _, d := range s.EndToEnd {
				if a.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, a.Metrics[d.Name].Value)
				}
			}

			// The count metrics are exact: the same seed gives the same bits,
			// another seed another dataset.
			differs := false
			for _, name := range countMetrics {
				if x, y := a.Metrics[name].Value, again.Metrics[name].Value; x != y {
					t.Errorf("%s differs between two runs of seed 1: %v and %v", name, x, y)
				}
				differs = differs || a.Metrics[name].Value != other.Metrics[name].Value
			}
			if !differs {
				t.Errorf("seeds 1 and 2 gave identical count metrics")
			}
			if a.planKind == "" && w.name != "scan_warm" {
				t.Errorf("no plan kind reported")
			}
		})
	}
}
