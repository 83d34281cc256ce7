package obs

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func promLines(t *testing.T, r *Registry) (types map[string]string, values map[string]float64) {
	t.Helper()
	var sb strings.Builder
	WritePrometheus(&sb, r)
	types = make(map[string]string)
	values = make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		values[line[:sp]] = v
	}
	return types, values
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("exec_select_total").Add(7)
	r.Gauge("server_sessions_active").Set(3)
	h := r.Histogram("server_query_latency")
	h.Observe(500 * time.Nanosecond) // bucket 0 (le 1us)
	h.Observe(3 * time.Microsecond)  // bucket 2 (le 4us)
	h.Observe(20 * time.Second)      // catch-all
	r.Sample(func(emit func(string, int64)) {
		emit("wait_buf_pool_total", 9)
		emit("pool_pages", 64)
	})

	types, values := promLines(t, r)

	if types["exec_select_total"] != "counter" || values["exec_select_total"] != 7 {
		t.Errorf("exec_select_total: type %q value %g", types["exec_select_total"], values["exec_select_total"])
	}
	if types["server_sessions_active"] != "gauge" || values["server_sessions_active"] != 3 {
		t.Errorf("server_sessions_active: type %q value %g", types["server_sessions_active"], values["server_sessions_active"])
	}
	// Sampler values fold by the _total convention.
	if types["wait_buf_pool_total"] != "counter" || values["wait_buf_pool_total"] != 9 {
		t.Errorf("wait_buf_pool_total: type %q value %g", types["wait_buf_pool_total"], values["wait_buf_pool_total"])
	}
	if types["pool_pages"] != "gauge" {
		t.Errorf("pool_pages type = %q, want gauge", types["pool_pages"])
	}

	// Histogram: typed histogram, cumulative buckets ending in +Inf ==
	// _count, seconds units.
	if types["server_query_latency_seconds"] != "histogram" {
		t.Fatalf("histogram type = %q", types["server_query_latency_seconds"])
	}
	if got := values[`server_query_latency_seconds_bucket{le="+Inf"}`]; got != 3 {
		t.Errorf("+Inf bucket = %g, want 3", got)
	}
	if got := values["server_query_latency_seconds_count"]; got != 3 {
		t.Errorf("_count = %g, want 3", got)
	}
	if got := values[`server_query_latency_seconds_bucket{le="1e-06"}`]; got != 1 {
		t.Errorf(`le="1e-06" bucket = %g, want 1`, got)
	}
	// Buckets must be cumulative (monotone non-decreasing in le order).
	prev := -1.0
	for i := 0; i < histNumBkts; i++ {
		key := fmt.Sprintf(`server_query_latency_seconds_bucket{le="%g"}`, float64(BucketUpper(i))/1e9)
		v, ok := values[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %g < previous %g: not cumulative", key, v, prev)
		}
		prev = v
	}
	wantSum := (500*time.Nanosecond + 3*time.Microsecond + 20*time.Second).Seconds()
	if got := values["server_query_latency_seconds_sum"]; got < wantSum*0.99 || got > wantSum*1.01 {
		t.Errorf("_sum = %g, want ~%g", got, wantSum)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("exec_select_total")
	g := r.Gauge("server_sessions_active")
	h := r.Histogram("lat")
	c.Add(5)
	g.Set(2)
	h.Observe(time.Millisecond)
	hookRan := false
	r.OnReset(func() { hookRan = true })

	r.Reset()

	if c.Load() != 0 {
		t.Errorf("counter = %d after Reset, want 0", c.Load())
	}
	if g.Load() != 2 {
		t.Errorf("gauge = %d after Reset, want 2 (gauges are instantaneous)", g.Load())
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("histogram = (%d, %v) after Reset, want zeros", h.Count(), h.Sum())
	}
	if !hookRan {
		t.Error("OnReset hook did not run")
	}
}

// TestRatioHistogram checks the dimensionless histogram's two readouts:
// thousandths with a _milli suffix through Each, and a bare-named
// Prometheus histogram whose le bounds are plain, inclusive ratios — an
// exact estimate (1×) lands in le="1", apart from one 1.5× off.
func TestRatioHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.RatioHistogram("exec_plan_qerror")
	for _, q := range []float64{1, 1, 1.5, 2, 25} {
		h.ObserveRatio(q)
	}
	got := map[string]int64{}
	r.Each(func(name string, v int64) { got[name] = v })
	for name, want := range map[string]int64{
		"exec_plan_qerror_count":     5,
		"exec_plan_qerror_sum_milli": 30500,
		"exec_plan_qerror_p50_milli": 2000,  // 1 < q ≤ 2
		"exec_plan_qerror_p99_milli": 32000, // 16 < q ≤ 32
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	if _, ok := got["exec_plan_qerror_p50_ns"]; ok {
		t.Error("ratio histogram reported a _ns readout")
	}

	var b strings.Builder
	WritePrometheus(&b, r)
	out := b.String()
	for _, want := range []string{
		"# TYPE exec_plan_qerror histogram\n",
		"exec_plan_qerror_bucket{le=\"1\"} 2\n",
		"exec_plan_qerror_bucket{le=\"2\"} 4\n",
		"exec_plan_qerror_bucket{le=\"16\"} 4\n",
		"exec_plan_qerror_bucket{le=\"32\"} 5\n",
		"exec_plan_qerror_sum 30.5\n",
		"exec_plan_qerror_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
}
