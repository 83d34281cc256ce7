package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4) for the /metrics endpoint. Counters and sampler
// values whose names end in _total are typed counter, other scalars
// (labelled sampler series among them) gauge; histograms are exposed as
// native Prometheus histograms under
// <name>_seconds, with the registry's power-of-two nanosecond buckets
// converted to cumulative le-labelled buckets in seconds (ratio
// histograms: under their bare name, le bounds in plain ratio units).
func WritePrometheus(w io.Writer, r *Registry) {
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Load()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Load()
	}
	type histDump struct {
		buckets [histNumBkts + 1]int64
		count   int64
		sumNs   int64
		unit    histUnit
	}
	hists := make(map[string]histDump, len(r.histograms))
	for name, h := range r.histograms {
		var d histDump
		for i := range h.buckets {
			d.buckets[i] = h.buckets[i].Load()
		}
		d.count = h.count.Load()
		d.sumNs = h.sum.Load()
		d.unit = h.unit
		hists[name] = d
	}
	samplers := r.samplers
	r.mu.Unlock()

	// Sampler values fold into the scalar maps by name convention.
	for _, s := range samplers {
		s(func(name string, value int64) {
			if strings.HasSuffix(name, "_total") {
				counters[name] = value
			} else {
				gauges[name] = value
			}
		})
	}

	// A sampler may emit a labelled series (name{label="value"}): the
	// series of one family are grouped under a single TYPE line.
	family := func(name string) string {
		fam, _, _ := strings.Cut(name, "{")
		return fam
	}
	scalar := func(m map[string]int64, typ string) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if fi, fj := family(names[i]), family(names[j]); fi != fj {
				return fi < fj
			}
			return names[i] < names[j]
		})
		for i, name := range names {
			if fam := family(name); i == 0 || fam != family(names[i-1]) {
				fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ)
			}
			fmt.Fprintf(w, "%s %d\n", name, m[name])
		}
	}
	scalar(counters, "counter")
	scalar(gauges, "gauge")

	histNames := make([]string, 0, len(hists))
	for name := range hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		d := hists[name]
		pname, unit := name+d.unit.prom, d.unit.per
		fmt.Fprintf(w, "# TYPE %s histogram\n", pname)
		cum := int64(0)
		for i := 0; i <= histNumBkts; i++ {
			cum += d.buckets[i]
			if i == histNumBkts {
				fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pname, cum)
			} else {
				le := float64(BucketUpper(i)) / unit
				fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pname, le, cum)
			}
		}
		fmt.Fprintf(w, "%s_sum %g\n", pname, float64(d.sumNs)/unit)
		fmt.Fprintf(w, "%s_count %d\n", pname, d.count)
	}
}
