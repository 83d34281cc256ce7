package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one counter, one gauge, and one
// histogram from many goroutines while a reader scrapes — the -race
// pin for the registry's lock-cheap design.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Each(func(string, int64) {})
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			c := r.Counter("test_counter")
			g := r.Gauge("test_gauge")
			h := r.Histogram("test_hist")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	writers.Wait()
	close(stop)
	scraper.Wait()

	if got := r.Counter("test_counter").Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("test_gauge").Load(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("test_hist").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestRegistryGetOrCreate checks that repeated lookups return the same
// metric instance.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("c") != r.Histogram("c") {
		t.Fatal("Histogram not idempotent")
	}
}

// TestHistogramBucketBoundaries pins the bucket mapping at the exact
// edges: 0, the 1us floor, each power-of-two boundary and one past it,
// and the catch-all.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},       // first full us
		{2*time.Microsecond - 1, 1}, // still < 2us
		{2 * time.Microsecond, 2},   // 2 full us
		{4*time.Microsecond - 1, 2}, //
		{4 * time.Microsecond, 3},   //
		{time.Millisecond, 10},      // 1000us -> bucket 10 (upper 1024us)
		{time.Second, 20},           // ~1.0486e6 us -> bucket 20
		{time.Hour, histNumBkts},    // catch-all
		{-time.Second, 0},           // negative clamps to 0
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// BucketUpper sanity: bucket i's upper bound is 1us<<i, catch-all
	// reports negative.
	if BucketUpper(0) != time.Microsecond {
		t.Errorf("BucketUpper(0) = %v, want 1us", BucketUpper(0))
	}
	if BucketUpper(3) != 8*time.Microsecond {
		t.Errorf("BucketUpper(3) = %v, want 8us", BucketUpper(3))
	}
	if BucketUpper(histNumBkts) >= 0 {
		t.Errorf("BucketUpper(catch-all) = %v, want negative", BucketUpper(histNumBkts))
	}
}

// TestHistogramQuantiles checks the quantile readout against a known
// distribution: 90 fast samples and 10 slow ones.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond) // bucket 2, upper bound 4us
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Microsecond) // bucket 10, upper bound 1024us
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got := h.Quantile(0.50); got != 4*time.Microsecond {
		t.Errorf("p50 = %v, want 4us", got)
	}
	if got := h.Quantile(0.95); got != 1024*time.Microsecond {
		t.Errorf("p95 = %v, want 1024us", got)
	}
	if got := h.Quantile(0.99); got != 1024*time.Microsecond {
		t.Errorf("p99 = %v, want 1024us", got)
	}
	// Sanity on the snapshot wrapper.
	s := h.Snapshot()
	if s.P50 != 4*time.Microsecond || s.P99 != 1024*time.Microsecond {
		t.Errorf("snapshot quantiles = %+v", s)
	}
	wantSum := 90*3*time.Microsecond + 10*900*time.Microsecond
	if s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramEmpty checks that an empty histogram reads as zeros.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should read as zeros")
	}
}

// TestRegistrySampler checks that sampler callbacks contribute to the
// readout, sorted by name with the registry's own metrics.
func TestRegistrySampler(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_native").Add(7)
	r.Sample(func(emit func(string, int64)) {
		emit("aa_sampled", 42)
	})
	var sb strings.Builder
	r.Each(func(name string, value int64) { fmt.Fprintf(&sb, "%s %d\n", name, value) })
	got := sb.String()
	want := "aa_sampled 42\nzz_native 7\n"
	if got != want {
		t.Fatalf("Each = %q, want %q", got, want)
	}
}
