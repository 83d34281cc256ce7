package executor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/geom"
)

// computeColumnStatsReference is computeColumnStats as it was before it
// sorted the sample: two maps keyed by each value's text form, one
// counting it and one holding its last row, then a sort of the non-MCV
// datums for the histogram. TestComputeColumnStatsMatchesReference holds
// the two to the same statistics.
func computeColumnStatsReference(typ catalog.Type, column int, sample []catalog.Tuple, totalRows int64) catalog.ColumnStats {
	var cs catalog.ColumnStats
	n := len(sample)
	if n == 0 {
		return cs
	}
	counts := make(map[string]int, n)
	vals := make(map[string]catalog.Datum, n)
	for _, tup := range sample {
		d := tup[column]
		k := d.String()
		counts[k]++
		vals[k] = d
	}
	d := len(counts)
	f1 := 0
	for _, c := range counts {
		if c == 1 {
			f1++
		}
	}
	if int64(n) >= totalRows || f1 == 0 {
		cs.NDistinct = int64(d)
	} else {
		denom := float64(n) - float64(f1) + float64(f1)*float64(n)/float64(totalRows)
		est := float64(n) * float64(d) / denom
		cs.NDistinct = int64(math.Round(est))
	}
	if cs.NDistinct < int64(d) {
		cs.NDistinct = int64(d)
	}
	if cs.NDistinct > totalRows && totalRows > 0 {
		cs.NDistinct = totalRows
	}
	type vc struct {
		key string
		cnt int
	}
	var common []vc
	for k, c := range counts {
		if v := vals[k]; c > 1 && storableStat(&v) {
			common = append(common, vc{k, c})
		}
	}
	sort.Slice(common, func(i, j int) bool {
		if common[i].cnt != common[j].cnt {
			return common[i].cnt > common[j].cnt
		}
		return common[i].key < common[j].key
	})
	if len(common) > catalog.MaxMCVs {
		common = common[:catalog.MaxMCVs]
	}
	inMCV := make(map[string]bool, len(common))
	for _, c := range common {
		cs.MCVals = append(cs.MCVals, vals[c.key])
		cs.MCFreqs = append(cs.MCFreqs, float64(c.cnt)/float64(n))
		inMCV[c.key] = true
	}
	if !catalog.Ordered(typ) {
		return cs
	}
	var rest []catalog.Datum
	for _, tup := range sample {
		d := tup[column]
		if !storableStat(&d) {
			continue
		}
		if !cs.HasRange {
			cs.Min, cs.Max, cs.HasRange = d, d, true
		} else {
			if c, _ := catalog.Compare(d, cs.Min); c < 0 {
				cs.Min = d
			}
			if c, _ := catalog.Compare(d, cs.Max); c > 0 {
				cs.Max = d
			}
		}
		if !inMCV[d.String()] {
			rest = append(rest, d)
		}
	}
	if len(rest) >= 2 {
		sort.Slice(rest, func(i, j int) bool {
			c, _ := catalog.Compare(rest[i], rest[j])
			return c < 0
		})
		buckets := catalog.HistogramBuckets
		if len(rest)-1 < buckets {
			buckets = len(rest) - 1
		}
		for i := 0; i <= buckets; i++ {
			cs.Histogram = append(cs.Histogram, rest[i*(len(rest)-1)/buckets])
		}
	}
	return cs
}

// sameBits reports whether two datums are the same bit for bit: a NaN
// equals a NaN of the same payload, and −0 does not equal 0.
func sameBits(a, b catalog.Datum) bool {
	fb := math.Float64bits
	pb := func(p, q geom.Point) bool { return fb(p.X) == fb(q.X) && fb(p.Y) == fb(q.Y) }
	return a.Typ == b.Typ && a.I == b.I && fb(a.F) == fb(b.F) && a.S == b.S && pb(a.P, b.P) &&
		pb(a.B.Min, b.B.Min) && pb(a.B.Max, b.B.Max) && pb(a.G.A, b.G.A) && pb(a.G.B, b.G.B)
}

// sameColumnStats names the first field in which two statistics differ.
func sameColumnStats(got, want catalog.ColumnStats) error {
	sameList := func(what string, g, w []catalog.Datum) error {
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d values, want %d (%v / %v)", what, len(g), len(w), g, w)
		}
		for i := range g {
			if !sameBits(g[i], w[i]) {
				return fmt.Errorf("%s[%d] = %#v, want %#v", what, i, g[i], w[i])
			}
		}
		return nil
	}
	switch {
	case got.NDistinct != want.NDistinct:
		return fmt.Errorf("NDistinct %d, want %d", got.NDistinct, want.NDistinct)
	case got.NullFrac != want.NullFrac:
		return fmt.Errorf("NullFrac %g, want %g", got.NullFrac, want.NullFrac)
	case got.HasRange != want.HasRange || !sameBits(got.Min, want.Min) || !sameBits(got.Max, want.Max):
		return fmt.Errorf("range %v [%#v, %#v], want %v [%#v, %#v]", got.HasRange, got.Min, got.Max, want.HasRange, want.Min, want.Max)
	case len(got.MCFreqs) != len(want.MCFreqs):
		return fmt.Errorf("%d MCV frequencies, want %d", len(got.MCFreqs), len(want.MCFreqs))
	}
	for i := range got.MCFreqs {
		if got.MCFreqs[i] != want.MCFreqs[i] {
			return fmt.Errorf("MCFreqs[%d] = %g, want %g", i, got.MCFreqs[i], want.MCFreqs[i])
		}
	}
	if err := sameList("MCVals", got.MCVals, want.MCVals); err != nil {
		return err
	}
	return sameList("Histogram", got.Histogram, want.Histogram)
}

// TestComputeColumnStatsMatchesReference holds the sorted, map-free
// statistics to the map-based ones they replaced, field by field and bit
// for bit, on random INT, FLOAT, VARCHAR and POINT samples: small and
// large domains (heavy duplicates, MCV count ties, text order against
// numeric order), values wider than MaxStatWidth, samples smaller than
// the table, and the floats that print unlike they compare — NaN of two
// payloads, −0 beside 0, ±Inf. The statistics are persisted and plans hang
// on them, so the rewrite must not move one of them.
func TestComputeColumnStatsMatchesReference(t *testing.T) {
	nan2 := math.Float64frombits(0xfff8000000000000) // math.NaN() is 0x7ff8000000000001
	floats := []float64{math.NaN(), nan2, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1e21, 1e-5, -2.5, 3}
	gen := map[catalog.Type]func(r *rand.Rand, domain int) catalog.Datum{
		catalog.Int: func(r *rand.Rand, domain int) catalog.Datum {
			return catalog.NewInt(int64(r.Intn(domain) - domain/3))
		},
		catalog.Float: func(r *rand.Rand, domain int) catalog.Datum {
			if r.Intn(3) == 0 {
				return catalog.NewFloat(floats[r.Intn(len(floats))])
			}
			return catalog.NewFloat(float64(r.Intn(domain)-domain/2) / 4)
		},
		catalog.Text: func(r *rand.Rand, domain int) catalog.Datum {
			v := r.Intn(domain)
			if v%7 == 0 { // wide: counted, never stored
				return catalog.NewText(strings.Repeat("w", catalog.MaxStatWidth+1+v%3))
			}
			s := fmt.Sprintf("%06x", v*2654435761%1000003)
			return catalog.NewText(s[:1+v%len(s)])
		},
		catalog.Point: func(r *rand.Rand, domain int) catalog.Datum {
			c := func() float64 {
				if r.Intn(8) == 0 {
					return floats[r.Intn(len(floats))]
				}
				return float64(r.Intn(domain))
			}
			return catalog.NewPoint(geom.Point{X: c(), Y: c()})
		},
	}
	cases := 0
	for _, typ := range []catalog.Type{catalog.Int, catalog.Float, catalog.Text, catalog.Point} {
		for seed := int64(1); seed <= 60; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := []int{0, 1, 2, 3, 11, 40, 300, 3000}[r.Intn(8)]
			domain := []int{1, 2, 5, 30, 400, 100000}[r.Intn(6)]
			sample := make([]catalog.Tuple, n)
			for i := range sample {
				sample[i] = catalog.Tuple{catalog.NewInt(int64(i)), gen[typ](r, domain)}
			}
			total := int64(n)
			if r.Intn(2) == 0 {
				total *= int64(2 + r.Intn(50)) // the sample is a part of the table
			}
			got := computeColumnStats(typ, 1, sample, total)
			want := computeColumnStatsReference(typ, 1, sample, total)
			if err := sameColumnStats(got, want); err != nil {
				t.Fatalf("%v, seed %d, %d rows of %d, domain %d: %v", typ, seed, n, total, domain, err)
			}
			cases++
		}
	}
	t.Logf("%d samples agree", cases)
}
