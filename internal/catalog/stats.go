package catalog

import (
	"sort"
	"strings"
)

// This file holds the planner-statistics shapes shared by the executor
// (which collects them via sampled ANALYZE), the persistent system
// catalog (which stores them), and the restrict procedures in
// operator.go (which consume them) — the mini pg_statistic.

// MaxMCVs bounds the most-common-value list per column.
const MaxMCVs = 10

// HistogramBuckets is the equi-depth histogram resolution per column.
const HistogramBuckets = 10

// MaxStatWidth excludes very wide values from the stored MCV list,
// histogram, and min/max (they would bloat the catalog record toward
// the page limit); such values still count toward ndistinct. The
// executor's ANALYZE enforces it and additionally shrinks a finished
// record that still exceeds one catalog page.
const MaxStatWidth = 256

// ColumnStats is the per-column statistics record ANALYZE computes —
// the shape of one pg_statistic row.
type ColumnStats struct {
	// NDistinct estimates the number of distinct values (0 = unknown).
	NDistinct int64
	// NullFrac is the fraction of NULL values. The mini engine has no
	// NULLs today, so it is always 0, but the restrict procedures
	// honor it so the format does not change when NULLs arrive.
	NullFrac float64
	// HasRange reports that Min and Max are set (ordered types only).
	HasRange bool
	Min, Max Datum
	// MCVals/MCFreqs are the most-common values with their frequency
	// among all rows (parallel slices, frequency-descending).
	MCVals  []Datum
	MCFreqs []float64
	// Histogram holds equi-depth bucket bounds over the non-MCV values
	// of ordered types: len(Histogram)-1 buckets of equal row mass.
	Histogram []Datum
}

// TableStats is what a restrict procedure may consult: the live row
// count, the queried column's statistics, and how stale they are.
type TableStats struct {
	Rows int64
	// StaleFrac is the fraction of the table churned (inserted +
	// deleted) since the statistics were collected, clamped to [0,1].
	// Restrict procedures blend their estimate toward the type default
	// by this weight, discounting stale statistics gracefully; at 1 the
	// executor's planner re-samples the table rather than plan from it.
	StaleFrac float64
	// Column is the queried column's statistics, shared, not copied:
	// the planner points at the ones it published, which nobody changes.
	// nil means the column has none.
	Column *ColumnStats
}

// noColumnStats is the statistics of a column that has none: its zero
// NDistinct sends every restrict procedure to its default.
var noColumnStats ColumnStats

// column returns the statistics the restrict procedures read: st.Column,
// or noColumnStats when it is nil.
func (st TableStats) column() *ColumnStats {
	if st.Column == nil {
		return &noColumnStats
	}
	return st.Column
}

// mcvTotal sums the stored MCV frequencies.
func (cs *ColumnStats) mcvTotal() float64 {
	tot := 0.0
	for _, f := range cs.MCFreqs {
		tot += f
	}
	return tot
}

// Ordered reports whether a type has a linear order the histogram and
// min/max statistics can describe.
func Ordered(t Type) bool {
	switch t {
	case Int, Float, Text:
		return true
	}
	return false
}

// Compare orders two datums of the same ordered type; ok is false for
// unordered or mismatched types.
func Compare(a, b Datum) (cmp int, ok bool) {
	if a.Typ != b.Typ {
		return 0, false
	}
	switch a.Typ {
	case Int:
		switch {
		case a.I < b.I:
			return -1, true
		case a.I > b.I:
			return 1, true
		}
		return 0, true
	case Float:
		switch {
		case a.F < b.F:
			return -1, true
		case a.F > b.F:
			return 1, true
		}
		return 0, true
	case Text:
		return strings.Compare(a.S, b.S), true
	}
	return 0, false
}

// blend discounts a statistics-based estimate toward the type default
// by the staleness weight.
func blend(est, def, staleFrac float64) float64 {
	w := staleFrac
	if w < 0 {
		w = 0
	} else if w > 1 {
		w = 1
	}
	return (1-w)*est + w*def
}

// clampSel bounds a selectivity to a sane open interval.
func clampSel(sel float64) float64 {
	if sel < 1e-7 {
		return 1e-7
	}
	if sel > 1 {
		return 1
	}
	return sel
}

// histogramFraction estimates P(col < arg) (or <= when orEq) among the
// values the histogram describes, interpolating inside the containing
// bucket: numerically for INT/FLOAT, by the strings read as numbers for
// VARCHAR (stringFraction). ok is false without a usable histogram for
// arg's type.
func histogramFraction(hist []Datum, arg Datum, orEq bool) (float64, bool) {
	if len(hist) < 2 {
		return 0, false
	}
	if _, cmpOK := Compare(hist[0], arg); !cmpOK {
		return 0, false
	}
	lo := hist[0]
	hi := hist[len(hist)-1]
	if c, _ := Compare(arg, lo); c < 0 || (c == 0 && !orEq) {
		return 0, true
	}
	if c, _ := Compare(arg, hi); c > 0 || (c == 0 && orEq) {
		return 1, true
	}
	buckets := float64(len(hist) - 1)
	// Find the bucket [hist[i], hist[i+1]) containing arg.
	i := sort.Search(len(hist)-1, func(i int) bool {
		c, _ := Compare(hist[i+1], arg)
		return c > 0
	})
	if i >= len(hist)-1 {
		i = len(hist) - 2
	}
	frac := 0.5 // within-bucket position; mid-bucket when the bounds do not span
	switch arg.Typ {
	case Int:
		if span := hist[i+1].I - hist[i].I; span > 0 {
			frac = float64(arg.I-hist[i].I) / float64(span)
		}
	case Float:
		if span := hist[i+1].F - hist[i].F; span > 0 {
			frac = (arg.F - hist[i].F) / span
		}
	case Text:
		frac = stringFraction(hist[i].S, hist[i+1].S, arg.S)
	}
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return (float64(i) + frac) / buckets, true
}

// stringFraction places v inside the bucket [lo, hi) the way PostgreSQL's
// convert_string_to_scalar does. Past the prefix all three strings share,
// each reads as a fraction whose digits are its bytes, in a base spanning
// the bytes the bounds use — widened to all of A–Z, a–z or 0–9 when they
// touch one, and to printable ASCII when that is fewer than ten — and v
// lies where its number lies between lo's and hi's. A bucket whose bounds
// read alike puts v mid-bucket.
//
// Unlike PostgreSQL, v's bytes do not widen the base: the two ends of a
// prefix range are priced one call each, and the upper end's last byte is
// often one past the alphabet (the successor of "1009" is "100:"). Read in
// the bounds' base, clamped to the digit past the last, both ends read in
// one base and the range between them is the prefix's share.
func stringFraction(lo, hi, v string) float64 {
	rlo, rhi := 255, 0
	for _, s := range [...]string{lo, hi} {
		for i := 0; i < len(s); i++ {
			rlo, rhi = min(rlo, int(s[i])), max(rhi, int(s[i]))
		}
	}
	for _, r := range [...][2]int{{'A', 'Z'}, {'a', 'z'}, {'0', '9'}} {
		if rlo <= r[1] && rhi >= r[0] {
			rlo, rhi = min(rlo, r[0]), max(rhi, r[1])
		}
	}
	if rhi-rlo < 9 {
		rlo, rhi = ' ', 127
	}
	n := 0
	for n < len(lo) && n < len(hi) && n < len(v) && lo[n] == hi[n] && lo[n] == v[n] {
		n++
	}
	l, h := stringScalar(lo[n:], rlo, rhi), stringScalar(hi[n:], rlo, rhi)
	if h <= l {
		return 0.5
	}
	return (stringScalar(v[n:], rlo, rhi) - l) / (h - l)
}

// stringScalar reads s as a fraction in base rhi-rlo+1, one byte per digit,
// a byte outside [rlo, rhi] as the digit just outside. Twelve digits are
// more than a float64 resolves in any base of ten or more.
func stringScalar(s string, rlo, rhi int) float64 {
	base := float64(rhi - rlo + 1)
	num, denom := 0.0, base
	for i := 0; i < len(s) && i < 12; i++ {
		c := min(max(int(s[i]), rlo-1), rhi+1)
		num += float64(c-rlo) / denom
		denom *= base
	}
	return num
}

// rangeFraction is the min/max-only fallback of histogramFraction for
// numeric columns whose statistics carry no histogram.
func rangeFraction(cs *ColumnStats, arg Datum) (float64, bool) {
	if !cs.HasRange {
		return 0, false
	}
	var pos, span float64
	switch arg.Typ {
	case Int:
		if arg.Typ != cs.Min.Typ {
			return 0, false
		}
		pos, span = float64(arg.I-cs.Min.I), float64(cs.Max.I-cs.Min.I)
	case Float:
		if arg.Typ != cs.Min.Typ {
			return 0, false
		}
		pos, span = arg.F-cs.Min.F, cs.Max.F-cs.Min.F
	default:
		return 0, false
	}
	if span <= 0 {
		return 0.5, true
	}
	if pos < 0 {
		return 0, true
	}
	if pos > span {
		return 1, true
	}
	return pos / span, true
}

// successor returns the smallest string greater than every string with
// the given prefix — the upper bound of the prefix range [s, succ(s)).
// ok is false when no such string exists (all-0xff prefixes).
func successor(s string) (string, bool) {
	b := []byte(s)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
