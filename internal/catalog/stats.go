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
	ColumnStats
}

// mcvTotal sums the stored MCV frequencies.
func (st TableStats) mcvTotal() float64 {
	tot := 0.0
	for _, f := range st.MCFreqs {
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
// bucket: numerically for INT/FLOAT, mid-bucket for VARCHAR (the
// PostgreSQL convert_to_scalar fallback). ok is false without a usable
// histogram for arg's type.
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
	frac := 0.5 // within-bucket position; mid-bucket unless numeric
	switch arg.Typ {
	case Int:
		if span := hist[i+1].I - hist[i].I; span > 0 {
			frac = float64(arg.I-hist[i].I) / float64(span)
		}
	case Float:
		if span := hist[i+1].F - hist[i].F; span > 0 {
			frac = (arg.F - hist[i].F) / span
		}
	}
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return (float64(i) + frac) / buckets, true
}

// rangeFraction is the min/max-only fallback of histogramFraction for
// numeric columns whose statistics carry no histogram.
func rangeFraction(st TableStats, arg Datum) (float64, bool) {
	if !st.HasRange {
		return 0, false
	}
	var pos, span float64
	switch arg.Typ {
	case Int:
		if arg.Typ != st.Min.Typ {
			return 0, false
		}
		pos, span = float64(arg.I-st.Min.I), float64(st.Max.I-st.Min.I)
	case Float:
		if arg.Typ != st.Min.Typ {
			return 0, false
		}
		pos, span = arg.F-st.Min.F, st.Max.F-st.Min.F
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
