package catalog

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func intHistogram(vals ...int64) []Datum {
	out := make([]Datum, len(vals))
	for i, v := range vals {
		out[i] = NewInt(v)
	}
	return out
}

func TestHistogramFraction(t *testing.T) {
	hist := intHistogram(0, 100, 200, 300, 400) // 4 equi-depth buckets
	cases := []struct {
		arg  int64
		want float64
	}{
		{-5, 0},    // below min
		{0, 0},     // at min
		{400, 1},   // at max
		{1000, 1},  // above max
		{200, 0.5}, // bucket boundary
		{50, .125}, // half-way through the first of four buckets
	}
	for _, c := range cases {
		got, ok := histogramFraction(hist, NewInt(c.arg), false)
		if !ok {
			t.Fatalf("histogramFraction(%d) not ok", c.arg)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("histogramFraction(%d) = %g, want %g", c.arg, got, c.want)
		}
	}
	if _, ok := histogramFraction(nil, NewInt(1), false); ok {
		t.Error("empty histogram should not answer")
	}
	if _, ok := histogramFraction(hist, NewPoint(geom.Point{X: 1, Y: 2}), false); ok {
		t.Error("unordered type should not answer")
	}
}

func TestScalarIneqSelDirections(t *testing.T) {
	st := TableStats{
		Rows: 1000,
		Column: &ColumnStats{
			NDistinct: 1000,
			Histogram: intHistogram(0, 250, 500, 750, 1000),
			HasRange:  true,
			Min:       NewInt(0),
			Max:       NewInt(1000),
		},
	}
	lt := ScalarIneqSel(st, NewInt(250), true, false)
	gt := ScalarIneqSel(st, NewInt(250), false, false)
	if math.Abs(lt-0.25) > 0.01 {
		t.Errorf("P(col < 250) = %g, want ≈0.25", lt)
	}
	if math.Abs(gt-0.75) > 0.01 {
		t.Errorf("P(col > 250) = %g, want ≈0.75", gt)
	}
	if math.Abs((lt+gt)-1) > 0.01 {
		t.Errorf("lt+gt = %g, want ≈1", lt+gt)
	}
	// Out-of-range constants clamp to the selectivity floor / ceiling.
	if s := ScalarIneqSel(st, NewInt(-50), true, false); s > 0.001 {
		t.Errorf("P(col < min) = %g, want ≈0", s)
	}
	if s := ScalarIneqSel(st, NewInt(5000), true, false); s < 0.999 {
		t.Errorf("P(col < huge) = %g, want ≈1", s)
	}
	// Without statistics: the PostgreSQL default.
	if s := ScalarIneqSel(TableStats{}, NewInt(1), true, false); s != DefaultIneqSel {
		t.Errorf("default = %g", s)
	}
}

func TestScalarIneqSelMCVAndRangeFallback(t *testing.T) {
	// MCVs only (no histogram): masses below the constant count.
	st := TableStats{
		Rows: 100,
		Column: &ColumnStats{
			NDistinct: 3,
			MCVals:    []Datum{NewInt(1), NewInt(2), NewInt(3)},
			MCFreqs:   []float64{0.5, 0.3, 0.2},
		},
	}
	if s := ScalarIneqSel(st, NewInt(2), true, false); math.Abs(s-0.5) > 1e-9 {
		t.Errorf("MCV-only P(col < 2) = %g, want 0.5", s)
	}
	if s := ScalarIneqSel(st, NewInt(2), true, true); math.Abs(s-0.8) > 1e-9 {
		t.Errorf("MCV-only P(col <= 2) = %g, want 0.8", s)
	}
	// Numeric min/max without a histogram interpolates linearly.
	rg := TableStats{
		Rows: 100,
		Column: &ColumnStats{
			NDistinct: 100,
			HasRange:  true,
			Min:       NewInt(0),
			Max:       NewInt(100),
		},
	}
	if s := ScalarIneqSel(rg, NewInt(25), true, false); math.Abs(s-0.25) > 1e-9 {
		t.Errorf("range-only P(col < 25) = %g, want 0.25", s)
	}
}

func TestEqSelConsultsMCVs(t *testing.T) {
	st := TableStats{
		Rows: 1000,
		Column: &ColumnStats{
			NDistinct: 101,
			MCVals:    []Datum{NewText("common")},
			MCFreqs:   []float64{0.7},
		},
	}
	if s := EqSel(st, NewText("common")); s != 0.7 {
		t.Errorf("MCV hit = %g, want 0.7", s)
	}
	// A miss spreads the remaining 30% over the other 100 values.
	if s := EqSel(st, NewText("rare")); math.Abs(s-0.003) > 1e-9 {
		t.Errorf("MCV miss = %g, want 0.003", s)
	}
}

func TestLikeSelPrefixUsesStats(t *testing.T) {
	st := TableStats{
		Rows: 1000,
		Column: &ColumnStats{
			NDistinct: 500,
			MCVals:    []Datum{NewText("walnut")},
			MCFreqs:   []float64{0.4},
			Histogram: []Datum{NewText("aaa"), NewText("mmm"), NewText("zzz")},
		},
	}
	// The MCV carries the prefix: its exact frequency counts.
	if s := LikeSel(st, NewText("wal")); s < 0.4 {
		t.Errorf("prefix matching an MCV = %g, want >= 0.4", s)
	}
	// A prefix past the histogram's range selects almost nothing.
	if s := LikeSel(st, NewText("zzzz")); s > 0.01 {
		t.Errorf("out-of-range prefix = %g, want tiny", s)
	}
}

func TestStaleFracBlendsTowardDefault(t *testing.T) {
	st := TableStats{
		Rows: 1000,
		Column: &ColumnStats{
			NDistinct: 11,
			MCVals:    []Datum{NewText("common")},
			MCFreqs:   []float64{0.9},
		},
	}
	fresh := EqSel(st, NewText("common"))
	st.StaleFrac = 0.5
	half := EqSel(st, NewText("common"))
	st.StaleFrac = 1
	dead := EqSel(st, NewText("common"))
	if !(fresh > half && half > dead) {
		t.Errorf("staleness should decay the estimate: %g, %g, %g", fresh, half, dead)
	}
	// The blend is linear in the staleness weight: half stale is the
	// midpoint of the statistics' answer and the default.
	if want := 0.5*0.9 + 0.5*DefaultEqSel; math.Abs(half-want) > 1e-12 {
		t.Errorf("50%% stale estimate = %g, want the even blend %g", half, want)
	}
	// Fully stale statistics contribute nothing. (The executor never
	// plans from this state for long: at weight 1 it re-samples.)
	if dead != DefaultEqSel {
		t.Errorf("fully stale estimate = %g, want the default", dead)
	}
}

func TestSuccessor(t *testing.T) {
	if s, ok := successor("abc"); !ok || s != "abd" {
		t.Errorf("successor(abc) = %q %v", s, ok)
	}
	if s, ok := successor("ab\xff"); !ok || s != "ac" {
		t.Errorf("successor(ab\\xff) = %q %v", s, ok)
	}
	if _, ok := successor("\xff\xff"); ok {
		t.Error("successor of all-0xff should not exist")
	}
}

// Shrunk statistics (MCVs survive, histogram and range dropped) must
// price the non-MCV mass at the inequality default, not zero.
func TestScalarIneqSelShrunkStatsKeepRemainderMass(t *testing.T) {
	st := TableStats{
		Rows: 1000,
		Column: &ColumnStats{
			NDistinct: 100,
			MCVals:    []Datum{NewText("mmm")},
			MCFreqs:   []float64{0.1},
		},
	}
	// ~All rows sort below "zzy"; without histogram or range the best
	// estimate is MCV mass below + default share of the remaining 0.9.
	lo := 0.1 + DefaultIneqSel*0.9
	if s := ScalarIneqSel(st, NewText("zzy"), true, false); math.Abs(s-lo) > 1e-9 {
		t.Errorf("P(col < zzy) = %g, want %g (MCV + default remainder)", s, lo)
	}
	hi := 1 - DefaultIneqSel*0.9
	if s := ScalarIneqSel(st, NewText("aab"), false, false); math.Abs(s-hi) > 1e-9 {
		t.Errorf("P(col > aab) = %g, want %g (complement keeps remainder)", s, hi)
	}
}
