package catalog

import (
	"strings"

	"repro/internal/trie"
)

// Selectivity constants, after PostgreSQL's defaults: the restrict
// procedures the paper wires into its operator definitions (Table 4)
// resolve to these when no statistics are available.
const (
	DefaultEqSel    = 0.005  // eqsel: equality operators
	DefaultMatchSel = 0.005  // likesel: pattern-match operators
	DefaultContSel  = 0.001  // contsel: containment operators
	DefaultIneqSel  = 0.3333 // scalarltsel/scalargtsel: inequalities
)

// RestrictProc estimates the fraction of rows an operator selects — the
// procedures named in the paper's Table 4 restrict clauses.
type RestrictProc func(st TableStats, arg Datum) float64

// EqSel is PostgreSQL's eqsel. With statistics it consults the MCV list
// first (an equality against a common value has a known frequency) and
// spreads the remaining mass over the remaining distinct values; without
// statistics it falls back to the default.
func EqSel(st TableStats, arg Datum) float64 {
	cs := st.column()
	if cs.NDistinct <= 0 {
		return DefaultEqSel
	}
	mcvTot := cs.mcvTotal()
	for i, v := range cs.MCVals {
		if v.Equal(arg) {
			return clampSel(blend(cs.MCFreqs[i], DefaultEqSel, st.StaleFrac))
		}
	}
	est := 0.0
	if rest := cs.NDistinct - int64(len(cs.MCVals)); rest > 0 {
		est = (1 - cs.NullFrac - mcvTot) / float64(rest)
	}
	return clampSel(blend(est, DefaultEqSel, st.StaleFrac))
}

// LikeSel is PostgreSQL's likesel for the anchored prefix operator '#='.
// With statistics it treats the prefix as the range [p, successor(p)) —
// MCV matches contribute their exact frequencies, the histogram bounds
// the non-MCV mass. Without statistics longer literal prefixes select
// fewer rows, as before.
func LikeSel(st TableStats, arg Datum) float64 {
	cs := st.column()
	if arg.Typ != Text {
		return DefaultMatchSel
	}
	def := prefixDefaultSel(arg.S)
	if cs.NDistinct <= 0 {
		return def
	}
	est := 0.0
	for i, v := range cs.MCVals {
		if strings.HasPrefix(v.S, arg.S) {
			est += cs.MCFreqs[i]
		}
	}
	rangeOK := false
	if upper, ok := successor(arg.S); ok {
		loFrac, okLo := histogramFraction(cs.Histogram, NewText(arg.S), false)
		hiFrac, okHi := histogramFraction(cs.Histogram, NewText(upper), false)
		if okLo && okHi {
			rangeOK = true
			if hiFrac > loFrac {
				est += (hiFrac - loFrac) * (1 - cs.NullFrac - cs.mcvTotal())
			}
		}
	}
	if !rangeOK {
		// No histogram covers the non-MCV mass; without MCVs either the
		// statistics say nothing about this prefix — use the heuristic —
		// and with them, price the remaining mass heuristically.
		if len(cs.MCVals) == 0 {
			return def
		}
		est += def * (1 - cs.NullFrac - cs.mcvTotal())
	}
	return clampSel(blend(est, def, st.StaleFrac))
}

// prefixDefaultSel is the statistics-free LikeSel heuristic: every
// literal prefix character halves the estimate.
func prefixDefaultSel(pattern string) float64 {
	lit := 0
	for lit < len(pattern) && pattern[lit] != '?' {
		lit++
	}
	sel := DefaultMatchSel
	for i := 0; i < lit && i < 4; i++ {
		sel *= 0.5
	}
	return clampSel(sel)
}

// ContainsSel estimates the substring operator '@='. Substring matches
// have no range form, so only the MCV list is consulted; the remaining
// mass uses the pattern-length heuristic.
func ContainsSel(st TableStats, arg Datum) float64 {
	cs := st.column()
	if arg.Typ != Text {
		return DefaultMatchSel
	}
	def := prefixDefaultSel(arg.S)
	if cs.NDistinct <= 0 || len(cs.MCVals) == 0 {
		return def
	}
	est := 0.0
	for i, v := range cs.MCVals {
		if strings.Contains(v.S, arg.S) {
			est += cs.MCFreqs[i]
		}
	}
	est += def * (1 - cs.NullFrac - cs.mcvTotal())
	return clampSel(blend(est, def, st.StaleFrac))
}

// MatchSel estimates '?=' wildcard patterns: the match is anchored to the
// full key length, so every literal character prunes the candidates. With
// statistics, MCVs matching the pattern contribute exact frequencies.
func MatchSel(st TableStats, arg Datum) float64 {
	cs := st.column()
	def := 1.0
	for i := 0; i < len(arg.S); i++ {
		if arg.S[i] != '?' {
			def /= 8
		}
	}
	if def > DefaultMatchSel {
		def = DefaultMatchSel
	}
	def = clampSel(def)
	if cs.NDistinct <= 0 || len(cs.MCVals) == 0 {
		return def
	}
	est := 0.0
	for i, v := range cs.MCVals {
		if trie.MatchPattern(v.S, arg.S) {
			est += cs.MCFreqs[i]
		}
	}
	est += def * (1 - cs.NullFrac - cs.mcvTotal())
	return clampSel(blend(est, def, st.StaleFrac))
}

// ContSel is PostgreSQL's contsel for containment/overlap operators.
func ContSel(_ TableStats, _ Datum) float64 { return DefaultContSel }

// ScalarIneqSel is PostgreSQL's scalarltsel/scalargtsel: P(col < arg)
// (or <=, >, >= per the flags) estimated from the MCV list plus
// histogram interpolation, with a min/max linear fallback for numeric
// columns without a histogram.
func ScalarIneqSel(st TableStats, arg Datum, wantLt, orEq bool) float64 {
	cs := st.column()
	if cs.NDistinct <= 0 {
		return DefaultIneqSel
	}
	mcvTot := cs.mcvTotal()
	mcvBelow := 0.0
	for i, v := range cs.MCVals {
		c, ok := Compare(v, arg)
		if !ok {
			return DefaultIneqSel
		}
		if c < 0 || (c == 0 && orEq == wantLt) {
			// For <= count equality below; for > the complement (1-selLE)
			// must exclude equality, handled by flipping orEq here.
			mcvBelow += cs.MCFreqs[i]
		}
	}
	frac, ok := histogramFraction(cs.Histogram, arg, orEq == wantLt)
	if !ok {
		frac, ok = rangeFraction(cs, arg)
	}
	if !ok {
		if len(cs.MCVals) == 0 {
			return DefaultIneqSel
		}
		// Neither histogram nor min/max covers the non-MCV mass (e.g.
		// shrunk statistics for a wide text column): price that mass at
		// the inequality default rather than zero — MCV evidence
		// refines the remainder, it must not erase it.
		frac = DefaultIneqSel
	}
	selBelow := mcvBelow + frac*(1-cs.NullFrac-mcvTot)
	est := selBelow
	if !wantLt {
		est = 1 - cs.NullFrac - selBelow
	}
	return clampSel(blend(est, DefaultIneqSel, st.StaleFrac))
}

// ltSel / leSel / gtSel / geSel are the registered restrict procedures
// of the four scalar comparison operators.
func ltSel(st TableStats, arg Datum) float64 { return ScalarIneqSel(st, arg, true, false) }
func leSel(st TableStats, arg Datum) float64 { return ScalarIneqSel(st, arg, true, true) }
func gtSel(st TableStats, arg Datum) float64 { return ScalarIneqSel(st, arg, false, false) }
func geSel(st TableStats, arg Datum) float64 { return ScalarIneqSel(st, arg, false, true) }

// Operator is one row of the mini pg_operator (paper Table 4): a named
// binary predicate over a left (column) and right (constant) type, with
// the procedure that evaluates it and the restrict procedure the planner
// uses to estimate its selectivity.
type Operator struct {
	Name       string
	Left       Type
	Right      Type
	Proc       func(l, r Datum) bool
	Commutator string
	Restrict   RestrictProc
}

// operators indexes the built-in operator table by (name, left type).
var operators = map[string]map[Type]*Operator{}

// RegisterOperator adds an operator to the catalog (CREATE OPERATOR).
func RegisterOperator(op *Operator) {
	byType, ok := operators[op.Name]
	if !ok {
		byType = map[Type]*Operator{}
		operators[op.Name] = byType
	}
	byType[op.Left] = op
}

// LookupOperator finds the operator for a name and left (column) type.
func LookupOperator(name string, left Type) (*Operator, bool) {
	byType, ok := operators[name]
	if !ok {
		return nil, false
	}
	op, ok := byType[left]
	return op, ok
}

// Operators lists all registered operators (for the CLI's \do).
func Operators() []*Operator {
	var out []*Operator
	for _, byType := range operators {
		for _, op := range byType {
			out = append(out, op)
		}
	}
	return out
}

func init() {
	// Text operators (trie / suffix tree / B+-tree; paper Table 4 left).
	RegisterOperator(&Operator{
		Name: "=", Left: Text, Right: Text, Commutator: "=",
		Proc:     func(l, r Datum) bool { return l.S == r.S },
		Restrict: EqSel,
	})
	RegisterOperator(&Operator{
		Name: "#=", Left: Text, Right: Text,
		Proc:     func(l, r Datum) bool { return strings.HasPrefix(l.S, r.S) },
		Restrict: LikeSel,
	})
	RegisterOperator(&Operator{
		Name: "?=", Left: Text, Right: Text,
		Proc:     func(l, r Datum) bool { return trie.MatchPattern(l.S, r.S) },
		Restrict: MatchSel,
	})
	RegisterOperator(&Operator{
		Name: "@=", Left: Text, Right: Text,
		Proc:     func(l, r Datum) bool { return strings.Contains(l.S, r.S) },
		Restrict: ContainsSel,
	})
	RegisterOperator(&Operator{
		Name: "<", Left: Text, Right: Text,
		Proc:     func(l, r Datum) bool { return l.S < r.S },
		Restrict: ltSel,
	})
	RegisterOperator(&Operator{
		Name: "<=", Left: Text, Right: Text,
		Proc:     func(l, r Datum) bool { return l.S <= r.S },
		Restrict: leSel,
	})
	RegisterOperator(&Operator{
		Name: ">", Left: Text, Right: Text,
		Proc:     func(l, r Datum) bool { return l.S > r.S },
		Restrict: gtSel,
	})
	RegisterOperator(&Operator{
		Name: ">=", Left: Text, Right: Text,
		Proc:     func(l, r Datum) bool { return l.S >= r.S },
		Restrict: geSel,
	})

	// Point operators (kd-tree / point quadtree / R-tree; Table 4 right).
	RegisterOperator(&Operator{
		Name: "@", Left: Point, Right: Point, Commutator: "@",
		Proc:     func(l, r Datum) bool { return l.P.Eq(r.P) },
		Restrict: EqSel,
	})
	RegisterOperator(&Operator{
		Name: "^", Left: Point, Right: Box,
		Proc:     func(l, r Datum) bool { return r.B.Contains(l.P) },
		Restrict: ContSel,
	})

	// Segment operators (PMR quadtree / R-tree).
	RegisterOperator(&Operator{
		Name: "=", Left: Segment, Right: Segment, Commutator: "=",
		Proc:     func(l, r Datum) bool { return l.G.Eq(r.G) },
		Restrict: EqSel,
	})
	RegisterOperator(&Operator{
		Name: "&&", Left: Segment, Right: Box,
		Proc:     func(l, r Datum) bool { return l.G.IntersectsBox(r.B) },
		Restrict: ContSel,
	})

	// Integer operators (plain attribute filters).
	RegisterOperator(&Operator{
		Name: "=", Left: Int, Right: Int, Commutator: "=",
		Proc:     func(l, r Datum) bool { return l.I == r.I },
		Restrict: EqSel,
	})
	RegisterOperator(&Operator{
		Name: "<", Left: Int, Right: Int,
		Proc:     func(l, r Datum) bool { return l.I < r.I },
		Restrict: ltSel,
	})
	RegisterOperator(&Operator{
		Name: ">", Left: Int, Right: Int,
		Proc:     func(l, r Datum) bool { return l.I > r.I },
		Restrict: gtSel,
	})
}
