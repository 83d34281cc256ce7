package catalog

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestTypeByName(t *testing.T) {
	cases := []struct {
		in   string
		want Type
	}{
		{"VARCHAR", Text}, {"varchar", Text}, {"TEXT", Text},
		{"INT", Int}, {"integer", Int},
		{"FLOAT", Float}, {"POINT", Point}, {"BOX", Box}, {"SEGMENT", Segment},
	}
	for _, c := range cases {
		got, err := TypeByName(c.in)
		if err != nil || got != c.want {
			t.Errorf("TypeByName(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := TypeByName("NOPE"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestParseLiteral(t *testing.T) {
	d, err := ParseLiteral(Point, "(0,1)")
	if err != nil || !d.P.Eq(geom.Point{X: 0, Y: 1}) {
		t.Fatalf("point literal: %v %v", d, err)
	}
	d, err = ParseLiteral(Box, "(0,0,5,5)")
	if err != nil || d.B != geom.MakeBox(0, 0, 5, 5) {
		t.Fatalf("box literal: %v %v", d, err)
	}
	d, err = ParseLiteral(Segment, "(1,2,3,4)")
	if err != nil || !d.G.Eq(geom.Segment{A: geom.Point{X: 1, Y: 2}, B: geom.Point{X: 3, Y: 4}}) {
		t.Fatalf("segment literal: %v %v", d, err)
	}
	d, err = ParseLiteral(Int, " 42 ")
	if err != nil || d.I != 42 {
		t.Fatalf("int literal: %v %v", d, err)
	}
	if _, err := ParseLiteral(Point, "(1)"); err == nil {
		t.Error("bad point literal accepted")
	}
	if _, err := ParseLiteral(Int, "x"); err == nil {
		t.Error("bad int literal accepted")
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tup := Tuple{
		NewInt(-7),
		NewFloat(math.Pi),
		NewText("hello, κόσμε"),
		NewPoint(geom.Point{X: 1.5, Y: -2.5}),
		NewBox(geom.MakeBox(0, 0, 10, 10)),
		NewSegment(geom.Segment{A: geom.Point{X: 1, Y: 2}, B: geom.Point{X: 3, Y: 4}}),
	}
	got, err := DecodeTuple(EncodeTuple(tup))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tup) {
		t.Fatalf("arity %d != %d", len(got), len(tup))
	}
	for i := range tup {
		if !got[i].Equal(tup[i]) {
			t.Fatalf("datum %d: %v != %v", i, got[i], tup[i])
		}
	}
}

// Property: tuples of random texts and ints always round-trip.
func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(s string, i int64, x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		tup := Tuple{NewText(s), NewInt(i), NewPoint(geom.Point{X: x, Y: y})}
		got, err := DecodeTuple(EncodeTuple(tup))
		if err != nil {
			return false
		}
		return got[0].Equal(tup[0]) && got[1].Equal(tup[1]) && got[2].Equal(tup[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, err := DecodeTuple([]byte{}); err == nil {
		t.Error("empty buffer accepted")
	}
	if _, err := DecodeTuple([]byte{2, 0, 99}); err == nil {
		t.Error("unknown datum type accepted")
	}
	// Every proper prefix of a tuple is a truncated tuple: an error, not
	// a read past the end.
	whole := EncodeTuple(Tuple{NewInt(7), NewText("word"), NewPoint(geom.Point{X: 1, Y: 2}),
		NewSegment(geom.Segment{B: geom.Point{X: 3, Y: 4}})})
	for n := 0; n < len(whole); n++ {
		if _, err := DecodeTuple(whole[:n]); err == nil {
			t.Errorf("tuple cut to %d of %d bytes accepted", n, len(whole))
		}
	}
}

func TestOperatorLookupAndProcs(t *testing.T) {
	op, ok := LookupOperator("?=", Text)
	if !ok {
		t.Fatal("?= missing")
	}
	if !op.Proc(NewText("random"), NewText("r?nd?m")) {
		t.Error("?= proc wrong")
	}
	op, ok = LookupOperator("^", Point)
	if !ok {
		t.Fatal("^ missing")
	}
	if !op.Proc(NewPoint(geom.Point{X: 1, Y: 1}), NewBox(geom.MakeBox(0, 0, 5, 5))) {
		t.Error("^ proc wrong")
	}
	if op.Right != Box {
		t.Error("^ right operand type should be BOX")
	}
	if _, ok := LookupOperator("=", Box); ok {
		t.Error("no = over BOX should exist")
	}
}

func TestSelectivityProcs(t *testing.T) {
	st := TableStats{Rows: 10000, Column: &ColumnStats{NDistinct: 500}}
	if got := EqSel(st, NewText("x")); got != 1.0/500 {
		t.Errorf("EqSel with stats = %g", got)
	}
	if got := EqSel(TableStats{}, NewText("x")); got != DefaultEqSel {
		t.Errorf("EqSel default = %g", got)
	}
	// More literal characters in a pattern select fewer rows.
	loose := MatchSel(st, NewText("?????"))
	tight := MatchSel(st, NewText("abcde"))
	if tight >= loose {
		t.Errorf("MatchSel: tight %g should be < loose %g", tight, loose)
	}
	if ContSel(st, NewBox(geom.Box{})) != DefaultContSel {
		t.Error("ContSel default")
	}
	// Prefix selectivity declines with prefix length.
	if LikeSel(st, NewText("abcd")) >= LikeSel(st, NewText("a")) {
		t.Error("LikeSel should decline with prefix length")
	}
}

func TestAMCatalogMatchesPaperTable2(t *testing.T) {
	am, ok := LookupAM("spgist")
	if !ok {
		t.Fatal("spgist AM missing")
	}
	// The distinctive values of the paper's Table 2.
	if am.MaxStrategies != 20 || am.MaxSupport != 20 {
		t.Errorf("strategies/support = %d/%d, want 20/20", am.MaxStrategies, am.MaxSupport)
	}
	if am.OrderStrategy != 0 {
		t.Error("SP-GiST entries are unordered (amorderstrategy 0)")
	}
	if am.CanUnique || am.CanMultiCol || am.IndexNulls {
		t.Error("unique/multicol/nulls flags must be false")
	}
	if !am.Concurrent {
		t.Error("amconcurrent must be true")
	}
	for _, proc := range []string{am.GetTupleProc, am.InsertProc, am.BuildProc, am.BulkDeleteProc, am.CostProc} {
		if proc == "" {
			t.Error("missing interface routine name")
		}
	}
}

func TestOpClassCatalogMatchesPaperTable5(t *testing.T) {
	oc, ok := LookupOpClass("spgist_trie")
	if !ok {
		t.Fatal("spgist_trie missing")
	}
	// Strategy numbers from Table 5: 1 '=', 2 '#=', 3 '?=', 20 '@@'.
	want := map[string]int{"=": 1, "#=": 2, "?=": 3, "@@": 20}
	for op, st := range want {
		if oc.Strategies[op] != st {
			t.Errorf("trie strategy %q = %d, want %d", op, oc.Strategies[op], st)
		}
	}
	if oc.NNOp != "@@" {
		t.Error("trie NN operator must be @@")
	}
	sfx, ok := LookupOpClass("spgist_suffix")
	if !ok || sfx.Strategies["@="] != 1 {
		t.Error("suffix @= strategy 1 missing")
	}
	if _, err := DefaultOpClass("spgist", Text); err != nil {
		t.Error(err)
	}
	if _, err := DefaultOpClass("spgist", Box); err == nil {
		t.Error("no default for BOX should exist")
	}
}

func TestDatumString(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	_ = r
	cases := []struct {
		d    Datum
		want string
	}{
		{NewInt(5), "5"},
		{NewText("x"), "x"},
		{NewPoint(geom.Point{X: 1, Y: 2}), "(1,2)"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
