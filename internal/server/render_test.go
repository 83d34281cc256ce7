package server

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/geom"
	"repro/internal/sqlmini"
)

// fmtWriteResult is the fmt/strings renderer writeResult replaced, kept
// as the reference: the wire bytes must not change.
func fmtWriteResult(w *bufio.Writer, res *sqlmini.Result) {
	escape := strings.NewReplacer("\\", `\\`, "\n", `\n`, "\r", `\r`, "\t", `\t`)
	if len(res.Columns) > 0 {
		fmt.Fprintf(w, "#cols %s\n", strings.Join(res.Columns, "\t"))
	}
	for i, row := range res.Rows {
		vals := make([]string, 0, len(row)+1)
		for _, d := range row {
			vals = append(vals, escape.Replace(d.String()))
		}
		if res.Distances != nil {
			vals = append(vals, fmt.Sprintf("%g", res.Distances[i]))
		}
		fmt.Fprintf(w, "row %s\n", strings.Join(vals, "\t"))
	}
	if res.Plan != "" {
		fmt.Fprintf(w, "plan %s\n", res.Plan)
	}
	switch {
	case res.Msg != "":
		fmt.Fprintf(w, "OK %s\n", res.Msg)
	default:
		fmt.Fprintf(w, "OK %d\n", len(res.Rows))
	}
}

func TestWriteResultBytesUnchanged(t *testing.T) {
	long := strings.Repeat("x", 5000) // longer than the writer's free space
	results := []*sqlmini.Result{
		{Msg: "CREATE TABLE t"},
		{Msg: "INSERT 3", Affected: 3},
		{Columns: []string{"name", "id"}, Plan: "Seq Scan on t  (cost=0.00..1.00 rows=1)"},
		{
			Columns: []string{"name", "id", "f", "p", "b", "s"},
			Rows: []catalog.Tuple{
				{catalog.NewText("plain"), catalog.NewInt(-7), catalog.NewFloat(0.1),
					catalog.NewPoint(geom.Point{X: 1.5, Y: -2}), catalog.NewBox(geom.MakeBox(0, 0, 5, 5.25)),
					catalog.NewSegment(geom.Segment{A: geom.Point{X: 1, Y: 2}, B: geom.Point{X: 3, Y: 4}})},
				{catalog.NewText("a\tb\nc\rd\\e\\n"), catalog.NewInt(math.MaxInt64), catalog.NewFloat(1e21),
					catalog.NewPoint(geom.Point{}), catalog.NewBox(geom.Box{}), catalog.NewSegment(geom.Segment{})},
				{catalog.NewText(""), catalog.NewText(long), catalog.NewText("\\"), catalog.NewText("é\x00"), {}, {}},
			},
			Plan: "Index Scan on t using ix (spgist_trie)  filter: name = plain  (cost=0.00..8.02 rows=1)",
		},
		{
			Columns:   []string{"p"},
			Rows:      []catalog.Tuple{{catalog.NewPoint(geom.Point{X: 1, Y: 1})}, {catalog.NewPoint(geom.Point{X: 2, Y: 2})}, {}, {}},
			Distances: []float64{0, 1.4142135623730951, 1e-7, math.Inf(1)},
			Plan:      "Index NN Scan on pts using kd (spgist_kdtree)  (cost=0.00..4.00 rows=4)",
		},
	}
	for i, res := range results {
		var got, want bytes.Buffer
		gw, ww := bufio.NewWriter(&got), bufio.NewWriter(&want)
		writeResult(gw, res)
		fmtWriteResult(ww, res)
		gw.Flush()
		ww.Flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("result %d renders\n%q\nthe fmt renderer wrote\n%q", i, got.Bytes(), want.Bytes())
		}
	}
}
