package server

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

// cannedClient returns a client that reads the responses in text, over
// and over, with no server behind it.
func cannedClient(text string) *Client {
	return &Client{in: bufio.NewScanner(&repeatReader{b: []byte(text)})}
}

// repeatReader reads b again and again.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestClientDecoding: the client decodes #cols, row, plan and OK lines
// into one Response — escaped values unescaped, empty values kept, column
// names as sent — and an ERR line, even after rows, into an error that
// leaves the next response whole. A malformed line is an error too.
func TestClientDecoding(t *testing.T) {
	for _, c := range []struct {
		name, text string
		want       *Response
		err        string
	}{
		{
			name: "columns rows plan",
			text: "#cols id\tname\nrow 1\talpha\nrow 2\tbeta\nplan Index Scan using w_trie on w\nOK 2\n",
			want: &Response{
				Columns: []string{"id", "name"},
				Rows:    [][]string{{"1", "alpha"}, {"2", "beta"}},
				Plan:    "Index Scan using w_trie on w",
				OK:      "2",
			},
		},
		{
			name: "escaped values",
			text: `#cols a\tb` + "\trest\n" + `row x\ty	\\z	\n\r\q\` + "\n" + `row \\\\	\t` + "\nOK 2\n",
			want: &Response{
				Columns: []string{`a\tb`, "rest"},
				Rows:    [][]string{{"x\ty", `\z`, "\n\r\\q\\"}, {`\\`, "\t"}},
				OK:      "2",
			},
		},
		{
			name: "empty values",
			text: "#cols a\tb\tc\nrow \t\t\nrow \nrow x\t\t\nOK 3\n",
			want: &Response{
				Columns: []string{"a", "b", "c"},
				Rows:    [][]string{{"", "", ""}, {""}, {"x", "", ""}},
				OK:      "3",
			},
		},
		{
			name: "no rows",
			text: "OK   INSERT 1  \n",
			want: &Response{OK: "INSERT 1"},
		},
		{
			name: "columns only",
			text: "#cols n\nplan Seq Scan on t\nOK 0\n",
			want: &Response{Columns: []string{"n"}, Plan: "Seq Scan on t", OK: "0"},
		},
		{
			name: "error after rows",
			text: "#cols n\nrow 1\nrow 2\nERR executor: lock timeout\n",
			err:  "server: executor: lock timeout",
		},
		{
			name: "malformed line",
			text: "row 1\nrows 2\n",
			err:  `server: malformed response line "rows 2"`,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			// After an error the stream goes on with the next response,
			// which must decode on its own, without the rows before it.
			cl := cannedClient(c.text + "#cols k\nrow v\nOK 1\n")
			got, err := cl.read()
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Fatalf("error %v, want %q", err, c.err)
				}
				next, err := cl.read()
				if want := (&Response{Columns: []string{"k"}, Rows: [][]string{{"v"}}, OK: "1"}); err != nil || !reflect.DeepEqual(next, want) {
					t.Fatalf("response after the error: %+v, %v; want %+v", next, err, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("decoded %#v, want %#v", got, c.want)
			}
		})
	}
}

// TestClientRowsDoNotAlias: the rows of one response share a value slice,
// but appending to a row, or to the columns, never overwrites the values
// of the next, and a later response leaves an earlier one as it was.
func TestClientRowsDoNotAlias(t *testing.T) {
	cl := cannedClient("#cols a\tb\nrow 1\t2\nrow 3\t4\nrow 5\t6\nOK 3\n")
	first, err := cl.read()
	if err != nil {
		t.Fatal(err)
	}
	first.Columns = append(first.Columns, "c")
	for i := range first.Rows {
		first.Rows[i] = append(first.Rows[i], "x")
	}
	want := [][]string{{"1", "2", "x"}, {"3", "4", "x"}, {"5", "6", "x"}}
	if !reflect.DeepEqual(first.Rows, want) || !reflect.DeepEqual(first.Columns, []string{"a", "b", "c"}) {
		t.Fatalf("after appending: columns %q, rows %q; want [a b c], %q", first.Columns, first.Rows, want)
	}
	second, err := cl.read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, want) || !reflect.DeepEqual(second.Rows, [][]string{{"1", "2"}, {"3", "4"}, {"5", "6"}}) {
		t.Fatalf("a second response changed the first (%q) or decoded as %q", first.Rows, second.Rows)
	}
}

// TestClientDecodeAllocBudget: decoding a ten-row kNN response — columns,
// rows of four values, a plan — allocates at most 5 times: the Response,
// its one backing string, the value slice, the row slice, and one spare.
func TestClientDecodeAllocBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("#cols id\tname\tpt\tdistance\n")
	for i := 0; i < 10; i++ {
		b.WriteString("row 1234\tword01234\t(512.25,87.125)\t3.1622776601683795\n")
	}
	b.WriteString("plan Index Scan using pts_kd on pts\nOK 10\n")
	cl := cannedClient(b.String())
	var res *Response
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if res, err = cl.read(); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Rows) != 10 || len(res.Rows[9]) != 4 || res.OK != "10" {
		t.Fatalf("decoded %d rows (%q), OK %q", len(res.Rows), res.Rows, res.OK)
	}
	t.Logf("%.1f allocations per 10-row response", allocs)
	if allocs > 5 {
		t.Fatalf("%.1f allocations per 10-row response, want at most 5", allocs)
	}
}
