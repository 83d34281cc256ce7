package sqlmini

import (
	"reflect"
	"strings"
	"testing"
)

// lexCases are statements whose tokens the lexer must keep as they were
// when every string literal was copied through a strings.Builder:
// literals that are empty, hold doubled quotes, end the input, run into
// a comment, or hold UTF-8 text.
var lexCases = []struct {
	src  string
	want []token
	err  string
}{
	{src: `''`, want: []token{{tokString, "", 0}, {tokEOF, "", 2}}},
	{src: `'it''s'`, want: []token{{tokString, "it's", 0}, {tokEOF, "", 7}}},
	{src: `'a'''`, want: []token{{tokString, "a'", 0}, {tokEOF, "", 5}}},
	{src: `''''`, want: []token{{tokString, "'", 0}, {tokEOF, "", 4}}},
	{src: `'abc`, err: "sql: unterminated string starting at 0"},
	{src: `name = 'it''s`, err: "sql: unterminated string starting at 7"},
	{src: `x = 'abc'`, want: []token{{tokIdent, "x", 0}, {tokOp, "=", 2}, {tokString, "abc", 4}, {tokEOF, "", 9}}},
	{src: `'x'--c`, want: []token{{tokString, "x", 0}, {tokEOF, "", 6}}},
	{src: "'x'--c\n'y'", want: []token{{tokString, "x", 0}, {tokString, "y", 7}, {tokEOF, "", 10}}},
	{src: `'héllo wörld'`, want: []token{{tokString, "héllo wörld", 0}, {tokEOF, "", 15}}},
	{src: `'日本''語'`, want: []token{{tokString, "日本'語", 0}, {tokEOF, "", 13}}},
	{
		src: `SELECT * FROM words WHERE name = '00123456';`,
		want: []token{
			{tokIdent, "SELECT", 0}, {tokPunct, "*", 7}, {tokIdent, "FROM", 9},
			{tokIdent, "words", 14}, {tokIdent, "WHERE", 20}, {tokIdent, "name", 26},
			{tokOp, "=", 31}, {tokString, "00123456", 33}, {tokPunct, ";", 43}, {tokEOF, "", 44},
		},
	},
	{
		src: `SELECT * FROM pts ORDER BY p <-> '(1,-2.5)' LIMIT 3`,
		want: []token{
			{tokIdent, "SELECT", 0}, {tokPunct, "*", 7}, {tokIdent, "FROM", 9},
			{tokIdent, "pts", 14}, {tokIdent, "ORDER", 18}, {tokIdent, "BY", 24},
			{tokIdent, "p", 27}, {tokOp, "<->", 29}, {tokString, "(1,-2.5)", 33},
			{tokIdent, "LIMIT", 44}, {tokNumber, "3", 50}, {tokEOF, "", 51},
		},
	},
	{src: `id = 1 $`, err: `sql: unexpected character '$' at 7`},
}

// TestLexTokens checks every lexCases statement, lexed into a fresh
// slice and into one a longer statement left behind, which is how a
// session reuses its tokens.
func TestLexTokens(t *testing.T) {
	used, err := lex(`INSERT INTO w VALUES ('a', 1), ('b', 2), ('c', 3), ('d', 4)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lexCases {
		for _, buf := range [][]token{nil, used} {
			got, err := lex(c.src, buf)
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Errorf("lex(%q): error %v, want %q", c.src, err, c.err)
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Errorf("lex(%q) = %v, %v\nwant %v", c.src, got, err, c.want)
			}
		}
	}
}

// TestResultSurvivesNextStatement runs statements whose results carry
// text that came from the statement's tokens — a row's literal, a plan's
// filter, a DDL message — and checks each result is unchanged after the
// same session has lexed and run other statements into the same token
// slice.
func TestResultSurvivesNextStatement(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX w_trie ON w USING spgist (name spgist_trie)`)
	mustExec(t, s, `INSERT INTO w VALUES ('it''s', 1), ('héllo', 2), ('plain', 3)`)
	type kept struct {
		res  *Result
		want string
	}
	var results []kept
	render := func(res *Result) string {
		var b strings.Builder
		b.WriteString(strings.Join(res.Columns, ",") + "|" + res.Plan + "|" + res.Msg)
		for _, row := range res.Rows {
			b.WriteString("|")
			for _, d := range row {
				b.WriteString(d.String() + ";")
			}
		}
		return b.String()
	}
	for _, sql := range []string{
		`SELECT * FROM w WHERE name = 'it''s'`,
		`SELECT * FROM w WHERE name = 'héllo'`,
		`EXPLAIN SELECT * FROM w WHERE name = 'plain'`,
		`CREATE TABLE other (name VARCHAR)`,
		`SELECT * FROM w WHERE name #= 'pl'`,
	} {
		res := mustExec(t, s, sql)
		results = append(results, kept{res, render(res)})
		mustExec(t, s, `SELECT * FROM w WHERE name = 'zzzzzzzzzzzzzzzz' -- overwrites the tokens`)
		mustExec(t, s, `INSERT INTO w VALUES ('xxxxxxxxxxxx', 9)`)
	}
	for i, k := range results {
		if got := render(k.res); got != k.want {
			t.Errorf("result %d changed after later statements:\n got %s\nwant %s", i, got, k.want)
		}
	}
}
