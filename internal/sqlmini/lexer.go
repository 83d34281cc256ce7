// Package sqlmini implements the small SQL dialect of the paper's
// Table 6, enough to create and query tables through the extensible
// access methods from a REPL or from code:
//
//	CREATE TABLE word_data (name VARCHAR, id INT);
//	CREATE INDEX sp_trie_index ON word_data USING spgist (name spgist_trie);
//	INSERT INTO word_data VALUES ('random', 1), ('spade', 2);
//	SELECT * FROM word_data WHERE name ?= 'r?nd?m';
//	SELECT * FROM point_data WHERE p ^ '(0,0,5,5)';
//	SELECT * FROM point_data ORDER BY p <-> '(50,50)' LIMIT 8;
//	DELETE FROM word_data WHERE name = 'random';
//	EXPLAIN SELECT * FROM word_data WHERE name = 'random';
package sqlmini

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) , ; *
	tokOp    // = ?= #= @= @@ @ ^ && <-> < <= > >=
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// sqlOperators are matched longest-first.
var sqlOperators = []string{"<->", "@@", "?=", "#=", "@=", "&&", "<=", ">=", "=", "<", ">", "@", "^"}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex appends the tokens of src, ending with tokEOF, to toks[:0] and
// returns the slice: a session hands in the slice of its last statement,
// so a warm statement lexes without allocating. Token texts are
// substrings of src (a string literal with a doubled quote excepted), so
// nothing a token says aliases the slice itself.
func lex(src string, toks []token) ([]token, error) {
	l := lexer{src: src, toks: toks[:0]}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// SQL comment to end of line. (Checked before operators so
			// "--" is never read as two minus signs.)
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return l.toks, err
			}
		case c >= '0' && c <= '9' || (c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		case strings.IndexByte("(),;*", c) >= 0:
			l.emit(tokPunct, l.src[l.pos:l.pos+1])
			l.pos++
		default:
			if !l.lexOperator() {
				return l.toks, fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
			}
		}
	}
	l.emit(tokEOF, "")
	return l.toks, nil
}

func (l *lexer) emit(k tokenKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

// lexString reads a quoted literal. One without a doubled quote, SQL's
// escape for a quote, is the substring between its quotes; only an
// escaped one is copied.
func (l *lexer) lexString() error {
	start := l.pos
	body := l.src[start+1:]
	end := strings.IndexByte(body, '\'')
	if end < 0 {
		return fmt.Errorf("sql: unterminated string starting at %d", start)
	}
	if end+1 < len(body) && body[end+1] == '\'' {
		return l.lexEscapedString()
	}
	l.pos = start + 1 + end + 1
	l.toks = append(l.toks, token{kind: tokString, text: body[:end], pos: start})
	return nil
}

// lexEscapedString reads a quoted literal that holds a doubled quote.
func (l *lexer) lexEscapedString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string starting at %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' {
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexOperator() bool {
	rest := l.src[l.pos:]
	for _, op := range sqlOperators {
		if strings.HasPrefix(rest, op) {
			l.emit(tokOp, op)
			l.pos += len(op)
			return true
		}
	}
	return false
}
