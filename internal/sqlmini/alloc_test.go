package sqlmini

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// budgetExactSelect is what a warm exact match may allocate through
// Session.Exec: the statement's result (Result, Columns, Rows, the row's
// tuple and text), the plan and its text, the predicate and its snapshot.
// The lexer's tokens, the descent, the activity entry's statement text
// and the scan's callbacks allocate nothing.
const budgetExactSelect = 12

// TestExactSelectAllocBudget pins what a warm `SELECT * FROM words WHERE
// name = '<key>'` allocates end to end inside the engine: lexing,
// parsing, planning, the trie descent, the heap fetch and the result.
func TestExactSelectAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 10 000 rows")
	}
	const rows = 10000
	name := func(i int) string { return fmt.Sprintf("%08d", i*2654435761%100000000) }
	s := newSession(t)
	mustExec(t, s, `CREATE TABLE words (name VARCHAR, id INT)`)
	mustExec(t, s, `CREATE INDEX words_trie ON words USING spgist (name spgist_trie)`)
	for base := 0; base < rows; base += 500 {
		var b strings.Builder
		b.WriteString(`INSERT INTO words VALUES `)
		for i := base; i < base+500; i++ {
			if i > base {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "('%s', %d)", name(i), i)
		}
		mustExec(t, s, b.String())
	}
	mustExec(t, s, `ANALYZE words`)

	stmts := make([]string, 64)
	for i := range stmts {
		stmts[i] = "SELECT * FROM words WHERE name = '" + name(i*97) + "'"
		if res := mustExec(t, s, stmts[i]); len(res.Rows) != 1 || !strings.HasPrefix(res.Plan, "Index Scan on words") {
			t.Fatalf("%s: %d rows, plan %q", stmts[i], len(res.Rows), res.Plan)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := s.Exec(stmts[i%len(stmts)])
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s: %v", stmts[i%len(stmts)], err)
		}
		i++
	})
	t.Logf("warm exact match: %.0f allocations per statement", allocs)
	if !poolsKeep() {
		t.Log("sync.Pool drops what it is given (the race detector does that): the budget measures nothing here")
	} else if allocs > budgetExactSelect {
		t.Errorf("a warm exact match allocates %.0f times, the budget is %d", allocs, budgetExactSelect)
	}
}

// poolsKeep reports whether a sync.Pool hands back what it was just given.
// Under the race detector Put drops a quarter of its arguments at random.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}
