package server_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/server"
)

// startTxnServer serves an in-memory database with an idle-in-
// transaction timeout configured.
func startTxnServer(t *testing.T, idle time.Duration) (addr string, shutdown func()) {
	t.Helper()
	db := executor.OpenMemory()
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	if idle > 0 {
		srv.SetIdleTxnTimeout(idle)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return l.Addr().String(), func() {
		srv.Shutdown()
		l.Close()
		<-done
		db.Close()
	}
}

// TestServerTransactions drives BEGIN/COMMIT/ROLLBACK over the wire
// with two sessions on one table: the acceptance criterion end to end.
// Session B's SELECTs run while A holds an open INSERT/UPDATE
// transaction — they must return promptly (B carries a deadline, so a
// lock wait would fail the test) and never see uncommitted rows.
func TestServerTransactions(t *testing.T) {
	addr, shutdown := startTxnServer(t, 0)
	defer shutdown()

	a, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetTimeout(5 * time.Second)

	mustExec := func(c *server.Client, stmt string) *server.Response {
		t.Helper()
		res, err := c.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res
	}
	mustExec(a, "CREATE TABLE words (name VARCHAR, id INT)")
	mustExec(a, "INSERT INTO words VALUES ('seed', 0)")

	mustExec(a, "BEGIN")
	mustExec(a, "INSERT INTO words VALUES ('pending', 1), ('pending2', 2)")
	if res := mustExec(a, "UPDATE words SET id = 42 WHERE name = 'seed'"); res.OK != "UPDATE 1" {
		t.Fatalf("update: %q", res.OK)
	}

	// B sees the pre-transaction state, promptly.
	res := mustExec(b, "SELECT * FROM words")
	if len(res.Rows) != 1 || res.Rows[0][0] != "seed" || res.Rows[0][1] != "0" {
		t.Fatalf("B during A's txn: %v, want only ('seed', 0)", res.Rows)
	}

	// A sees its own writes.
	if res := mustExec(a, "SELECT * FROM words"); len(res.Rows) != 3 {
		t.Fatalf("A sees %d rows inside its txn, want 3", len(res.Rows))
	}

	// Nested BEGIN and stray COMMIT are statement errors, not corruption.
	if _, err := a.Exec("BEGIN"); err == nil || !strings.Contains(err.Error(), "already in a transaction") {
		t.Fatalf("nested BEGIN: %v", err)
	}
	if _, err := b.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "no transaction in progress") {
		t.Fatalf("stray COMMIT: %v", err)
	}

	mustExec(a, "COMMIT")
	if res := mustExec(b, "SELECT * FROM words"); len(res.Rows) != 3 {
		t.Fatalf("B after COMMIT sees %d rows, want 3", len(res.Rows))
	}

	// ROLLBACK: B never sees the aborted work.
	mustExec(a, "BEGIN")
	mustExec(a, "DELETE FROM words WHERE name #= 'pending'")
	mustExec(a, "ROLLBACK")
	if res := mustExec(b, "SELECT * FROM words"); len(res.Rows) != 3 {
		t.Fatalf("B after ROLLBACK sees %d rows, want 3", len(res.Rows))
	}

	// DDL inside a transaction is refused.
	mustExec(a, "BEGIN")
	if _, err := a.Exec("CREATE INDEX wix ON words USING spgist (name spgist_trie)"); err == nil || !strings.Contains(err.Error(), "cannot run inside a transaction") {
		t.Fatalf("DDL in txn: %v", err)
	}
	mustExec(a, "ROLLBACK")

	// VACUUM over the wire reclaims the dead update/rollback versions.
	if res := mustExec(a, "VACUUM words"); !strings.HasPrefix(res.OK, "VACUUM ") {
		t.Fatalf("vacuum: %q", res.OK)
	}
	if res := mustExec(b, "SELECT * FROM words"); len(res.Rows) != 3 {
		t.Fatalf("B after VACUUM sees %d rows, want 3", len(res.Rows))
	}
}

// TestServerIdleTxnTimeout: a session that goes idle inside an open
// transaction is rolled back and disconnected with an explanatory ERR
// line, and its uncommitted rows never become visible.
func TestServerIdleTxnTimeout(t *testing.T) {
	addr, shutdown := startTxnServer(t, 150*time.Millisecond)
	defer shutdown()

	setup, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	for _, stmt := range []string{
		"CREATE TABLE words (name VARCHAR, id INT)",
		"INSERT INTO words VALUES ('seed', 0)",
	} {
		if _, err := setup.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	// Raw connection: BEGIN, INSERT, then go idle and read the
	// unsolicited ERR terminator the timeout owes us.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := bufio.NewScanner(conn)
	exec := func(stmt string) string {
		t.Helper()
		fmt.Fprintf(conn, "%s\n", stmt)
		for in.Scan() {
			line := in.Text()
			if strings.HasPrefix(line, "OK") {
				return line
			}
			if strings.HasPrefix(line, "ERR ") {
				t.Fatalf("%s: %s", stmt, line)
			}
		}
		t.Fatalf("%s: connection closed mid-response (%v)", stmt, in.Err())
		return ""
	}
	exec("BEGIN")
	exec("INSERT INTO words VALUES ('doomed', 1)")

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if !in.Scan() {
		t.Fatalf("no ERR line before disconnect: %v", in.Err())
	}
	if line := in.Text(); !strings.Contains(line, "idle-in-transaction timeout") {
		t.Fatalf("got %q, want idle-in-transaction timeout ERR", line)
	}
	// The server closes the connection after the ERR line.
	if in.Scan() {
		t.Fatalf("unexpected line after timeout: %q", in.Text())
	}

	// The transaction was rolled back: the doomed row is invisible.
	res, err := setup.Exec("SELECT * FROM words")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "seed" {
		t.Fatalf("after idle-txn kill: %v, want only the seed row", res.Rows)
	}
	// And the table's write lock is free again: a new writer proceeds.
	if _, err := setup.Exec("INSERT INTO words VALUES ('after', 2)"); err != nil {
		t.Fatalf("insert after idle-txn kill: %v", err)
	}

	// A session idling *outside* a transaction is never disconnected.
	idle, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	time.Sleep(400 * time.Millisecond)
	if res, err := idle.Exec("SELECT * FROM words"); err != nil || len(res.Rows) != 2 {
		t.Fatalf("idle non-txn session: rows=%v err=%v", res, err)
	}
}

// TestServerTxnVisibilityReadForms is the wire round trip of the
// visibility contract the executor and sqlmini tests pin form by form:
// inside BEGIN, after an INSERT that changes the answer, WHERE,
// ORDER BY <-> and EXPLAIN ANALYZE of both read through the session's
// transaction; a second connection sees none of it, and after ROLLBACK
// the first sees none of it either.
func TestServerTxnVisibilityReadForms(t *testing.T) {
	addr, shutdown := startTxnServer(t, 0)
	defer shutdown()
	a, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetTimeout(5 * time.Second)

	mustExec := func(c *server.Client, stmt string) *server.Response {
		t.Helper()
		res, err := c.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res
	}
	mustExec(a, "CREATE TABLE p (pt POINT, id INT)")
	mustExec(a, "CREATE INDEX p_kd ON p USING spgist (pt)")
	mustExec(a, "INSERT INTO p VALUES ('(1,1)', 1), ('(2,2)', 2)")

	// check runs the four executing read forms on c: the origin holds
	// atOrigin rows, nearest is the row nearest to it, total rows exist.
	check := func(who string, c *server.Client, atOrigin int, nearest string, total int) {
		t.Helper()
		where := "SELECT * FROM p WHERE pt @ '(0,0)'"
		if res := mustExec(c, where); len(res.Rows) != atOrigin {
			t.Errorf("%s: %s: %v, want %d rows", who, where, res.Rows, atOrigin)
		}
		if line := mustExec(c, "EXPLAIN ANALYZE "+where).Rows[0][0]; !strings.Contains(line, fmt.Sprintf(" ms rows=%d scanned=", atOrigin)) {
			t.Errorf("%s: EXPLAIN ANALYZE %s: %q, want rows=%d", who, where, line, atOrigin)
		}
		nn := "SELECT * FROM p ORDER BY pt <-> '(0,0)'"
		if res := mustExec(c, nn+" LIMIT 1"); len(res.Rows) != 1 || res.Rows[0][0] != nearest {
			t.Errorf("%s: %s LIMIT 1: %v, want %s", who, nn, res.Rows, nearest)
		}
		if line := mustExec(c, "EXPLAIN ANALYZE "+nn).Rows[0][0]; !strings.Contains(line, fmt.Sprintf(" ms rows=%d scanned=", total)) {
			t.Errorf("%s: EXPLAIN ANALYZE %s: %q, want rows=%d", who, nn, line, total)
		}
	}

	mustExec(a, "BEGIN")
	mustExec(a, "INSERT INTO p VALUES ('(0,0)', 3)")
	check("A inside its transaction", a, 1, "(0,0)", 3)
	check("B during A's transaction", b, 0, "(1,1)", 2)
	mustExec(a, "ROLLBACK")
	check("A after ROLLBACK", a, 0, "(1,1)", 2)
}
