package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/executor"
)

// FuzzServerLine sends any line to one session over net.Pipe. A line that
// is not blank gets exactly one OK or ERR terminator, after result lines
// of the three framed kinds only; no statement panics (server_panics_total
// stays 0); and the session still answers a SELECT afterwards — unless
// the line was \q, which ends it. A deadline turns a hang into a failure.
func FuzzServerLine(f *testing.F) {
	for _, seed := range []string{
		`SELECT * FROM w WHERE name #= 'sp'`,
		`SELECT * FROM pts ORDER BY p <-> '(50,50)' LIMIT 2;`,
		`EXPLAIN ANALYZE SELECT * FROM pts WHERE p ^ '(0,0,5,5)'`,
		`EXPLAIN (TRACE) UPDATE w SET id = 7 WHERE name = 'spark'`,
		`INSERT INTO w VALUES ('tab	and	cr` + "\r" + `', 5)`,
		`DELETE FROM pts WHERE p @ '(0,1)'`,
		`CREATE INDEX w_bt ON w USING btree (name)`,
		`DROP TABLE w`,
		`BEGIN`,
		`COMMIT`,
		`VACUUM`,
		`ANALYZE w`,
		`SCRUB`,
		`CHECKPOINT`,
		`SHOW STATS w`,
		`SHOW ACTIVITY`,
		`STATS`,
		`stats reset`,
		`ACTIVITY`,
		`\q`,
		`quit`,
		``,
		"  \t ",
		`SELECT * FROM w WHERE name = 'unterminated`,
		"\x00\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		// One line: a newline inside would make it two.
		line = bytes.ReplaceAll(line, []byte("\n"), []byte(" "))
		db, err := executor.Open(executor.Options{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv := New(db)
		client, conn := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer conn.Close()
			srv.session(conn)
		}()
		defer func() {
			client.Close()
			<-done
		}()
		client.SetDeadline(time.Now().Add(10 * time.Second))
		in := bufio.NewReader(client)
		send := func(l []byte) {
			if _, err := client.Write(append(l, '\n')); err != nil {
				t.Fatalf("after %q: sending %q: %v", line, l, err)
			}
		}
		// reply reads one statement's response through its terminator.
		reply := func() (resp []string) {
			for {
				s, err := in.ReadString('\n')
				if err != nil {
					t.Fatalf("after %q: reply %q ends in %v", line, resp, err)
				}
				resp = append(resp, s)
				switch {
				case strings.HasPrefix(s, "OK ") || strings.HasPrefix(s, "ERR "):
					return resp
				case !strings.HasPrefix(s, "#cols ") && !strings.HasPrefix(s, "row ") && !strings.HasPrefix(s, "plan "):
					t.Fatalf("after %q: unframed reply line %q", line, s)
				}
			}
		}
		ended := func() {
			if s, err := in.ReadString('\n'); err != io.EOF {
				t.Fatalf("after %q: read %q, %v; want the session closed", line, s, err)
			}
		}
		for _, stmt := range []string{
			`CREATE TABLE w (name VARCHAR(50), id INT)`,
			`CREATE INDEX w_trie ON w USING spgist (name spgist_trie)`,
			`INSERT INTO w VALUES ('random', 1), ('spade', 2), ('spark', 3)`,
			`CREATE TABLE pts (p POINT, id INT)`,
			`CREATE INDEX pts_kd ON pts USING spgist (p spgist_kdtree)`,
			`INSERT INTO pts VALUES ('(0,1)', 1), ('(2,3)', 2), ('(7,8)', 3)`,
		} {
			send([]byte(stmt))
			if resp := reply(); !strings.HasPrefix(resp[len(resp)-1], "OK ") {
				t.Fatalf("%s: %q", stmt, resp)
			}
		}

		send(line)
		trimmed := strings.TrimSpace(string(line))
		quits := trimmed == `\q` || strings.EqualFold(trimmed, "quit")
		switch {
		case quits:
			ended()
		case trimmed != "":
			reply()
		}
		if n := srv.panicsTotal.Load(); n != 0 {
			t.Fatalf("%q: %d statements panicked", line, n)
		}
		if quits {
			return
		}
		// The SELECT's own reply comes next — a second terminator of the
		// line's would stand in its place — and then nothing.
		send([]byte(`SELECT * FROM pts WHERE id = 2`))
		if resp := reply(); len(resp) > 1 && !strings.HasPrefix(resp[0], "#cols ") {
			t.Fatalf("after %q: SELECT reply %q", line, resp)
		}
		send([]byte(`\q`))
		ended()
	})
}
