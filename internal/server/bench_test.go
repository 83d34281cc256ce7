package server_test

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/server"
)

// lookupRows sizes the point-lookup fixture: a multi-page trie and a
// heap of ~30 pages, so a 16-page pool misses on nearly every statement.
const lookupRows = 5000

func lookupName(i int) string { return fmt.Sprintf("%08d", i*7919%100000000) }

// lookupFixture builds the fixture on disk — words(name, id) with a
// trie on name, ANALYZEd and checkpointed — reopens it with the pool
// and device settings of reopen and serves it. It returns the address
// and one connected client.
func lookupFixture(tb testing.TB, reopen executor.Options) (*executor.DB, string, *server.Client) {
	tb.Helper()
	dir := tb.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true})
	if err != nil {
		tb.Fatal(err)
	}
	_, c, stop := serve(tb, db)
	for _, stmt := range []string{
		"CREATE TABLE words (name VARCHAR, id INT)",
		"CREATE INDEX wix ON words USING spgist (name spgist_trie)",
		"BEGIN",
	} {
		if _, err := c.Exec(stmt); err != nil {
			tb.Fatalf("%s: %v", stmt, err)
		}
	}
	for lo := 0; lo < lookupRows; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO words VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "('%s', %d)", lookupName(i), i)
		}
		if _, err := c.Exec(sb.String()); err != nil {
			tb.Fatal(err)
		}
	}
	for _, stmt := range []string{"COMMIT", "ANALYZE words", "CHECKPOINT"} {
		if _, err := c.Exec(stmt); err != nil {
			tb.Fatalf("%s: %v", stmt, err)
		}
	}
	stop()
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
	reopen.Dir, reopen.WAL = dir, true
	db, err = executor.Open(reopen)
	if err != nil {
		tb.Fatal(err)
	}
	addr, c, stop := serve(tb, db)
	tb.Cleanup(func() {
		stop()
		db.Close()
	})
	return db, addr, c
}

// serve starts a server over db on a loopback port and dials it; stop
// closes the client and shuts the server down.
func serve(tb testing.TB, db *executor.DB) (addr string, c *server.Client, stop func()) {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := server.New(db)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	addr = l.Addr().String()
	c, err = server.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	return addr, c, func() {
		c.Close()
		srv.Shutdown()
		l.Close()
		<-done
	}
}

func lookupStmt(i int) string {
	return "SELECT * FROM words WHERE name = '" + lookupName(i) + "'"
}

func benchPointLookup(b *testing.B, poolPages int) {
	_, _, c := lookupFixture(b, executor.Options{PoolPages: poolPages})
	rng := rand.New(rand.NewSource(1))
	stmts := make([]string, 1024)
	for i := range stmts {
		stmts[i] = lookupStmt(rng.Intn(lookupRows))
	}
	for _, s := range stmts { // warm whatever the pool can hold
		if _, err := c.Exec(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Exec(stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 || !strings.HasPrefix(res.Plan, "Index Scan on words") {
			b.Fatalf("rows=%d plan=%q", len(res.Rows), res.Plan)
		}
	}
}

// BenchmarkServerPointLookupWarm is one exact-match SELECT per
// iteration over loopback TCP against a fully cached 5 000-row trie —
// the benchmark's point_warm in miniature, for -cpuprofile/-memprofile.
// allocs/op counts client and server together.
func BenchmarkServerPointLookupWarm(b *testing.B) { benchPointLookup(b, 0) }

// BenchmarkServerPointLookupCold is the same statement stream through a
// 16-page pool per file (point_cold): nearly every statement misses.
func BenchmarkServerPointLookupCold(b *testing.B) { benchPointLookup(b, 16) }
