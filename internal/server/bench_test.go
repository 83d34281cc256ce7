package server_test

import (
	"fmt"
	"math"
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

// fixtureTable is one table of a served fixture: the statements that
// create it and its index, and its rows as VALUES tuples.
type fixtureTable struct {
	name string
	ddl  []string
	rows int // a multiple of 500, the load's batch size
	row  func(i int) string
}

func wordsTable(rows int, name func(i int) string) fixtureTable {
	return fixtureTable{
		name: "words",
		ddl: []string{
			"CREATE TABLE words (name VARCHAR, id INT)",
			"CREATE INDEX wix ON words USING spgist (name spgist_trie)",
		},
		rows: rows,
		row:  func(i int) string { return fmt.Sprintf("('%s', %d)", name(i), i) },
	}
}

// lookupFixture serves words(name, id) with a trie on name.
func lookupFixture(tb testing.TB, reopen executor.Options) (*executor.DB, string, *server.Client) {
	return serveFixture(tb, reopen, wordsTable(lookupRows, lookupName))
}

// serveFixture builds the tables on disk — loaded in one transaction,
// ANALYZEd and checkpointed — reopens the database with the pool and
// device settings of reopen and serves it. It returns the address and
// one connected client.
func serveFixture(tb testing.TB, reopen executor.Options, tables ...fixtureTable) (*executor.DB, string, *server.Client) {
	tb.Helper()
	dir := tb.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true})
	if err != nil {
		tb.Fatal(err)
	}
	_, c, stop := serve(tb, db)
	exec := func(stmt string) {
		tb.Helper()
		if _, err := c.Exec(stmt); err != nil {
			if len(stmt) > 80 {
				stmt = stmt[:80] + "…"
			}
			tb.Fatalf("%s: %v", stmt, err)
		}
	}
	for _, t := range tables {
		for _, stmt := range t.ddl {
			exec(stmt)
		}
	}
	exec("BEGIN")
	for _, t := range tables {
		for lo := 0; lo < t.rows; lo += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO " + t.name + " VALUES ")
			for i := lo; i < lo+500; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				sb.WriteString(t.row(i))
			}
			exec(sb.String())
		}
	}
	exec("COMMIT")
	for _, t := range tables {
		exec("ANALYZE " + t.name)
	}
	exec("CHECKPOINT")
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

// BenchmarkServerScanWarm is the benchmark's scan_warm taken apart: one
// ten-row statement per iteration over loopback TCP against fully cached
// tables of the benchmark's shapes — a kd-tree over 15 000 uniform
// points, a trie over 40 000 eight-digit names — one sub-benchmark per
// statement kind, for -cpuprofile/-memprofile.
func BenchmarkServerScanWarm(b *testing.B) {
	const (
		ptsRows   = 15000
		wordsRows = 40000
		world     = 1000
	)
	// Unique names spread over all eight digits (the multiplier is
	// coprime to 10⁸), so a four-digit prefix matches wordsRows/10⁴ rows.
	name := func(i int) string { return fmt.Sprintf("%08d", i*2654435761%100000000) }
	// Uniform, three decimals so the text form round-trips exactly.
	rng := rand.New(rand.NewSource(1))
	xs, ys := make([]float64, ptsRows), make([]float64, ptsRows)
	for i := range xs {
		xs[i], ys[i] = float64(rng.Intn(world*1000))/1000, float64(rng.Intn(world*1000))/1000
	}
	_, _, c := serveFixture(b, executor.Options{},
		fixtureTable{
			name: "pts",
			ddl: []string{
				"CREATE TABLE pts (p POINT, id INT)",
				"CREATE INDEX pix ON pts USING spgist (p spgist_kdtree)",
			},
			rows: ptsRows,
			row:  func(i int) string { return fmt.Sprintf("('(%g,%g)', %d)", xs[i], ys[i], i) },
		},
		wordsTable(wordsRows, name))
	side := math.Sqrt(10 * world * world / float64(ptsRows)) // about ten points a box
	kinds := []struct {
		name, plan string
		stmt       func(rng *rand.Rand) string
	}{
		{"knn", "Index NN Scan on pts", func(rng *rand.Rand) string {
			return fmt.Sprintf("SELECT * FROM pts ORDER BY p <-> '(%g,%g)' LIMIT 10", rng.Float64()*world, rng.Float64()*world)
		}},
		{"box", "Index Scan on pts", func(rng *rand.Rand) string {
			x, y := rng.Float64()*(world-side), rng.Float64()*(world-side)
			return fmt.Sprintf("SELECT * FROM pts WHERE p ^ '(%g,%g,%g,%g)'", x, y, x+side, y+side)
		}},
		{"prefix", "Index Scan on words", func(rng *rand.Rand) string {
			return "SELECT * FROM words WHERE name #= '" + name(rng.Intn(wordsRows))[:4] + "'"
		}},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			stmts := make([]string, 1024)
			for i := range stmts {
				stmts[i] = k.stmt(rng)
				if _, err := c.Exec(stmts[i]); err != nil { // warm
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
				if !strings.HasPrefix(res.Plan, k.plan) {
					b.Fatalf("plan=%q, want %s", res.Plan, k.plan)
				}
			}
		})
	}
}
