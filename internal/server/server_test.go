package server_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/server"
)

// startServer serves an in-memory database on a random local port.
func startServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	db := executor.OpenMemory()
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
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

func TestServerSingleSession(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustExec := func(stmt string) *server.Response {
		t.Helper()
		res, err := c.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res
	}
	mustExec("CREATE TABLE words (name VARCHAR, id INT)")
	mustExec("CREATE INDEX wix ON words USING spgist (name spgist_trie)")
	if res := mustExec("INSERT INTO words VALUES ('apple', 1), ('apricot', 2), ('banana', 3)"); res.OK != "INSERT 3" {
		t.Fatalf("insert: %q", res.OK)
	}
	res := mustExec("SELECT * FROM words WHERE name #= 'ap'")
	if len(res.Rows) != 2 {
		t.Fatalf("prefix select returned %d rows: %v", len(res.Rows), res.Rows)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "name" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if res.Plan == "" {
		t.Fatal("select response carries no plan")
	}
	// A statement error must terminate cleanly and leave the session usable.
	if _, err := c.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("select from missing table succeeded")
	}
	if res := mustExec("SELECT * FROM words"); len(res.Rows) != 3 {
		t.Fatalf("post-error select returned %d rows", len(res.Rows))
	}
}

// TestServerValueEscaping: a row value holding framing characters
// (inserted through the Go API — SQL literals cannot carry newlines)
// must round-trip through the wire protocol instead of corrupting it.
func TestServerValueEscaping(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	tb, err := db.CreateTable("t", []executor.Column{
		{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	nasty := "a\nb\tc\\d\re"
	if _, err := tb.Insert(catalog.Tuple{catalog.NewText(nasty), catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	defer func() { srv.Shutdown(); l.Close(); <-done }()

	c, err := server.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != nasty {
		t.Fatalf("value did not round-trip: %q", res.Rows)
	}
	// The connection must still be framed correctly afterwards.
	if res, err := c.Exec("SHOW TABLES"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("stream desynchronized after escaped row: %v %v", res, err)
	}
}

// TestServerConcurrentSessions drives parallel clients — mixed readers
// and a writer — against one shared database. Run under -race this
// exercises the whole concurrent read path end to end: server sessions,
// shared statement lock, buffer pool, node caches.
func TestServerConcurrentSessions(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	seed, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Exec("CREATE TABLE words (name VARCHAR, id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Exec("CREATE INDEX wix ON words USING spgist (name spgist_trie)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		stmt := fmt.Sprintf("INSERT INTO words VALUES ('w%03d', %d)", i, i)
		if _, err := seed.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	const readers, writerRows, queries = 6, 50, 60
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < queries; i++ {
				// The seed rows w000..w199 never change; each two-digit
				// prefix w00..w19 matches exactly 10 of them (the
				// concurrent writer only adds x-prefixed rows).
				prefix := fmt.Sprintf("w%02d", (g+i)%20)
				res, err := c.Exec(fmt.Sprintf("SELECT * FROM words WHERE name #= '%s'", prefix))
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if len(res.Rows) != 10 {
					t.Errorf("reader %d: prefix %s returned %d rows, want 10", g, prefix, len(res.Rows))
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := server.Dial(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for i := 0; i < writerRows; i++ {
			stmt := fmt.Sprintf("INSERT INTO words VALUES ('x%03d', %d)", i, 1000+i)
			if _, err := c.Exec(stmt); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	check, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	res, err := check.Exec("SELECT * FROM words")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200+writerRows {
		t.Fatalf("final row count %d, want %d", len(res.Rows), 200+writerRows)
	}
}

// TestServerConcurrentBatchWritersTwoTables: sessions streaming
// multi-row INSERT statements into different tables hold different
// per-table writer locks and commit concurrently — the server-level
// face of the batched write pipeline.
func TestServerConcurrentBatchWritersTwoTables(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()

	seed, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := seed.Exec(fmt.Sprintf("CREATE TABLE t%d (name VARCHAR, id INT)", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := seed.Exec(fmt.Sprintf("CREATE INDEX ix%d ON t%d USING spgist (name spgist_trie)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	const batches, rows = 6, 40
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Errorf("writer %d: %v", g, err)
				return
			}
			defer c.Close()
			for b := 0; b < batches; b++ {
				stmt := fmt.Sprintf("INSERT INTO t%d VALUES ", g)
				for j := 0; j < rows; j++ {
					if j > 0 {
						stmt += ", "
					}
					id := b*rows + j
					stmt += fmt.Sprintf("('w%d_%04d', %d)", g, id, id)
				}
				res, err := c.Exec(stmt)
				if err != nil {
					t.Errorf("writer %d batch %d: %v", g, b, err)
					return
				}
				if want := fmt.Sprintf("INSERT %d", rows); res.OK != want {
					t.Errorf("writer %d batch %d: got %q want %q", g, b, res.OK, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for g := 0; g < 2; g++ {
		res, err := c.Exec(fmt.Sprintf("SELECT * FROM t%d WHERE name #= 'w%d_'", g, g))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != batches*rows {
			t.Fatalf("table t%d: %d rows, want %d", g, len(res.Rows), batches*rows)
		}
	}
}
