// Server: the multi-session SQL server under concurrent load. The
// program starts spgist-server's serving core in-process on a random
// local port over an in-memory database, seeds a table with an SP-GiST
// trie index, and then drives it from many concurrent TCP clients
// running exact-match and prefix SELECTs while one client keeps
// inserting. It prints the aggregate statement throughput — the number
// the engine's shared buffer pool and shared/exclusive statement lock
// exist to scale — then scrapes the STATS protocol verb and exits
// non-zero if the server-side counters undercount the issued traffic
// (CI runs this as its server smoke test).
//
// To run the same workload against a standalone server instead:
//
//	$ go run ./cmd/spgist-server -addr :5433 &
//	$ printf 'SHOW TABLES\n' | nc localhost 5433
package main

import (
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/server"
)

func main() {
	db := executor.OpenMemory()
	defer db.Close()
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(db)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	addr := l.Addr().String()
	fmt.Println("spgist-server listening on", addr)

	// Seed: one table, one trie index, 5000 words.
	seed, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	mustExec(seed, "CREATE TABLE words (name VARCHAR, id INT)")
	mustExec(seed, "CREATE INDEX wix ON words USING spgist (name spgist_trie)")
	const rows = 5000
	for i := 0; i < rows; i += 50 {
		stmt := "INSERT INTO words VALUES "
		for j := 0; j < 50; j++ {
			if j > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("('word%04d', %d)", i+j, i+j)
		}
		mustExec(seed, stmt)
	}
	seed.Close()
	fmt.Printf("seeded %d rows\n", rows)

	// Load: one writer session inserting, N reader sessions running
	// exact-match and prefix scans, for a fixed wall-clock window.
	readers := runtime.GOMAXPROCS(0)
	if readers < 2 {
		readers = 2
	}
	const window = 2 * time.Second
	var stop atomic.Bool
	var reads, writes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			for i := 0; !stop.Load(); i++ {
				var stmt string
				if i%2 == 0 {
					stmt = fmt.Sprintf("SELECT * FROM words WHERE name = 'word%04d'", (g*911+i)%rows)
				} else {
					stmt = fmt.Sprintf("SELECT * FROM words WHERE name #= 'word%02d'", (g+i)%50)
				}
				if _, err := c.Exec(stmt); err != nil {
					log.Fatalf("reader %d: %v", g, err)
				}
				reads.Add(1)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := server.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		for i := 0; !stop.Load(); i++ {
			stmt := fmt.Sprintf("INSERT INTO words VALUES ('extra%05d', %d)", i, rows+i)
			if _, err := c.Exec(stmt); err != nil {
				log.Fatalf("writer: %v", err)
			}
			writes.Add(1)
		}
	}()
	start := time.Now()
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	r, w := reads.Load(), writes.Load()
	fmt.Printf("%d reader sessions + 1 writer session over %v:\n", readers, elapsed.Round(time.Millisecond))
	fmt.Printf("  %8d SELECTs   (%.0f/s aggregate)\n", r, float64(r)/elapsed.Seconds())
	fmt.Printf("  %8d INSERTs   (%.0f/s)\n", w, float64(w)/elapsed.Seconds())

	// Scrape the STATS protocol verb and cross-check it against the
	// client-side tallies: the server must have counted every statement.
	scraper, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := scraper.Stats()
	scraper.Close()
	if err != nil {
		log.Fatalf("STATS scrape: %v", err)
	}
	fmt.Printf("STATS scrape: server_queries_total=%d server_sessions_total=%d p99=%s pool hit ratio=%.1f%%\n",
		stats["server_queries_total"], stats["server_sessions_total"],
		time.Duration(stats["server_query_latency_p99_ns"]),
		100*float64(stats["pool_hits_total"])/float64(stats["pool_hits_total"]+stats["pool_misses_total"]))
	if q := stats["server_queries_total"]; q < r+w {
		log.Fatalf("STATS undercounts: server_queries_total=%d, clients issued >= %d", q, r+w)
	}

	srv.Shutdown()
	l.Close()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
}

func mustExec(c *server.Client, stmt string) {
	if _, err := c.Exec(stmt); err != nil {
		log.Fatalf("%s: %v", stmt, err)
	}
}
