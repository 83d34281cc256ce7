// Observability: the wait-event profile of a concurrent workload, end
// to end. The program starts the serving core with its HTTP sidecar
// in-process, seeds a trie-indexed table, then runs the same client mix
// twice — first read-only, then with a writer churning the table — and
// prints the wait-event profile of each phase (STATS RESET between
// them), showing lock_table and wal-class waits appear only once
// writers join. While the load runs, it scrapes ACTIVITY over the wire
// and /metrics + /activity + /healthz over HTTP, and exits non-zero if
// any surface fails to answer — CI runs this as the observability smoke
// test.
//
// The same surfaces on a standalone server:
//
//	$ go run ./cmd/spgist-server -addr :5433 -http :9187 &
//	$ curl -s localhost:9187/metrics | grep wait_
//	$ printf 'ACTIVITY\n' | nc localhost 5433
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/server"
)

const rows = 5000

func main() {
	db := executor.OpenMemory()
	defer db.Close()
	srv := server.New(db)

	sqlL, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sqlL) }()
	addr := sqlL.Addr().String()

	httpL, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(httpL, srv.HTTPHandler())
	httpAddr := httpL.Addr().String()
	fmt.Printf("SQL on %s, observability HTTP on %s\n", addr, httpAddr)

	// Seed: one table, one trie index.
	seed := dial(addr)
	mustExec(seed, "CREATE TABLE words (name VARCHAR, id INT)")
	mustExec(seed, "CREATE INDEX wix ON words USING spgist (name spgist_trie)")
	for i := 0; i < rows; i += 50 {
		var vals []string
		for j := 0; j < 50; j++ {
			vals = append(vals, fmt.Sprintf("('word%04d', %d)", i+j, i+j))
		}
		mustExec(seed, "INSERT INTO words VALUES "+strings.Join(vals, ", "))
	}
	// ANALYZE so the exact-match reads go through the trie index: fast
	// reads that pile up behind the writer's batches are what makes the
	// second phase's lock_table waits visible.
	mustExec(seed, "ANALYZE words")
	seed.Close()
	fmt.Printf("seeded %d rows\n\n", rows)

	// Phase 1: readers only. Phase 2: same readers plus a writer. The
	// STATS RESET between phases is what makes the two profiles
	// comparable deltas rather than one cumulative smear.
	profileBefore := runPhase(addr, httpAddr, false)
	reset := dial(addr)
	if err := reset.StatsReset(); err != nil {
		log.Fatalf("STATS RESET: %v", err)
	}
	reset.Close()
	profileAfter := runPhase(addr, httpAddr, true)

	fmt.Println("wait-event profile, readers only vs readers + writer:")
	fmt.Printf("  %-18s %12s %12s\n", "event", "readers", "+writer")
	names := make([]string, 0)
	for name := range profileAfter {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-18s %12d %12d\n", name, profileBefore[name], profileAfter[name])
	}
	if profileAfter["lock_table"] == 0 {
		fmt.Println("note: no table-lock waits observed; the writer never collided with a reader this run")
	}

	srv.Shutdown()
	sqlL.Close()
	httpL.Close()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
}

// runPhase drives the client mix for a fixed window, scrapes ACTIVITY
// and the HTTP surfaces mid-flight, and returns the phase's wait-event
// counts (wait_<event>_total) from STATS.
func runPhase(addr, httpAddr string, withWriter bool) map[string]int64 {
	readers := runtime.GOMAXPROCS(0)
	if readers < 2 {
		readers = 2
	}
	const window = 1500 * time.Millisecond
	var stop atomic.Bool
	var ops atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := dial(addr)
			defer c.Close()
			for i := 0; !stop.Load(); i++ {
				stmt := fmt.Sprintf("SELECT * FROM words WHERE name = 'word%04d'", (g*911+i)%rows)
				if _, err := c.Exec(stmt); err != nil {
					log.Fatalf("reader %d: %v", g, err)
				}
				ops.Add(1)
			}
		}(g)
	}
	if withWriter {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(addr)
			defer c.Close()
			// Batched inserts hold the table's write lock long enough for
			// readers to actually pile up on it — single-row inserts
			// release it faster than a TCP round trip, and the profile
			// would show nothing. The batch is sized to hold the lock past
			// the Go scheduler's preemption interval so the collision is
			// observable even on a single-CPU host.
			for i := 0; !stop.Load(); i += 2000 {
				var vals []string
				for j := 0; j < 2000; j++ {
					vals = append(vals, fmt.Sprintf("('extra%07d', %d)", i+j, rows+i+j))
				}
				if _, err := c.Exec("INSERT INTO words VALUES " + strings.Join(vals, ", ")); err != nil {
					log.Fatalf("writer: %v", err)
				}
				ops.Add(1)
			}
		}()
	}

	// Mid-flight, every observability surface must answer.
	scraper := dial(addr)
	time.Sleep(window / 3)
	snap, err := scraper.Activity()
	if err != nil {
		log.Fatalf("ACTIVITY scrape: %v", err)
	}
	want := readers + 1 // readers + this scraper
	if withWriter {
		want++
	}
	if len(snap) != want {
		log.Fatalf("ACTIVITY shows %d sessions, want %d", len(snap), want)
	}
	for _, path := range []string{"/metrics", "/activity", "/healthz"} {
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			log.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			log.Fatalf("GET %s: status %d, %d bytes", path, resp.StatusCode, len(body))
		}
		if path == "/metrics" && !strings.Contains(string(body), "wait_buf_pool_total") {
			log.Fatalf("/metrics missing wait-event families")
		}
	}

	time.Sleep(window - window/3)
	stop.Store(true)
	wg.Wait()

	stats, err := scraper.Stats()
	if err != nil {
		log.Fatalf("STATS scrape: %v", err)
	}
	scraper.Close()

	label := "readers only"
	if withWriter {
		label = "readers + writer"
	}
	fmt.Printf("phase %-16s: %d statements, %d sessions seen in ACTIVITY\n", label, ops.Load(), len(snap))

	profile := make(map[string]int64)
	for name, v := range stats {
		if event, ok := strings.CutPrefix(name, "wait_"); ok {
			if event, ok := strings.CutSuffix(event, "_total"); ok && !strings.HasSuffix(event, "_ns") {
				profile[event] = v
			}
		}
	}
	return profile
}

func dial(addr string) *server.Client {
	c, err := server.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func mustExec(c *server.Client, stmt string) {
	if _, err := c.Exec(stmt); err != nil {
		log.Fatalf("%s: %v", stmt, err)
	}
}
