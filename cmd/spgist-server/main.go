// Command spgist-server serves one database to many concurrent SQL
// sessions over TCP — the multi-backend shape the paper's SP-GiST
// realization lives in inside PostgreSQL. Each connection gets its own
// sqlmini session over one shared engine; SELECT-class statements run
// concurrently under the engine's shared statement lock while DML and
// DDL serialize as single writers.
//
//	$ spgist-server -addr :5433 -dir /path/to/db
//	$ printf 'SHOW TABLES\n' | nc localhost 5433
//
// A database in -dir is write-ahead logged: killed at any point, the
// server recovers every committed statement at its next start.
//
// Protocol (newline-framed text; see internal/server):
//
//	client: one SQL statement per line
//	server: "#cols ...", "row ...", "plan ..." lines, then "OK ..." or "ERR ..."
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/executor"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", "localhost:5433", "TCP listen address")
	httpAddr := flag.String("http", "", "HTTP observability listen address for /metrics, /activity, /healthz, /debug/pprof (empty disables)")
	dir := flag.String("dir", "", "database directory (default: in-memory)")
	walLazy := flag.Bool("wal-lazy", false, "sync the log lazily instead of on every commit (requires -dir)")
	poolPages := flag.Int("pool", 0, "buffer-pool pages per database (default 1024)")
	slowQuery := flag.Duration("slow-query", 0, "log statements at or over this duration to stderr (0 disables)")
	traceDir := flag.String("trace-dir", "", "write a Chrome trace-event JSON file per statement into this directory (empty disables)")
	idleTxn := flag.Duration("idle-txn-timeout", 0, "roll back and disconnect sessions idle in an open transaction this long (0 disables)")
	flag.Parse()

	if *walLazy && *dir == "" {
		fmt.Fprintln(os.Stderr, "-wal-lazy requires -dir: an in-memory database has no log")
		os.Exit(2)
	}
	mode := wal.SyncCommit
	if *walLazy {
		mode = wal.SyncLazy
	}
	db, err := executor.Open(executor.Options{
		Dir: *dir, WALSync: mode, PoolPages: *poolPages,
		SlowQueryThreshold: *slowQuery, TraceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	if rs := db.RecoveryStats(); rs.PagesWritten > 0 || rs.TornTail {
		fmt.Printf("recovered from WAL: %d records, %d pages written across %d files\n",
			rs.Records, rs.PagesWritten, rs.FilesTouched)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := server.New(db)
	if *idleTxn > 0 {
		srv.SetIdleTxnTimeout(*idleTxn)
	}

	var httpL net.Listener
	if *httpAddr != "" {
		httpL, err = net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		go func() {
			if serr := http.Serve(httpL, srv.HTTPHandler()); serr != nil && !isClosedErr(serr) {
				fmt.Fprintln(os.Stderr, serr)
			}
		}()
		fmt.Printf("observability HTTP on %s (/metrics /activity /healthz /debug/pprof)\n", httpL.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\nshutting down")
		srv.Shutdown()
		l.Close()
		if httpL != nil {
			httpL.Close()
		}
	}()

	fmt.Printf("spgist-server listening on %s (db: %s)\n", l.Addr(), dbLabel(*dir))
	if err := srv.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

func dbLabel(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
