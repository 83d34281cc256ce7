// Package server implements spgist-server's line-protocol TCP front end:
// one sqlmini session per connection over one shared executor.DB, which
// is what turns the engine's shared/exclusive statement locking into
// real concurrency — N clients running SELECTs make N scans proceed in
// parallel, while a client running DML serializes as a single writer.
//
// The wire protocol is deliberately trivial (newline-framed text, telnet-
// and netcat-friendly), standing in for the PostgreSQL frontend/backend
// protocol the paper's SP-GiST realization inherits for free:
//
//	client: one SQL statement per line (a trailing ';' is fine)
//	server: zero or more result lines, then exactly one terminator line
//
//	  #cols <tab-separated column names>   (SELECT/SHOW only)
//	  row <tab-separated values>           (one per result row)
//	  plan <access path>                   (SELECT/EXPLAIN)
//	  OK <n rows | message>                (success terminator)
//	  ERR <message>                        (failure terminator)
//
// Backslashes, newlines, carriage returns, and tabs inside row values
// are escaped as \\ \n \r \t so a value can never break the framing;
// the Go Client reverses the escaping.
//
// A line of "\q" (or EOF) ends the session.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/sqlmini"
)

// Server serves a shared database over a net.Listener.
type Server struct {
	db *executor.DB

	// Server-level metrics, registered on the database's registry so
	// one STATS scrape covers every layer. Pointers are cached here:
	// the per-statement path pays one atomic add, never a registry
	// lookup.
	sessionsTotal  *obs.Counter
	sessionsActive *obs.Gauge
	queriesTotal   *obs.Counter
	queryLatency   *obs.Histogram
	panicsTotal    *obs.Counter

	// idleTxnTimeout, when > 0, bounds how long a connection may sit
	// idle with an open transaction. An open transaction holds its
	// tables' write locks, so one stalled client could otherwise block
	// every writer (and all DDL) on those tables forever — the same
	// failure mode PostgreSQL's idle_in_transaction_session_timeout
	// exists for. On expiry the transaction is rolled back and the
	// connection closed with an ERR terminator.
	idleTxnTimeout time.Duration

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// New wraps a database. The caller keeps ownership: closing the server
// does not close the database.
func New(db *executor.DB) *Server {
	reg := db.Obs()
	return &Server{
		db:             db,
		conns:          make(map[net.Conn]struct{}),
		sessionsTotal:  reg.Counter("server_sessions_total"),
		sessionsActive: reg.Gauge("server_sessions_active"),
		queriesTotal:   reg.Counter("server_queries_total"),
		queryLatency:   reg.Histogram("server_query_latency"),
		panicsTotal:    reg.Counter("server_panics_total"),
	}
}

// SetIdleTxnTimeout bounds how long a connection may idle inside an
// open transaction before the server rolls it back and disconnects it
// (0 disables, the default). Set before Serve.
func (s *Server) SetIdleTxnTimeout(d time.Duration) { s.idleTxnTimeout = d }

// Serve accepts connections on l until the listener is closed (Shutdown
// or an external Close), running each connection's session on its own
// goroutine. It returns nil on clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if s.closed() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.untrack(conn)
			s.session(conn)
		}()
	}
}

// Shutdown stops accepting (the caller closes the listener) and closes
// every live connection so Serve's goroutines drain.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.done = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// session runs one connection: a private sqlmini session over the shared
// database, one statement per line. The protocol verb STATS (not SQL —
// handled before the parser) dumps the metrics registry in the normal
// result framing.
func (s *Server) session(conn net.Conn) {
	s.sessionsTotal.Inc()
	s.sessionsActive.Add(1)
	defer s.sessionsActive.Add(-1)
	sess := sqlmini.NewSessionWithClient(s.db, conn.RemoteAddr().String())
	defer sess.Close()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 64<<10), 1<<20)
	out := bufio.NewWriter(conn)
	for {
		// The idle-in-transaction clock runs only while waiting for the
		// client's next line with a transaction open — execution time and
		// idle time outside transactions are unbounded as before.
		if s.idleTxnTimeout > 0 {
			deadline := time.Time{}
			if sess.InTxn() {
				deadline = time.Now().Add(s.idleTxnTimeout)
			}
			conn.SetReadDeadline(deadline)
		}
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if line == `\q` || strings.EqualFold(line, "quit") {
			return
		}
		if strings.EqualFold(line, "STATS RESET") {
			s.db.Obs().Reset()
			fmt.Fprintf(out, "OK STATS RESET\n")
			if out.Flush() != nil {
				return
			}
			continue
		}
		if strings.EqualFold(line, "STATS") {
			s.writeStats(out)
			if out.Flush() != nil {
				return
			}
			continue
		}
		if strings.EqualFold(line, "ACTIVITY") {
			s.writeActivity(out)
			if out.Flush() != nil {
				return
			}
			continue
		}
		res, elapsed, err := s.execGuarded(sess, line, time.Now())
		s.queryLatency.Observe(elapsed)
		s.queriesTotal.Inc()
		if err != nil {
			writeErr(out, err)
		} else {
			writeResult(out, res)
		}
		if out.Flush() != nil {
			return
		}
	}
	// A scan failure (most likely a statement over the 1MB line limit)
	// still owes the client its terminator line — without it the client
	// cannot distinguish "statement rejected" from "server died".
	if err := in.Err(); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && sess.InTxn() {
			// Idle-in-transaction expiry: the deferred sess.Close rolls
			// the transaction back; tell the client why it was cut off.
			writeErr(out, fmt.Errorf("idle-in-transaction timeout (%s): transaction rolled back", s.idleTxnTimeout))
			out.Flush()
			return
		}
		writeErr(out, err)
		out.Flush()
	}
}

// execGuarded runs one statement, converting a panic anywhere in the
// parse/execute path into an ordinary ERR for this one statement. The
// recover sits here — above every engine layer — so the deferred
// unlocks between the panic point and this frame all run during
// unwinding; engine locks are released, this session's loop continues,
// and no other connection notices. The stack is logged to stderr and
// counted (server_panics_total): a panic is still a bug worth paging
// on, it just is not a process kill taking every session with it.
func (s *Server) execGuarded(sess *sqlmini.Session, line string, start time.Time) (res *sqlmini.Result, elapsed time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			elapsed = time.Since(start)
			s.panicsTotal.Inc()
			fmt.Fprintf(os.Stderr, "server: panic executing %q: %v\n%s", line, r, debug.Stack())
			res, err = nil, fmt.Errorf("internal error: statement panicked: %v", r)
		}
	}()
	return sess.ExecTimed(line, start)
}

// writeStats answers the STATS verb: every counter, gauge, and expanded
// histogram of the metrics registry as name/value rows — expvar-style
// flattened integers, same names and values as SHOW STATS — in the
// normal result framing, so the Go Client, netcat, and the CI scrape
// all read it like a SELECT.
func (s *Server) writeStats(out *bufio.Writer) {
	fmt.Fprintf(out, "#cols name\tvalue\n")
	n := 0
	s.db.Obs().Each(func(name string, value int64) {
		fmt.Fprintf(out, "row %s\t%d\n", name, value)
		n++
	})
	fmt.Fprintf(out, "OK %d\n", n)
}

// writeActivity answers the ACTIVITY verb: the live session table — one
// row per connected session with its state, wait event, and current
// statement — in the normal result framing. Statement text is escaped
// like any row value, so multi-line SQL cannot tear the framing.
func (s *Server) writeActivity(out *bufio.Writer) {
	fmt.Fprintf(out, "#cols id\tclient\tstate\twait_event\tstatement\telapsed_ms\n")
	snap := s.db.Activity().Snapshot()
	for _, si := range snap {
		fmt.Fprintf(out, "row %d\t%s\t%s\t%s\t%s\t%.3f\n",
			si.ID, appendEscaped(nil, si.Client), si.State, si.WaitEvent,
			appendEscaped(nil, si.Statement), si.StmtElapsed.Seconds()*1000)
	}
	fmt.Fprintf(out, "OK %d\n", len(snap))
}

// writeErr emits the failure terminator. Newlines inside the message
// would break the framing, so they are flattened.
func writeErr(w *bufio.Writer, err error) {
	msg := strings.ReplaceAll(err.Error(), "\n", " ")
	fmt.Fprintf(w, "ERR %s\n", msg)
}

// appendEscaped appends a row value so that it cannot break the wire
// framing: newlines would end the line early and tabs would split the
// column, so both are emitted as their backslash escapes (the value
// "a\nb" arrives as the five characters `a\nb`). Values without framing
// characters — all of SQL-literal-insertable text — are appended as
// they are.
func appendEscaped(b []byte, v string) []byte {
	if !strings.ContainsAny(v, "\\\n\r\t") {
		return append(b, v...)
	}
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, c)
		}
	}
	return b
}

// writeResult emits one statement's result lines and the OK terminator.
// It runs once per statement and once per row of every response, so
// each line is appended into the writer's own buffer: no per-value
// strings, no fmt.
func writeResult(w *bufio.Writer, res *sqlmini.Result) {
	if len(res.Columns) > 0 {
		b := append(w.AvailableBuffer(), "#cols "...)
		for i, c := range res.Columns {
			if i > 0 {
				b = append(b, '\t')
			}
			b = append(b, c...)
		}
		w.Write(append(b, '\n'))
	}
	for i, row := range res.Rows {
		b := append(w.AvailableBuffer(), "row "...)
		for j, d := range row {
			if j > 0 {
				b = append(b, '\t')
			}
			if d.Typ == catalog.Text {
				b = appendEscaped(b, d.S)
			} else {
				b = d.Append(b) // numbers and geometry hold no framing characters
			}
		}
		if res.Distances != nil {
			if len(row) > 0 {
				b = append(b, '\t')
			}
			b = strconv.AppendFloat(b, res.Distances[i], 'g', -1, 64)
		}
		w.Write(append(b, '\n'))
	}
	if res.Plan != "" {
		w.WriteString("plan ")
		w.WriteString(res.Plan)
		w.WriteByte('\n')
	}
	w.WriteString("OK ")
	if res.Msg != "" {
		w.WriteString(res.Msg)
	} else {
		w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(res.Rows)), 10))
	}
	w.WriteByte('\n')
}
