package sqlmini

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Result is the outcome of one statement.
type Result struct {
	// Columns and Rows are set for SELECT.
	Columns []string
	Rows    []catalog.Tuple
	// Distances accompanies Rows for ORDER BY ... <-> queries.
	Distances []float64
	// Plan is the chosen access path (always set for SELECT; the whole
	// point for EXPLAIN).
	Plan string
	// Affected counts rows for INSERT/DELETE.
	Affected int
	// Msg is a human-readable confirmation for DDL.
	Msg string
	// TraceJSON carries the statement's span timeline in Chrome
	// trace-event format (EXPLAIN (TRACE) only).
	TraceJSON []byte

	// ran is the plan an executed SELECT, UPDATE or DELETE really ran
	// (nil for EXPLAIN and everything else); the slow-query log reports
	// its kind and estimate.
	// limited says a LIMIT cut the scan short, so len(Rows) says nothing
	// about that estimate.
	ran     *executor.Plan
	limited bool
}

// Session executes SQL against a database. Every session registers in
// the database's live activity table (SHOW ACTIVITY); callers that open
// many sessions should Close them so their entries are removed.
//
// A session holds at most one open transaction (BEGIN ... COMMIT /
// ROLLBACK); DML and SELECT statements between BEGIN and COMMIT run
// through the executor's *Tx entry points, so their changes stay
// invisible to every other session until COMMIT. A Session is not safe
// for concurrent use by multiple goroutines (the server gives each
// connection its own), and it shows its waits live only on the
// goroutine that ran its first statement.
type Session struct {
	DB    *executor.DB
	entry *obs.SessionEntry
	tx    *executor.Txn
	// toks is the token slice of the last statement, kept for the next
	// one to lex into.
	toks []token
}

// maxKeptTokens bounds the token slice a session keeps between
// statements: one long INSERT must not pin its tokens for the session's
// life.
const maxKeptTokens = 256

// NewSession wraps a database as a local (embedded) session.
func NewSession(db *executor.DB) *Session { return NewSessionWithClient(db, "local") }

// NewSessionWithClient wraps a database, labelling the session's
// activity entry with the client's identity (the server passes the
// connection's remote address).
func NewSessionWithClient(db *executor.DB, client string) *Session {
	return &Session{DB: db, entry: db.Activity().Register(client)}
}

// Close rolls back any open transaction and removes the session from
// the activity table. Using the session after Close is fine — it just
// no longer appears in SHOW ACTIVITY.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
	s.entry.Close()
}

// InTxn reports whether the session has an open explicit transaction.
// The server uses it to arm the idle-in-transaction timeout.
func (s *Session) InTxn() bool { return s.tx != nil }

// Exec parses and runs one statement. The session's activity entry
// tracks it live (statement text, active/waiting state, wait event) for
// the duration. When the database was opened with a slow-query
// threshold, statements at or over it are logged with their text,
// duration, buffer traffic and — for an executed SELECT, UPDATE or
// DELETE — the plan kind with its estimated and actual row counts (the
// counts are left out when a LIMIT stopped the scan, as in EXPLAIN
// ANALYZE).
func (s *Session) Exec(sql string) (*Result, error) {
	res, _, err := s.ExecTimed(sql, time.Now())
	return res, err
}

// ExecTimed is Exec for a caller that read the clock as the statement
// arrived: start serves the activity entry, the trace and the
// slow-query log, and elapsed, read once at the statement's end, is
// what the slow-query log compares with its threshold.
func (s *Session) ExecTimed(sql string, start time.Time) (res *Result, elapsed time.Duration, err error) {
	s.entry.Begin(sql, start)
	defer s.entry.End()
	threshold, logw := s.DB.SlowQueryConfig()
	logSlow := threshold > 0 && logw != nil
	var before storage.PoolStats
	if logSlow {
		before = s.DB.PoolStats()
	}
	res, err = s.exec(sql, start)
	elapsed = time.Since(start)
	if logSlow && elapsed >= threshold {
		after := s.DB.PoolStats()
		status := "ok"
		if err != nil {
			status = "error: " + err.Error()
		}
		plan := ""
		if res != nil && res.ran != nil {
			plan = ", plan=" + res.ran.Kind.String()
			actual := len(res.Rows)
			if res.Columns == nil { // UPDATE or DELETE
				actual = res.Affected
			}
			if !res.limited {
				plan += fmt.Sprintf(" est=%d actual=%d", res.ran.Rows, actual)
			}
		}
		fmt.Fprintf(logw, "slow query (%.1f ms, hits=%d misses=%d%s, %s): %s\n",
			elapsed.Seconds()*1000, after.Hits-before.Hits,
			after.Misses-before.Misses, plan, status, strings.TrimSpace(sql))
	}
	return res, elapsed, err
}

func (s *Session) exec(sql string, start time.Time) (*Result, error) {
	s.DB.FaultPanicCheck(sql)
	var tr *obs.Tracer
	if s.DB.TraceDir() != "" {
		// TraceDir traces every statement: arm before lexing so the
		// parse span lands on the timeline like any other.
		tr = obs.NewTracerStarted(start)
		defer s.writeTrace(tr)
		defer tr.Arm()()
	}
	toks, err := lex(sql, s.toks)
	defer s.keepTokens(toks)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.AddRange("parse", "sql", start, time.Now())
	}
	p := &parser{toks: toks, stmtStart: start}
	return p.statement(s)
}

// keepTokens keeps toks, emptied, for the session's next statement to
// lex into, unless it grew past maxKeptTokens.
func (s *Session) keepTokens(toks []token) {
	if cap(toks) > maxKeptTokens {
		s.toks = nil
		return
	}
	clear(toks) // the texts pin the statement
	s.toks = toks[:0]
}

// writeTrace finishes tr and writes its Chrome trace-event JSON as one
// file in the database's TraceDir. Best effort: a write failure loses
// the trace, never the statement.
func (s *Session) writeTrace(tr *obs.Tracer) {
	tr.Finish("statement")
	name := fmt.Sprintf("trace_%d_%d.json", s.entry.ID(), time.Now().UnixNano())
	os.WriteFile(filepath.Join(s.DB.TraceDir(), name), tr.ChromeJSON(), 0o644)
}

type parser struct {
	toks []token
	i    int
	// stmtStart is when the statement began, recorded by exec so
	// EXPLAIN (TRACE) — which only learns it should trace after parsing
	// its prefix — can backfill the parse span onto its tracer.
	stmtStart time.Time
	// pred is the statement's WHERE clause, where it has one.
	pred executor.Pred
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) at(k tokenKind, text string) bool {
	t := p.peek()
	if t.kind != k {
		return false
	}
	return text == "" || strings.EqualFold(t.text, text)
}

func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	t := p.peek()
	if !p.at(k, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", k)
		}
		return t, fmt.Errorf("sql: expected %q, found %q", want, t.text)
	}
	p.i++
	return t, nil
}

func (p *parser) keyword(words ...string) error {
	for _, w := range words {
		if _, err := p.expect(tokIdent, w); err != nil {
			return err
		}
	}
	return nil
}

// noTxn rejects statements that cannot run inside an explicit
// transaction: DDL and maintenance take the exclusive statement lock
// and commit under their own markers, which a surrounding transaction's
// COMMIT/ROLLBACK could not undo.
func noTxn(s *Session, stmt string) error {
	if s.tx != nil {
		return fmt.Errorf("sql: %s cannot run inside a transaction", stmt)
	}
	return nil
}

// statement parses and runs one statement. Every statement parses to its
// end before it executes anything, so one with trailing input fails
// having changed nothing.
func (p *parser) statement(s *Session) (*Result, error) {
	switch {
	case p.at(tokIdent, "BEGIN"):
		p.i++
		if err := p.end(); err != nil {
			return nil, err
		}
		if s.tx != nil {
			return nil, fmt.Errorf("sql: already in a transaction")
		}
		tx, err := s.DB.Begin()
		if err != nil {
			return nil, err
		}
		s.tx = tx
		return &Result{Msg: "BEGIN"}, nil
	case p.at(tokIdent, "COMMIT"):
		p.i++
		if err := p.end(); err != nil {
			return nil, err
		}
		if s.tx == nil {
			return nil, fmt.Errorf("sql: no transaction in progress")
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		return &Result{Msg: "COMMIT"}, nil
	case p.at(tokIdent, "ROLLBACK"):
		p.i++
		if err := p.end(); err != nil {
			return nil, err
		}
		if s.tx == nil {
			return nil, fmt.Errorf("sql: no transaction in progress")
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Rollback(); err != nil {
			return nil, err
		}
		return &Result{Msg: "ROLLBACK"}, nil
	case p.at(tokIdent, "CREATE"):
		p.i++
		if p.accept(tokIdent, "TABLE") {
			if err := noTxn(s, "CREATE TABLE"); err != nil {
				return nil, err
			}
			return p.createTable(s)
		}
		if p.accept(tokIdent, "INDEX") {
			if err := noTxn(s, "CREATE INDEX"); err != nil {
				return nil, err
			}
			return p.createIndex(s)
		}
		return nil, fmt.Errorf("sql: CREATE must be followed by TABLE or INDEX")
	case p.at(tokIdent, "DROP"):
		p.i++
		if p.accept(tokIdent, "TABLE") {
			if err := noTxn(s, "DROP TABLE"); err != nil {
				return nil, err
			}
			return p.dropTable(s)
		}
		if p.accept(tokIdent, "INDEX") {
			if err := noTxn(s, "DROP INDEX"); err != nil {
				return nil, err
			}
			return p.dropIndex(s)
		}
		return nil, fmt.Errorf("sql: DROP must be followed by TABLE or INDEX")
	case p.at(tokIdent, "SHOW"):
		p.i++
		if p.accept(tokIdent, "TABLES") {
			return p.then(s, showTables)
		}
		if p.accept(tokIdent, "INDEXES") {
			return p.then(s, showIndexes)
		}
		if p.accept(tokIdent, "STATS") {
			return p.showStats(s)
		}
		if p.accept(tokIdent, "ACTIVITY") {
			return p.then(s, showActivity)
		}
		if p.accept(tokIdent, "STATE") {
			return p.then(s, showState)
		}
		return nil, fmt.Errorf("sql: SHOW must be followed by TABLES, INDEXES, STATS, ACTIVITY, or STATE")
	case p.at(tokIdent, "INSERT"):
		p.i++
		return p.insert(s)
	case p.at(tokIdent, "SELECT"):
		return p.selectStmt(s, modeExec)
	case p.at(tokIdent, "EXPLAIN"):
		p.i++
		if p.accept(tokPunct, "(") {
			if err := p.keyword("TRACE"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return p.explainTrace(s)
		}
		if p.accept(tokIdent, "ANALYZE") {
			return p.selectStmt(s, modeAnalyze)
		}
		return p.selectStmt(s, modeExplain)
	case p.at(tokIdent, "DELETE"):
		p.i++
		return p.deleteStmt(s)
	case p.at(tokIdent, "UPDATE"):
		p.i++
		return p.updateStmt(s)
	case p.at(tokIdent, "VACUUM"):
		p.i++
		if err := noTxn(s, "VACUUM"); err != nil {
			return nil, err
		}
		return p.vacuum(s)
	case p.at(tokIdent, "ANALYZE"):
		p.i++
		if err := noTxn(s, "ANALYZE"); err != nil {
			return nil, err
		}
		return p.analyze(s)
	case p.at(tokIdent, "SCRUB"):
		p.i++
		if err := noTxn(s, "SCRUB"); err != nil {
			return nil, err
		}
		return p.scrub(s)
	case p.at(tokIdent, "CHECKPOINT"):
		p.i++
		if err := noTxn(s, "CHECKPOINT"); err != nil {
			return nil, err
		}
		if err := p.end(); err != nil {
			return nil, err
		}
		if err := s.DB.Checkpoint(); err != nil {
			return nil, err
		}
		return &Result{Msg: "CHECKPOINT"}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement starting with %q", p.peek().text)
	}
}

// then runs run once the parser has reached the end of the statement, and
// fails without running it otherwise.
func (p *parser) then(s *Session, run func(*Session) (*Result, error)) (*Result, error) {
	if err := p.end(); err != nil {
		return nil, err
	}
	return run(s)
}

// CREATE TABLE name (col TYPE, ...)
func (p *parser) createTable(s *Session) (*Result, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var cols []executor.Column
	for {
		cn, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		tn, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		typ, err := catalog.TypeByName(tn.text)
		if err != nil {
			return nil, err
		}
		// Swallow an optional length like VARCHAR(50).
		if p.accept(tokPunct, "(") {
			if _, err := p.expect(tokNumber, ""); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
		}
		cols = append(cols, executor.Column{Name: cn.text, Type: typ})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if _, err := s.DB.CreateTable(name.text, cols); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("CREATE TABLE %s", name.text)}, nil
}

// CREATE INDEX name ON table USING method (col [opclass])
func (p *parser) createIndex(s *Session) (*Result, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if err := p.keyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if err := p.keyword("USING"); err != nil {
		return nil, err
	}
	method, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	col, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	opclass := ""
	if p.at(tokIdent, "") {
		oc, _ := p.expect(tokIdent, "")
		opclass = oc.text
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if _, err := s.DB.CreateIndex(name.text, table.text, col.text, strings.ToLower(method.text), opclass); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("CREATE INDEX %s", name.text)}, nil
}

// ANALYZE [table]: collect planner statistics from a block sample of
// the heap and persist them in the system catalog (bare ANALYZE covers
// every table). Persisted statistics survive reopens, so the first plan
// of the next session needs no heap scan.
func (p *parser) analyze(s *Session) (*Result, error) {
	name := ""
	if p.at(tokIdent, "") {
		tok, _ := p.expect(tokIdent, "")
		name = tok.text
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if name == "" {
		if err := s.DB.AnalyzeAll(); err != nil {
			return nil, err
		}
		return &Result{Msg: "ANALYZE"}, nil
	}
	t, err := s.DB.Table(name)
	if err != nil {
		return nil, err
	}
	if err := t.Analyze(); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("ANALYZE %s", name)}, nil
}

// end returns the trailing-input error unless the parser sits on the end
// of the statement. Every statement checks it before it executes, so
// `DELETE FROM t garbage` fails as a parse error without having deleted
// anything. Exec is a single-statement API, so a semicolon only ends the
// statement when nothing but EOF follows — `DROP TABLE t; DROP TABLE u`
// must not drop t and then parse-fail.
func (p *parser) end() error {
	if p.at(tokEOF, "") || p.at(tokPunct, ";") && p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tokEOF {
		return nil
	}
	return fmt.Errorf("sql: trailing input at %q", p.peek().text)
}

// DROP TABLE name
func (p *parser) dropTable(s *Session) (*Result, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if err := s.DB.DropTable(name.text); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("DROP TABLE %s", name.text)}, nil
}

// DROP INDEX name
func (p *parser) dropIndex(s *Session) (*Result, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if err := s.DB.DropIndex(name.text); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("DROP INDEX %s", name.text)}, nil
}

// SHOW STATE: one row reporting whether the database is healthy ("ok")
// or read-only after a storage failure ("degraded"), with the cause and
// onset time in the detail column.
func showState(s *Session) (*Result, error) {
	state, detail := s.DB.State()
	return &Result{
		Columns: []string{"state", "detail"},
		Rows:    []catalog.Tuple{{catalog.NewText(state), catalog.NewText(detail)}},
	}, nil
}

// SCRUB [table]: online checksum verification. Reads every page of
// every relation file (or only the named table's heap and indexes) back
// from disk and verifies it, reporting one row per corrupt page. A
// clean scan returns no rows — the Msg carries the coverage summary
// either way via the plan line.
func (p *parser) scrub(s *Session) (*Result, error) {
	table := ""
	if p.at(tokIdent, "") {
		table = p.peek().text
		p.i++
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	sr, err := s.DB.Scrub(table)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"file", "page", "error"}}
	for _, is := range sr.Issues {
		res.Rows = append(res.Rows, catalog.Tuple{
			catalog.NewText(is.File),
			catalog.NewInt(int64(is.Page)),
			catalog.NewText(is.Err.Error()),
		})
	}
	res.Plan = fmt.Sprintf("SCRUB: %d files, %d pages checked, %d corrupt",
		sr.FilesChecked, sr.PagesChecked, len(sr.Issues))
	return res, nil
}

// SHOW TABLES: one row per table record of the persistent system
// catalog — name, column list, live row count, and heap file. The whole
// statement runs under the shared catalog lock, so no DDL intermediate
// state is observed; each row count is read through RowCountShared,
// which additionally takes that table's own shared lock — a concurrent
// writer holds only its table's writer lock, so reading the heap
// counter without it would race the writer's count update.
func showTables(s *Session) (*Result, error) {
	s.DB.ShareLock()
	defer s.DB.ShareUnlock()
	res := &Result{Columns: []string{"table", "columns", "rows", "file"}}
	for _, te := range s.DB.Catalog().Tables() {
		var cols []string
		for _, c := range te.Cols {
			cols = append(cols, fmt.Sprintf("%s %v", c.Name, c.Type))
		}
		rows := int64(0)
		if t, err := s.DB.Table(te.Name); err == nil {
			rows = t.RowCountShared()
		}
		res.Rows = append(res.Rows, catalog.Tuple{
			catalog.NewText(te.Name),
			catalog.NewText(strings.Join(cols, ", ")),
			catalog.NewInt(rows),
			catalog.NewText(te.File),
		})
	}
	return res, nil
}

// SHOW STATS [table]: name/value rows. Bare SHOW STATS renders the whole
// metrics registry — executor statement and plan counters, buffer-pool
// and WAL traffic, latency histogram quantiles; with a table name it
// reports that table's pg_stat-style row (live rows, heap pages, the
// planner statistics' source, size, churn and staleness, per-index
// sizes and scan counts).
func (p *parser) showStats(s *Session) (*Result, error) {
	res := &Result{Columns: []string{"name", "value"}}
	if p.accept(tokIdent, "RESET") {
		if err := p.end(); err != nil {
			return nil, err
		}
		// SHOW STATS RESET: zero every cumulative metric — registry
		// counters and histograms plus, via the reset hooks, the
		// buffer-pool, disk, WAL, and wait-event counters behind the
		// storage sampler — so experiments measure deltas against a
		// running server without restarting it.
		s.DB.Obs().Reset()
		return &Result{Msg: "STATS RESET"}, nil
	}
	table := ""
	if p.at(tokIdent, "") {
		table = p.peek().text
		p.i++
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if table != "" {
		t, err := s.DB.Table(table)
		if err != nil {
			return nil, err
		}
		stats, err := t.Stats()
		if err != nil {
			return nil, err
		}
		for _, st := range stats {
			value := catalog.NewInt(st.Value)
			if st.Text != "" {
				value = catalog.NewText(st.Text)
			}
			res.Rows = append(res.Rows, catalog.Tuple{catalog.NewText(st.Name), value})
		}
		return res, nil
	}
	s.DB.Obs().Each(func(name string, value int64) {
		res.Rows = append(res.Rows, catalog.Tuple{
			catalog.NewText(name), catalog.NewInt(value)})
	})
	return res, nil
}

// SHOW ACTIVITY: the live session table — one row per registered
// session with its client, state (idle/active/waiting), current wait
// event, current statement, and statement elapsed time. Lock-free on
// the statement path: the snapshot reads per-entry atomics, so it never
// blocks (and is never blocked by) running statements.
func showActivity(s *Session) (*Result, error) {
	res := &Result{Columns: []string{"id", "client", "state", "wait_event", "statement", "elapsed_ms"}}
	for _, si := range s.DB.Activity().Snapshot() {
		res.Rows = append(res.Rows, catalog.Tuple{
			catalog.NewInt(si.ID),
			catalog.NewText(si.Client),
			catalog.NewText(si.State),
			catalog.NewText(si.WaitEvent),
			catalog.NewText(si.Statement),
			catalog.NewFloat(si.StmtElapsed.Seconds() * 1000),
		})
	}
	return res, nil
}

// EXPLAIN (TRACE) <stmt>: really execute the inner statement (rows
// discarded, like EXPLAIN ANALYZE) with a tracer armed, then render its
// span timeline — parse, plan, execute, index descents, page reads, WAL
// append, commit wait — as an indented tree. The raw Chrome trace-event
// JSON rides on Result.TraceJSON for programmatic use (and lands in
// TraceDir too, when configured).
func (p *parser) explainTrace(s *Session) (*Result, error) {
	tr := obs.NewTracerStarted(p.stmtStart)
	// Lexing and the EXPLAIN (TRACE) prefix were parsed untraced;
	// backfill them as the parse span.
	tr.AddRange("parse", "sql", p.stmtStart, time.Now())
	disarm := tr.Arm()
	_, err := p.statement(s)
	disarm()
	if err != nil {
		return nil, err
	}
	tr.Finish("statement")
	res := &Result{Columns: []string{"TRACE"}, TraceJSON: tr.ChromeJSON()}
	for _, ln := range tr.Tree() {
		res.Rows = append(res.Rows, catalog.Tuple{catalog.NewText(fmt.Sprintf(
			"%s%-24s start=%.3f ms dur=%.3f ms",
			strings.Repeat("  ", ln.Depth), ln.Name,
			ln.Start.Seconds()*1000, ln.Dur.Seconds()*1000))})
	}
	return res, nil
}

// SHOW INDEXES: one row per index record of the persistent system
// catalog — name, table, indexed column, access method, operator class,
// and index file. Shared lock, like SHOW TABLES.
func showIndexes(s *Session) (*Result, error) {
	s.DB.ShareLock()
	defer s.DB.ShareUnlock()
	cat := s.DB.Catalog()
	res := &Result{Columns: []string{"index", "table", "column", "method", "opclass", "file"}}
	byOID := make(map[uint64]string)
	colName := func(tableOID uint64, ord int) string {
		tn, ok := byOID[tableOID]
		if !ok {
			return "?"
		}
		te, _ := cat.GetTable(tn)
		if ord < 0 || ord >= len(te.Cols) {
			return "?"
		}
		return te.Cols[ord].Name
	}
	for _, te := range cat.Tables() {
		byOID[te.OID] = te.Name
	}
	for _, ie := range cat.Indexes() {
		res.Rows = append(res.Rows, catalog.Tuple{
			catalog.NewText(ie.Name),
			catalog.NewText(byOID[ie.TableOID]),
			catalog.NewText(colName(ie.TableOID, ie.Column)),
			catalog.NewText(ie.Method),
			catalog.NewText(ie.OpClass),
			catalog.NewText(ie.File),
		})
	}
	return res, nil
}

// INSERT INTO table VALUES (lit, ...), (...)
//
// Every row list of the statement is parsed first, then the whole set
// executes as ONE batched statement (Table.InsertBatch): the heap fills
// each page under a single pin, index maintenance is grouped, and the
// batch commits under one WAL marker and one fsync — all-or-nothing
// across a crash. A parse error anywhere in the VALUES list therefore
// inserts nothing.
func (p *parser) insert(s *Session) (*Result, error) {
	if err := p.keyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	t, err := s.DB.Table(name.text)
	if err != nil {
		return nil, err
	}
	if err := p.keyword("VALUES"); err != nil {
		return nil, err
	}
	var tups []catalog.Tuple
	for {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var tup catalog.Tuple
		for ci := 0; ; ci++ {
			tok := p.peek()
			if tok.kind != tokString && tok.kind != tokNumber {
				return nil, fmt.Errorf("sql: expected literal, found %q", tok.text)
			}
			p.i++
			if ci >= len(t.Columns) {
				return nil, fmt.Errorf("sql: too many values for table %s", t.Name)
			}
			d, err := catalog.ParseLiteral(t.Columns[ci].Type, tok.text)
			if err != nil {
				return nil, err
			}
			tup = append(tup, d)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		if len(tup) != len(t.Columns) {
			return nil, fmt.Errorf("sql: table %s expects %d values, got %d", t.Name, len(t.Columns), len(tup))
		}
		tups = append(tups, tup)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if _, err := t.InsertBatchTx(s.tx, tups); err != nil {
		return nil, err
	}
	return &Result{Affected: len(tups), Msg: fmt.Sprintf("INSERT %d", len(tups))}, nil
}

// where parses [WHERE col OP literal] into the parser's predicate.
func (p *parser) where(t *executor.Table) (*executor.Pred, error) {
	if !p.accept(tokIdent, "WHERE") {
		return nil, nil
	}
	col, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	ci := -1
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, col.text) {
			ci = i
			break
		}
	}
	if ci < 0 {
		return nil, fmt.Errorf("sql: unknown column %q", col.text)
	}
	opTok := p.peek()
	if opTok.kind != tokOp {
		return nil, fmt.Errorf("sql: expected operator, found %q", opTok.text)
	}
	p.i++
	op, ok := catalog.LookupOperator(opTok.text, t.Columns[ci].Type)
	if !ok {
		return nil, fmt.Errorf("sql: no operator %q for type %v", opTok.text, t.Columns[ci].Type)
	}
	lit := p.peek()
	if lit.kind != tokString && lit.kind != tokNumber {
		return nil, fmt.Errorf("sql: expected literal, found %q", lit.text)
	}
	p.i++
	arg, err := catalog.ParseLiteral(op.Right, lit.text)
	if err != nil {
		return nil, err
	}
	p.pred = executor.Pred{Column: ci, Op: opTok.text, Arg: arg}
	return &p.pred, nil
}

// selectMode distinguishes how a SELECT statement runs: executed
// normally, planned only (EXPLAIN), or executed with instrumentation
// and only the measurements returned (EXPLAIN ANALYZE).
type selectMode int

const (
	modeExec selectMode = iota
	modeExplain
	modeAnalyze
)

// misestimateAt is the q-error from which EXPLAIN ANALYZE flags a plan.
const misestimateAt = 10

// analyzeResult renders EXPLAIN ANALYZE output, one "QUERY PLAN" row
// per line: the plan with the planner's cost and row estimates next to
// the actual run — flagged misestimate=N× when they are an order of
// magnitude apart (never for a scan a LIMIT cut short, whose actual
// count says nothing about the estimate) — then the buffer, WAL, and
// timing lines.
func analyzeResult(plan *executor.Plan, rs *executor.RunStats, limited bool) *Result {
	res := &Result{Columns: []string{"QUERY PLAN"}}
	line := func(format string, args ...any) {
		res.Rows = append(res.Rows, catalog.Tuple{
			catalog.NewText(fmt.Sprintf(format, args...))})
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	flag := ""
	if q := executor.QError(plan.Rows, rs.Rows); q >= misestimateAt && !limited {
		flag = fmt.Sprintf(" misestimate=%.0f×", q)
	}
	line("%s (actual time=%.3f ms rows=%d scanned=%d)%s",
		plan.String(), ms(rs.Elapsed), rs.Rows, rs.Scanned, flag)
	if rs.IndexPages >= 0 {
		line("  Buffers: hits=%d misses=%d index_pages=%d",
			rs.PoolHits, rs.PoolMisses, rs.IndexPages)
	} else {
		line("  Buffers: hits=%d misses=%d", rs.PoolHits, rs.PoolMisses)
	}
	line("  WAL: bytes=%d", rs.WALBytes)
	line("Execution Time: %.3f ms", ms(rs.Elapsed))
	return res
}

// SELECT * FROM t [WHERE ...] [ORDER BY col <-> lit] [LIMIT n]
func (p *parser) selectStmt(s *Session, mode selectMode) (*Result, error) {
	if err := p.keyword("SELECT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "*"); err != nil {
		return nil, fmt.Errorf("sql: only SELECT * is supported")
	}
	if err := p.keyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	t, err := s.DB.Table(name.text)
	if err != nil {
		return nil, err
	}
	pred, err := p.where(t)
	if err != nil {
		return nil, err
	}
	// ORDER BY col <-> literal
	nnCol := ""
	nnCi := -1
	var nnArg catalog.Datum
	if p.accept(tokIdent, "ORDER") {
		if err := p.keyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "<->"); err != nil {
			return nil, err
		}
		lit := p.peek()
		if lit.kind != tokString && lit.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected literal after <->, found %q", lit.text)
		}
		p.i++
		ci := -1
		for i, c := range t.Columns {
			if strings.EqualFold(c.Name, col.text) {
				ci = i
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", col.text)
		}
		// The <-> right operand has the column's own type (point-to-point,
		// string-to-string) except for segments, whose NN queries use a
		// point.
		argType := t.Columns[ci].Type
		if argType == catalog.Segment {
			argType = catalog.Point
		}
		nnArg, err = catalog.ParseLiteral(argType, lit.text)
		if err != nil {
			return nil, err
		}
		nnCol, nnCi = t.Columns[ci].Name, ci
	}
	limit := -1
	if p.accept(tokIdent, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		if limit, err = strconv.Atoi(n.text); err != nil || limit < 0 {
			return nil, fmt.Errorf("sql: LIMIT wants a non-negative integer, found %q", n.text)
		}
	}
	if err := p.end(); err != nil {
		return nil, err
	}

	res := &Result{Columns: t.ColumnNames()}

	nn := nnCol != ""
	if nn && pred != nil {
		return nil, fmt.Errorf("sql: WHERE together with ORDER BY <-> is not supported")
	}
	// One statement, one lock window: the plan reported is the plan the
	// scan actually ran (planning it separately could race a writer and
	// report a different access path than the one executed), and every
	// form that executes reads through the session's transaction, so
	// inside BEGIN its own uncommitted writes are visible to it. An NN
	// limit < 0 flows through as "all rows": the executor resolves it
	// against the row count inside that same window.
	var (
		plan *executor.Plan
		rs   *executor.RunStats
		nns  []executor.NNResult
		// limited: a predicate scan stopped at its LIMIT, so its row
		// count says nothing about the planner's estimate.
		limited bool
	)
	switch {
	case mode == modeExplain && nn:
		plan, err = t.PlanNN(nnCi, nnArg, limit)
	case mode == modeExplain:
		plan, err = t.PlanSelect(pred)
	case mode == modeAnalyze && nn:
		_, plan, rs, err = t.SelectNNAnalyzed(s.tx, nnCol, nnArg, limit)
	case mode == modeAnalyze:
		// Like PostgreSQL, the statement really executes (LIMIT
		// included) but the rows are discarded; only the measurements
		// come back.
		n := 0
		plan, rs, err = t.SelectAnalyzed(s.tx, pred, func(executor.Row) bool {
			n++
			return limit < 0 || n < limit
		})
		limited = limit >= 0 && n >= limit
	case nn:
		nns, plan, err = t.SelectNNTx(s.tx, nnCol, nnArg, limit)
	default:
		plan, err = t.SelectTx(s.tx, pred, func(r executor.Row) bool {
			if limit == 0 {
				return false
			}
			res.Rows = append(res.Rows, r.Tuple)
			return limit < 0 || len(res.Rows) < limit
		})
		limited = limit >= 0 && len(res.Rows) >= limit
	}
	if err != nil {
		return nil, err
	}
	if rs != nil {
		return analyzeResult(plan, rs, limited), nil
	}
	res.Plan = plan.String()
	if mode == modeExplain {
		return res, nil
	}
	res.ran = plan
	for _, r := range nns {
		res.Rows = append(res.Rows, r.Tuple)
		res.Distances = append(res.Distances, r.Distance)
	}
	res.limited = limited
	return res, nil
}

// DELETE FROM t [WHERE ...]
func (p *parser) deleteStmt(s *Session) (*Result, error) {
	if err := p.keyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	t, err := s.DB.Table(name.text)
	if err != nil {
		return nil, err
	}
	pred, err := p.where(t)
	if err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	n, plan, err := t.DeleteWhereTx(s.tx, pred)
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Msg: fmt.Sprintf("DELETE %d", n), ran: plan}, nil
}

// UPDATE t SET col = lit [, col = lit ...] [WHERE ...]
func (p *parser) updateStmt(s *Session) (*Result, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	t, err := s.DB.Table(name.text)
	if err != nil {
		return nil, err
	}
	if err := p.keyword("SET"); err != nil {
		return nil, err
	}
	var sets []executor.ColUpdate
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ci := -1
		for i, c := range t.Columns {
			if strings.EqualFold(c.Name, col.text) {
				ci = i
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", col.text)
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		lit := p.peek()
		if lit.kind != tokString && lit.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected literal, found %q", lit.text)
		}
		p.i++
		val, err := catalog.ParseLiteral(t.Columns[ci].Type, lit.text)
		if err != nil {
			return nil, err
		}
		sets = append(sets, executor.ColUpdate{Column: ci, Value: val})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	pred, err := p.where(t)
	if err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	n, plan, err := t.UpdateWhereTx(s.tx, pred, sets)
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Msg: fmt.Sprintf("UPDATE %d", n), ran: plan}, nil
}

// VACUUM [table]: reclaim dead tuple versions (committed deletes and
// rolled-back inserts no snapshot can see) and their index entries;
// bare VACUUM covers every table.
func (p *parser) vacuum(s *Session) (*Result, error) {
	name := ""
	if p.at(tokIdent, "") {
		tok, _ := p.expect(tokIdent, "")
		name = tok.text
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	n, err := s.DB.Vacuum(name)
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Msg: fmt.Sprintf("VACUUM %d", n)}, nil
}
