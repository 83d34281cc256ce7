package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/executor"
	"repro/internal/server"
	"repro/internal/wal"
)

const pageSize = 8192

// env is one open database served over loopback TCP, and the one
// closed-loop client connection that drives it.
type env struct {
	db     *executor.DB
	srv    *server.Server
	ln     net.Listener
	served chan error
	c      *server.Client
}

// openEnv opens (or reopens, with recovery) the database in dir with
// the given pool size, serves it on 127.0.0.1:0 and dials it.
func openEnv(dir string, pool int) (*env, error) {
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit, PoolPages: pool})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	e := &env{db: db, srv: server.New(db), served: make(chan error, 1)}
	e.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	go func() { e.served <- e.srv.Serve(e.ln) }()
	e.c, err = server.Dial(e.ln.Addr().String())
	if err != nil {
		e.stopServer()
		db.Close()
		return nil, err
	}
	return e, nil
}

// stopServer closes the client and the server and waits for Serve and
// its session goroutines to return. The database stays open.
func (e *env) stopServer() error {
	if e.c != nil {
		e.c.Close()
		e.c = nil
	}
	e.ln.Close()
	e.srv.Shutdown()
	return <-e.served
}

// close stops the server and closes the database cleanly.
func (e *env) close() error {
	err := e.stopServer()
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// calClock turns raw durations into calibrated ones. After each
// measured segment it runs a block of reference ops and scales the
// segment by refUS over the mean reference-op time of the blocks on
// either side of it.
type calClock struct {
	ref    *refOp
	blockN int
	prev   float64   // mean µs of the last block
	blocks []float64 // every block's mean, for ref.us and ref.spread
}

func newCalClock(ref *refOp, blockN int) (*calClock, error) {
	c := &calClock{ref: ref, blockN: blockN}
	_, err := c.factor()
	return c, err
}

// factor runs a block and returns the scale for whatever was measured
// between the previous block and this one.
func (c *calClock) factor() (float64, error) {
	r, err := c.ref.block(c.blockN)
	if err != nil {
		return 0, err
	}
	c.blocks = append(c.blocks, r)
	between := r
	if c.prev > 0 {
		between = (c.prev + r) / 2
	}
	c.prev = r
	return refUS / between, nil
}

// setupStats is one set-up's time, raw and calibrated, in seconds.
type setupStats struct {
	cal, raw float64
	phase    map[string]float64 // calibrated
}

// segment charges raw to a phase, calibrated by the block it runs now.
func (s *setupStats) segment(clk *calClock, phase string, raw time.Duration) error {
	f, err := clk.factor()
	if err != nil {
		return err
	}
	s.raw += raw.Seconds()
	s.cal += raw.Seconds() * f
	s.phase[phase] += raw.Seconds() * f
	return nil
}

// run is one workload on one seed.
type run struct {
	w       *workload
	seed    int64
	scale   float64
	seconds int
	dir     string // scratch directory of this run
	ds      *dataset

	env *env
	m   *model
	gen *generator
	clk *calClock

	attempted, failed int
	planKind          string // plan line prefix of the first exact match

	// Bytes the engine wrote, summed over every database instance of the
	// kept set-up (counters restart when the database reopens).
	walBytes, pageWrites int64
}

func (r *run) dbDir() string { return filepath.Join(r.dir, "db") }

func (r *run) fail(err error) {
	if r.failed++; r.failed == 1 { // the first failure says what went wrong
		fmt.Fprintln(os.Stderr, "FAILED:", err)
	}
}

// exec sends one statement, timing Client.Exec alone, and then checks
// the response against the model. i is the statement's index in its
// stream, which selects the sampled box and kNN checks.
func (r *run) exec(st stmt, i int) time.Duration {
	t0 := time.Now()
	resp, err := r.env.c.Exec(st.sql)
	d := time.Since(t0)
	r.attempted++
	if err == nil {
		err = r.verify(st, resp, i)
	}
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", st.sql, err))
	}
	return d
}

// sampleEvery is the stride of the brute-force box and kNN checks.
const sampleEvery = 16

func (r *run) verify(st stmt, resp *server.Response, i int) error {
	switch st.kind {
	case kExact:
		kindOf, _, _ := strings.Cut(resp.Plan, " on ")
		if r.planKind == "" {
			r.planKind = kindOf
		}
		if r.w.indexScan && kindOf != "Index Scan" {
			return fmt.Errorf("plan is %q, want an Index Scan", resp.Plan)
		}
		return checkExact(r.m.live(r.w.table), st.key, resp.Rows)
	case kPrefix:
		return r.m.checkPrefix(st.key, resp.Rows)
	case kBox:
		if i%sampleEvery != 0 {
			return nil
		}
		return r.m.checkBox(st.x, st.y, r.ds.boxSide, resp.Rows)
	case kKNN:
		if i%sampleEvery != 0 {
			return nil
		}
		return r.m.checkKNN(st.x, st.y, knnK, resp.Rows)
	case kInsert:
		r.m.insertWord(st.key, st.id)
		return wantOK(resp, "INSERT 1")
	case kUpdate:
		r.m.updateWord(st.key, st.id)
		return wantOK(resp, "UPDATE 1")
	case kDelete:
		r.m.deleteWord(st.key)
		return wantOK(resp, "DELETE 1")
	case kBegin:
		return wantOK(resp, "BEGIN")
	case kCommit:
		return wantOK(resp, "COMMIT")
	case kAnalyze:
		return wantOK(resp, "ANALYZE words")
	case kCheckpoint:
		return wantOK(resp, "CHECKPOINT")
	default: // VACUUM reports how many versions it reclaimed
		return nil
	}
}

func wantOK(resp *server.Response, want string) error {
	if resp.OK != want {
		return fmt.Errorf("answered %q, want %q", resp.OK, want)
	}
	return nil
}

// mustExec runs a set-up statement, returning its duration; a failure
// counts as a failed statement.
func (r *run) mustExec(sql, want string) time.Duration {
	t0 := time.Now()
	resp, err := r.env.c.Exec(sql)
	d := time.Since(t0)
	r.attempted++
	if err == nil && want != "" {
		err = wantOK(resp, want)
	}
	if err != nil {
		r.fail(fmt.Errorf("%.60s: %w", sql, err))
	}
	return d
}

// setup builds the dataset in an empty directory over the TCP
// connection and leaves the database warmed and ready for the window:
// open → CREATE TABLE/INDEX → load → ANALYZE → CHECKPOINT → (reopen
// with a small pool) → warm-up. A reference block follows every ten
// load statements and every other step, and each piece is calibrated by
// its own block.
func (r *run) setup() (*setupStats, error) {
	s := &setupStats{phase: map[string]float64{}}
	if err := os.RemoveAll(r.dbDir()); err != nil {
		return nil, err
	}
	r.m = newModel(r.ds)
	r.gen = newGenerator(r.seed^0x5eed, r.m, r.w.table)
	r.walBytes, r.pageWrites = 0, 0

	t0 := time.Now()
	var err error
	r.env, err = openEnv(r.dbDir(), poolPages)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	for _, sql := range []string{
		"CREATE TABLE words (name VARCHAR, id INT)",
		"CREATE INDEX words_name ON words USING spgist (name spgist_trie)",
		"CREATE TABLE pts (p POINT, id INT)",
		"CREATE INDEX pts_p ON pts USING spgist (p spgist_kdtree)",
		"CREATE TABLE fresh (name VARCHAR, id INT)",
		// fresh's index exists before its rows and the table is never
		// ANALYZEd: the state in which the planner has no statistics.
		"CREATE INDEX fresh_name ON fresh USING spgist (name spgist_trie)",
	} {
		d += r.mustExec(sql, "")
	}
	if err := s.segment(r.clk, "ddl", d); err != nil {
		return nil, err
	}

	ds := r.ds
	if err := r.load(s, "load_words", "words", len(ds.words), func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "('%s', %d)", ds.words[i], i)
		r.m.insertWord(ds.words[i], int64(i))
	}); err != nil {
		return nil, err
	}
	r.m.nextID = int64(len(ds.words))
	if err := r.load(s, "load_pts", "pts", len(ds.pts), func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "('(%g,%g)', %d)", ds.pts[i].x, ds.pts[i].y, i)
		r.m.addLoaded(pointRowBytes)
	}); err != nil {
		return nil, err
	}
	if err := r.load(s, "load_fresh", "fresh", len(ds.fresh), func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "('%s', %d)", ds.fresh[i], i)
		r.m.fresh[ds.fresh[i]] = int64(i)
		r.m.addLoaded(wordBytes(ds.fresh[i]))
	}); err != nil {
		return nil, err
	}

	d = r.mustExec("ANALYZE words", "ANALYZE words") + r.mustExec("ANALYZE pts", "ANALYZE pts")
	if err := s.segment(r.clk, "analyze", d); err != nil {
		return nil, err
	}
	if err := s.segment(r.clk, "checkpoint", r.mustExec("CHECKPOINT", "CHECKPOINT")); err != nil {
		return nil, err
	}

	if r.w.coldPool > 0 {
		t0 := time.Now()
		if err := r.reopen(r.w.coldPool, false); err != nil {
			return nil, err
		}
		if err := s.segment(r.clk, "reopen", time.Since(t0)); err != nil {
			return nil, err
		}
	}

	// Warm-up: 0.2 nominal seconds of the workload's own statements.
	warm := roundTo(int(float64(r.w.rate)*0.2*r.scale), r.w.round)
	d = 0
	for i := 0; i < warm; i++ {
		d += r.exec(r.w.next(r.gen, i), i)
		if (i+1)%5000 == 0 || i+1 == warm {
			if err := s.segment(r.clk, "warmup", d); err != nil {
				return nil, err
			}
			d = 0
		}
	}
	return s, nil
}

// load inserts n rows into table in loadBatch-row statements, all in
// one transaction: a bulk load commits once, and the set-up time should
// not be a count of the sandbox's disk flushes.
func (r *run) load(s *setupStats, phase, table string, n int, row func(b *strings.Builder, i int)) error {
	var b strings.Builder
	d := r.mustExec("BEGIN", "BEGIN")
	stmts := 0
	for lo := 0; lo < n; lo += loadBatch {
		hi := min(lo+loadBatch, n)
		b.Reset()
		b.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			row(&b, i)
		}
		d += r.mustExec(b.String(), fmt.Sprintf("INSERT %d", hi-lo))
		if hi == n {
			d += r.mustExec("COMMIT", "COMMIT")
		}
		if stmts++; stmts%10 == 0 || hi == n {
			if err := s.segment(r.clk, phase, d); err != nil {
				return err
			}
			d = 0
		}
	}
	return nil
}

func roundTo(n, multiple int) int {
	return max(n/multiple, 1) * multiple
}

// retire adds the current database instance's write counters to the
// run's totals; call it before the instance closes or crashes.
func (r *run) retire() error {
	st, err := r.env.c.Stats()
	if err != nil {
		return err
	}
	r.walBytes += st["wal_appended_bytes_total"]
	r.pageWrites += st["disk_writes_total"]
	return nil
}

// reopen replaces the database instance: a clean Close, or a Crash that
// drops every unflushed frame, then Open (with recovery) with pool
// pages per file, serve, dial.
func (r *run) reopen(pool int, crash bool) error {
	if err := r.retire(); err != nil {
		return err
	}
	if crash {
		if err := r.env.stopServer(); err != nil {
			return err
		}
		if err := r.env.db.Crash(); err != nil {
			return err
		}
	} else if err := r.env.close(); err != nil {
		return err
	}
	var err error
	r.env, err = openEnv(r.dbDir(), pool)
	return err
}
