package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/sqlmini"
	"repro/internal/wal"
)

// The layer ladder is the benchmark's traced run. After the window
// (which runs with nothing recording), a fixed sample of the workload's
// primary kind is replayed in-process once per rung, timing only the
// call into that layer's exported function. A rung minus the rungs
// below it is the layer's self time. The spans are recorded from here,
// around the calls into each layer; spans inside the program are a
// later change.

// span is one timed call: which layer, for which replayed statement,
// caused by which layer above it.
type span struct {
	rung       int
	stmt       int
	start, end time.Duration // since the ladder began
}

// rung is one level of the ladder.
type rung struct {
	name   string // metric ladder.<name>_us
	parent string // the rung whose call contains this one in a real statement
	// n is how many samples to replay (0: the workload's ladderN).
	n int
	// begin and end bracket every chunk of samples, untimed: they open and
	// commit the transaction the insert rungs run in.
	begin, end func() error
	call       func(i int) error
}

const ladderChunks = 10 // reference blocks per rung

type ladderRun struct {
	r     *run
	t0    time.Time
	spans []span
	rungs []rung
}

// replay runs rung ri over its samples and returns the calibrated mean
// µs of one call.
func (l *ladderRun) replay(ri int) (float64, error) {
	g := l.rungs[ri]
	n := g.n
	chunk := max(n/ladderChunks, 1)
	total := 0.0
	for lo := 0; lo < n; lo += chunk {
		if g.begin != nil {
			if err := g.begin(); err != nil {
				return 0, fmt.Errorf("ladder %s: %w", g.name, err)
			}
		}
		raw := time.Duration(0)
		for i := lo; i < min(lo+chunk, n); i++ {
			start := time.Since(l.t0)
			err := g.call(i)
			end := time.Since(l.t0)
			l.r.attempted++
			if err != nil {
				l.r.fail(fmt.Errorf("ladder %s, sample %d: %w", g.name, i, err))
			}
			l.spans = append(l.spans, span{ri, i, start, end})
			raw += end - start
		}
		if g.end != nil {
			if err := g.end(); err != nil {
				return 0, fmt.Errorf("ladder %s: %w", g.name, err)
			}
		}
		f, err := l.r.clk.factor()
		if err != nil {
			return 0, err
		}
		total += float64(raw.Nanoseconds()) / 1e3 * f
	}
	return total / float64(n), nil
}

// ladder replays the primary kind at every rung, fills the ladder.*,
// self.* and trace.* metrics, and writes the spans to tracePath.
func (r *run) ladder(v values, ws *windowStats, tracePath string) error {
	n := max(int(float64(r.w.ladderN)*r.scale), 2*ladderChunks)
	l := &ladderRun{r: r, t0: time.Now()}
	build := r.readRungs
	if r.w.primary == kInsert {
		build = r.insertRungs
	}
	var cleanup func()
	var err error
	if l.rungs, cleanup, err = build(n); err != nil {
		return err
	}
	defer cleanup()
	for ri := range l.rungs {
		if l.rungs[ri].n == 0 {
			l.rungs[ri].n = n
		}
		us, err := l.replay(ri)
		if err != nil {
			return err
		}
		v["ladder."+l.rungs[ri].name+"_us"] = us
	}

	lad := func(name string) float64 { return v["ladder."+name+"_us"] }
	v["self.server_us"] = lad("client_exec") - lad("session_exec")
	if r.w.primary == kInsert {
		v["self.sqlmini_us"] = lad("session_exec") - lad("table_insert")
		v["self.executor_us"] = lad("table_insert")
		v["self.wal_us"] = lad("wal_group_commit")
	} else {
		v["self.sqlmini_us"] = lad("session_exec") - lad("table_select")
		v["self.planner_us"] = lad("plan_select")
		v["self.executor_us"] = lad("table_select") - lad("plan_select") - lad("index_scan") - lad("heap_get")
		v["self.index_us"] = lad("index_scan")
		v["self.heap_us"] = lad("heap_get") - lad("pool_fetch")
		v["self.storage_us"] = lad("pool_fetch")
	}
	v["trace.overhead_pct"] = 100 * (lad("client_exec") - ws.primaryMean) / ws.primaryMean
	return l.writeTrace(tracePath)
}

// readRungs builds the ladder of a read workload over n sampled
// statements of its primary kind (exact match or kNN).
func (r *run) readRungs(n int) ([]rung, func(), error) {
	gen := newGenerator(r.seed^0x1adde4, r.m, r.w.table)
	samples := make([]stmt, n)
	for i := range samples {
		if r.w.primary == kKNN {
			samples[i] = gen.knn()
		} else {
			samples[i] = gen.exact()
		}
	}
	table := r.w.table
	if r.w.primary == kKNN {
		table = "pts"
	}
	t, err := r.env.db.Table(table)
	if err != nil {
		return nil, nil, err
	}
	if len(t.Indexes) != 1 {
		return nil, nil, fmt.Errorf("table %s has %d indexes, want 1", table, len(t.Indexes))
	}
	ix := t.Indexes[0]
	pool := t.Heap.Pool()
	sess := sqlmini.NewSession(r.env.db)
	rids := make([][]heap.RID, n) // what the index scan rung found, for the rungs below

	pred := func(i int) *executor.Pred {
		return &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText(samples[i].key)}
	}
	query := func(i int) catalog.Datum {
		return catalog.NewPoint(geom.Point{X: samples[i].x, Y: samples[i].y})
	}
	discard := func(executor.Row) bool { return true }

	rungs := []rung{
		{name: "client_exec", call: func(i int) error {
			_, err := r.env.c.Exec(samples[i].sql)
			return err
		}},
		{name: "session_exec", parent: "client_exec", call: func(i int) error {
			_, err := sess.Exec(samples[i].sql)
			return err
		}},
	}
	if r.w.primary == kKNN {
		rungs = append(rungs,
			rung{name: "table_select", parent: "session_exec", call: func(i int) error {
				_, _, err := t.SelectNN("p", query(i), knnK)
				return err
			}},
			rung{name: "plan_select", parent: "table_select", call: func(i int) error {
				_, err := t.PlanNN(0, query(i), knnK)
				return err
			}},
			rung{name: "index_scan", parent: "table_select", call: func(i int) error {
				next, err := ix.Idx.NNScan(query(i))
				if err != nil {
					return err
				}
				for len(rids[i]) < knnK {
					rid, _, ok := next()
					if !ok {
						break
					}
					rids[i] = append(rids[i], rid)
				}
				return nil
			}})
	} else {
		rungs = append(rungs,
			rung{name: "table_select", parent: "session_exec", call: func(i int) error {
				_, err := t.Select(pred(i), discard)
				return err
			}},
			rung{name: "plan_select", parent: "table_select", call: func(i int) error {
				_, err := t.PlanSelect(pred(i))
				return err
			}},
			rung{name: "select_indexed", parent: "table_select", call: func(i int) error {
				return t.SelectIndexed(ix, pred(i), discard)
			}},
			rung{name: "index_scan", parent: "select_indexed", call: func(i int) error {
				p := pred(i)
				return ix.Idx.Scan(p.Op, p.Arg, func(rid heap.RID) bool {
					rids[i] = append(rids[i], rid)
					return true
				})
			}})
	}
	scanParent := rungs[len(rungs)-1].parent
	rungs = append(rungs,
		rung{name: "heap_get", parent: scanParent, call: func(i int) error {
			for _, rid := range rids[i] {
				if _, err := t.Get(rid); err != nil {
					return err
				}
			}
			return nil
		}},
		rung{name: "pool_fetch", parent: "heap_get", call: func(i int) error {
			for _, rid := range rids[i] {
				p, err := pool.Fetch(rid.Page)
				if err != nil {
					return err
				}
				pool.Unpin(p, false)
			}
			return nil
		}})
	return rungs, sess.Close, nil
}

// insertRungs builds write_mix's ladder: n single-row inserts per rung,
// every chunk inside one transaction as in the window, and a commit
// group of the same size on a scratch log.
func (r *run) insertRungs(n int) ([]rung, func(), error) {
	t, err := r.env.db.Table("words")
	if err != nil {
		return nil, nil, err
	}
	sess := sqlmini.NewSession(r.env.db)
	scratch, err := wal.OpenWriter(filepath.Join(r.dir, "scratch-wal"), wal.Options{Mode: wal.SyncCommit})
	if err != nil {
		sess.Close()
		return nil, nil, err
	}
	cleanup := func() {
		sess.Close()
		scratch.Close()
	}
	next := func() stmt {
		st := r.gen.write(kInsert)
		r.m.insertWord(st.key, st.id)
		return st
	}
	var tx *executor.Txn
	rec := heap.EncodeTuple(heap.TupleHeader{}, catalog.EncodeTuple(catalog.Tuple{catalog.NewText("01234567"), catalog.NewInt(1234567)}))
	return []rung{
		{name: "client_exec",
			begin: func() error { _, err := r.env.c.Exec("BEGIN"); return err },
			end:   func() error { _, err := r.env.c.Exec("COMMIT"); return err },
			call:  func(int) error { _, err := r.env.c.Exec(next().sql); return err }},
		{name: "session_exec", parent: "client_exec",
			begin: func() error { _, err := sess.Exec("BEGIN"); return err },
			end:   func() error { _, err := sess.Exec("COMMIT"); return err },
			call:  func(int) error { _, err := sess.Exec(next().sql); return err }},
		{name: "table_insert", parent: "session_exec",
			begin: func() (err error) { tx, err = r.env.db.Begin(); return err },
			end:   func() error { return tx.Commit() },
			call: func(int) error {
				st := next()
				_, err := t.InsertTx(tx, catalog.Tuple{catalog.NewText(st.key), catalog.NewInt(st.id)})
				return err
			}},
		// One commit group per call: each pays the sandbox's device flush,
		// so a tenth of the samples is enough.
		{name: "wal_group_commit", parent: "table_insert", n: max(n/10, ladderChunks), call: func(i int) error {
			g := wal.NewGroup()
			g.AddHeapInsert("scratch.tbl", 1, uint16(i), rec)
			_, _, err := scratch.AppendGroupCommit(g)
			return err
		}},
	}, cleanup, nil
}

// writeTrace writes every span as a Chrome trace event: one row (tid)
// per rung, the statement id and the parent layer in args.
func (l *ladderRun) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	fmt.Fprintf(out, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range l.spans {
		if i > 0 {
			out.WriteByte(',')
		}
		g := l.rungs[s.rung]
		fmt.Fprintf(out, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"stmt":%d,"parent":%q}}`,
			g.name, l.r.w.name, s.rung, float64(s.start.Nanoseconds())/1e3, float64((s.end-s.start).Nanoseconds())/1e3, s.stmt, g.parent)
	}
	fmt.Fprintf(out, "\n]}\n")
	if err := out.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
