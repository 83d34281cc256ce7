package executor

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The index-vs-seqscan oracle, static-data slice: every access method
// must return exactly the rows a sequential scan returns, for every
// operator its class supports, and kNN must come back in brute-force
// distance order — through a 16-page pool per file, so descents miss
// and evict. Concurrent DML,
// VACUUM and crash interleavings are ROADMAP's oracle item, not this
// test's.

const oraclePreds = 200 // seeded random predicates per (class, operator)

// oracleWorld is the paper's experiment space — and the PMR quadtree's
// root cell, which every indexed segment must intersect.
var oracleWorld = geom.MakeBox(0, 0, 100, 100)

// oracleBuild builds three static tables in dir — words, pts, segs —
// with one index per operator class.
func oracleBuild(t *testing.T, dir string) {
	t.Helper()
	db, err := Open(Options{Dir: dir, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	load := func(table string, typ catalog.Type, n int, datum func(i int) catalog.Datum, indexes [][3]string) {
		tb, err := db.CreateTable(table, []Column{{"k", typ}, {"id", catalog.Int}})
		if err != nil {
			t.Fatal(err)
		}
		tups := make([]catalog.Tuple, n)
		for i := range tups {
			tups[i] = catalog.Tuple{datum(i), catalog.NewInt(int64(i))}
		}
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatal(err)
		}
		for _, ix := range indexes {
			if _, err := db.CreateIndex(ix[0], table, "k", ix[1], ix[2]); err != nil {
				t.Fatalf("CREATE INDEX %s: %v", ix[0], err)
			}
		}
	}
	words := datagen.Words(6000, 21)
	load("words", catalog.Text, len(words), func(i int) catalog.Datum { return catalog.NewText(words[i]) },
		[][3]string{{"w_trie", "spgist", "spgist_trie"}, {"w_suffix", "spgist", "spgist_suffix"}, {"w_btree", "btree", ""}})
	pts := datagen.Points(6000, 22, oracleWorld)
	load("pts", catalog.Point, len(pts), func(i int) catalog.Datum { return catalog.NewPoint(pts[i]) },
		[][3]string{{"p_kd", "spgist", "spgist_kdtree"}, {"p_quad", "spgist", "spgist_pquadtree"}, {"p_rtree", "rtree", ""}})
	segs := datagen.Segments(2500, 23, oracleWorld, 8)
	load("segs", catalog.Segment, len(segs), func(i int) catalog.Datum { return catalog.NewSegment(segs[i]) },
		[][3]string{{"s_pmr", "spgist", "spgist_pmr"}, {"s_rtree", "rtree", ""}})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// oracleRows is one unqualified Seq Scan of the table: every row's RID
// (in heap order, which is RID order) and indexed key. Filtering it
// with the operator's procedure is what a Seq Scan with the predicate
// does, without decoding the heap again for each of the thousands of
// predicates.
func oracleRows(t *testing.T, tb *Table) (rids []heap.RID, keys []catalog.Datum) {
	t.Helper()
	plan, err := tb.Select(nil, func(r Row) bool {
		rids = append(rids, r.RID)
		keys = append(keys, r.Tuple[0])
		return true
	})
	if err != nil || plan.Kind != SeqScan {
		t.Fatalf("unqualified select: plan %v, err %v", plan, err)
	}
	return rids, keys
}

// oracleArg draws one right-hand operand for op over a column of typ:
// mostly derived from a stored key so that it matches something, one in
// five unrelated to the data.
func oracleArg(r *rand.Rand, typ catalog.Type, op string, keys []catalog.Datum) catalog.Datum {
	key := keys[r.Intn(len(keys))]
	miss := r.Intn(5) == 0
	box := func() catalog.Datum {
		side := []float64{1, 5, 30}[r.Intn(3)]
		x, y := r.Float64()*(100-side), r.Float64()*(100-side)
		return catalog.NewBox(geom.MakeBox(x, y, x+side, y+side))
	}
	switch {
	case typ == catalog.Text:
		w := []byte(key.S)
		if miss {
			w = []byte(datagen.Words(1, r.Int63())[0])
		}
		switch op {
		case "#=":
			w = w[:1+r.Intn(len(w))]
		case "@=":
			a := r.Intn(len(w))
			w = w[a : a+1+r.Intn(len(w)-a)]
		case "?=":
			for i := range w {
				if r.Intn(3) == 0 {
					w[i] = '?'
				}
			}
		// Ranges take a twentieth of the table, not half (each row is a
		// heap miss): a stored word at that end as it is — the bound the
		// strict and non-strict operators differ on — any other moved there.
		case "<", "<=":
			if w[0] != 'a' {
				w = append([]byte("a"), w...)
			}
		case ">", ">=":
			if w[0] < 'y' {
				w = append([]byte("y"), w...)
			}
		case "<->": // a stored word with a few letters changed
			for i := range w {
				if r.Intn(4) == 0 {
					w[i] = byte('a' + r.Intn(26))
				}
			}
		}
		return catalog.NewText(string(w))
	case op == "^" || op == "&&":
		return box()
	case op == "<->" || (typ == catalog.Point && miss):
		return catalog.NewPoint(geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100})
	case typ == catalog.Segment && miss:
		return catalog.NewSegment(datagen.Segments(1, r.Int63(), oracleWorld, 8)[0])
	}
	return key // "=" / "@" on a stored point or segment
}

// oracleIndexScan forces pred through ix and returns the RIDs it emits,
// sorted.
func oracleIndexScan(t *testing.T, tb *Table, ix *IndexInfo, pred *Pred) []heap.RID {
	t.Helper()
	var rids []heap.RID
	if err := tb.SelectIndexed(ix, pred, func(r Row) bool { rids = append(rids, r.RID); return true }); err != nil {
		t.Fatalf("%s %s %s: %v", ix.OpClass.Name, pred.Op, pred.Arg, err)
	}
	slices.SortFunc(rids, func(a, b heap.RID) int {
		return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
	})
	return rids
}

func TestIndexMatchesSeqScanOracle(t *testing.T) {
	dir := t.TempDir()
	oracleBuild(t, dir)
	// Every page read is a demand read: the run keeps the name and the
	// seed it had when readahead was a knob and -1 turned it off.
	t.Run("readahead=-1", func(t *testing.T) {
		db, err := Open(Options{Dir: dir, PoolPages: 16, WALSync: wal.SyncLazy})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		r := rand.New(rand.NewSource(99))
		matched := map[string]int{}
		for _, tb := range db.Tables() {
			oracleCheckTable(t, r, tb, oraclePreds, matched)
		}
		oracleAllMatched(t, matched)
		if st := db.PoolStats(); st.Misses == 0 {
			t.Errorf("pool was not exercised as meant: %+v", st)
		}
	})
}

// oracleCheckTable holds every index of tb to one sequential scan of it:
// preds seeded predicates per supported operator (forced-index RIDs ==
// filtered seq-scan RIDs) and preds kNN probes per NN-capable index.
// matched accumulates, per "table type operator", how many rows the
// predicates selected, for oracleAllMatched.
func oracleCheckTable(t *testing.T, r *rand.Rand, tb *Table, preds int, matched map[string]int) {
	t.Helper()
	typ := tb.Columns[0].Type
	rids, keys := oracleRows(t, tb)
	// One sequential scan per predicate answers for every
	// index of the table whose class supports the operator.
	byOp := map[string][]*IndexInfo{}
	for _, ix := range tb.Indexes {
		for op := range ix.OpClass.Strategies {
			if op != ix.OpClass.NNOp {
				byOp[op] = append(byOp[op], ix)
			}
		}
	}
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		proc := mustOperator(t, op, typ).Proc
		label := fmt.Sprintf("%s %s %s", tb.Name, typ, op)
		matched[label] += 0
		for i := 0; i < preds; i++ {
			pred := &Pred{Column: 0, Op: op, Arg: oracleArg(r, typ, op, keys)}
			var want []heap.RID
			for j, key := range keys {
				if proc(key, pred.Arg) {
					want = append(want, rids[j])
				}
			}
			matched[label] += len(want)
			for _, ix := range byOp[op] {
				if got := oracleIndexScan(t, tb, ix, pred); !slices.Equal(got, want) {
					t.Fatalf("%s: k %s %s: index returns %d rows %v, seq scan %d rows %v",
						ix.OpClass.Name, op, pred.Arg, len(got), got, len(want), want)
				}
			}
		}
	}
	for _, ix := range tb.Indexes {
		if ix.OpClass.NNOp != "" {
			oracleNN(t, r, tb, ix, keys, preds)
		}
	}
}

// oracleAllMatched fails when some operator's predicates never selected
// a row: a generator that matches nothing tests nothing.
func oracleAllMatched(t *testing.T, matched map[string]int) {
	t.Helper()
	for label, n := range matched {
		if n == 0 {
			t.Errorf("%s: no predicate matched a row; the generator tests nothing", label)
		}
	}
}

func mustOperator(t *testing.T, op string, typ catalog.Type) *catalog.Operator {
	t.Helper()
	o, ok := catalog.LookupOperator(op, typ)
	if !ok {
		t.Fatalf("no operator %s over %v", op, typ)
	}
	return o
}

// oracleNN checks incremental NN through ix against a brute-force sort:
// the k distances agree in order, and each returned row really lies at
// the distance reported for it. (Rows at equal distance may come back in
// any order, so rows are not compared by identity.)
func oracleNN(t *testing.T, r *rand.Rand, tb *Table, ix *IndexInfo, keys []catalog.Datum, probes int) {
	t.Helper()
	saved := tb.Indexes
	tb.Indexes = []*IndexInfo{ix} // planNN takes the first NN-capable index
	defer func() { tb.Indexes = saved }()
	all := make([]float64, len(keys))
	for i := 0; i < probes; i++ {
		arg := oracleArg(r, tb.Columns[0].Type, "<->", keys)
		k := min(1+r.Intn(20), len(keys))
		res, plan, err := tb.SelectNN(tb.Columns[0].Name, arg, k)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != IndexNNScan || plan.Index != ix || len(res) != k {
			t.Fatalf("%s kNN: plan %s returned %d rows, want %d through the index", ix.OpClass.Name, plan, len(res), k)
		}
		for j, key := range keys {
			if all[j], err = Distance(key, arg); err != nil {
				t.Fatal(err)
			}
		}
		sort.Float64s(all)
		for j, nn := range res {
			own, _ := Distance(nn.Tuple[0], arg)
			if math.Abs(nn.Distance-all[j]) > 1e-9 || math.Abs(own-nn.Distance) > 1e-9 {
				t.Fatalf("%s kNN <-> %s: #%d is %s at reported distance %g (really %g), brute force has %g",
					ix.OpClass.Name, arg, j, nn.Tuple[0], nn.Distance, own, all[j])
			}
		}
	}
}

// The crash-interleaved slice of the oracle: the same comparison, but
// over tables that a seeded stream of DML, maintenance and rolled-back
// transactions keeps changing, with the database crashed and recovered
// at seeded points — between statements and between the chunks of one.
// After every recovery the heap must hold exactly the rows of the
// statements that returned success, and every index must agree with it.
//
// It runs twice. With the default pool nothing is evicted, and a
// statement chunks only once its pages may fill 512 frames (chunkLen). With
// 16 frames for each of its eleven files the files outgrow the pool, so
// index pages are evicted, reloaded and re-imaged between crashes, and a
// chunk may dirty 88 pages: there the tables are loaded through the
// default pool first, statements stay a few rows long, dead versions are
// vacuumed while they are few, and the suffix tree (one word is up to
// fifteen suffixes, each in a leaf of its own) sits the run out. The
// statement crashed between its chunks is a DELETE of every row where the
// rule splits one, which the cramped pool does once a heap outgrows half
// of it, and otherwise an INSERT one row longer than its first chunk
// (oracleChunked).

// oracleCrashTables are the crash oracle's three tables: between them
// one index of every access method, created before the first row so
// every statement maintains them.
var oracleCrashTables = []struct {
	name    string
	typ     catalog.Type
	cramped int // rows of the largest statement under the 16-page pool
	indexes [][3]string
	datum   func(r *rand.Rand) catalog.Datum
}{
	{"words", catalog.Text, 4,
		[][3]string{{"w_trie", "spgist", "spgist_trie"}, {"w_btree", "btree", ""}, {"w_suffix", "spgist", "spgist_suffix"}},
		func(r *rand.Rand) catalog.Datum { return catalog.NewText(datagen.Words(1, r.Int63())[0]) }},
	{"pts", catalog.Point, 4,
		[][3]string{{"p_kd", "spgist", "spgist_kdtree"}, {"p_quad", "spgist", "spgist_pquadtree"}, {"p_rtree", "rtree", ""}},
		func(r *rand.Rand) catalog.Datum {
			return catalog.NewPoint(geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100})
		}},
	{"segs", catalog.Segment, 2,
		[][3]string{{"s_pmr", "spgist", "spgist_pmr"}, {"s_rtree", "rtree", ""}},
		func(r *rand.Rand) catalog.Datum {
			return catalog.NewSegment(datagen.Segments(1, r.Int63(), oracleWorld, 8)[0])
		}},
}

const (
	oracleCrashOps   = 160 // statements per run after the load
	oracleCrashPreds = 6   // predicates per (class, operator) and kNN probes per index, per recovery
	// oracleCrampedFiles are the files of the cramped run: the catalog,
	// three heaps and seven indexes (no suffix tree). A pool of p pages a
	// file is p × oracleCrampedFiles frames.
	oracleCrampedFiles = 11
)

// oracleCrashCreate creates table ti of oracleCrashTables, empty, with
// its indexes — the suffix tree only where the pool can hold a word's
// worth of its pages.
func oracleCrashCreate(t *testing.T, db *DB, ti int, suffix bool) *Table {
	t.Helper()
	ot := oracleCrashTables[ti]
	tb, err := db.CreateTable(ot.name, []Column{{"k", ot.typ}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	oracleCrashIndexes(t, db, ti, suffix)
	return tb
}

// oracleCrashIndexes creates the indexes of table ti of oracleCrashTables,
// as oracleCrashCreate does.
func oracleCrashIndexes(t *testing.T, db *DB, ti int, suffix bool) {
	t.Helper()
	ot := oracleCrashTables[ti]
	for _, ix := range ot.indexes {
		if ix[2] == "spgist_suffix" && !suffix {
			continue
		}
		if _, err := db.CreateIndex(ix[0], ot.name, "k", ix[1], ix[2]); err != nil {
			t.Fatalf("CREATE INDEX %s: %v", ix[0], err)
		}
	}
}

// oracleChunkedMax bounds the rows oracleChunked draws.
const oracleChunkedMax = 3000

// oracleChunked draws rows for table ti of oracleCrashTables, one more than
// the first chunk of them takes (rowChunk), so that an INSERT of them
// splits; their ids are left to the caller. The words table's keys are
// 200-byte words, whose suffixes fill the default pool's 512-frame chunk
// in some 170 rows. It returns nil when the chunk takes all
// oracleChunkedMax rows, as the default pool's does of points or
// segments, whose small keys would need tens of thousands.
func oracleChunked(tb *Table, ti int, r *rand.Rand) []catalog.Tuple {
	wide := datagen.WordConfig{MinLen: 200, MaxLen: 200, Alphabet: datagen.DefaultWords.Alphabet}
	tups := make([]catalog.Tuple, oracleChunkedMax)
	for i := range tups {
		k := oracleCrashTables[ti].datum(r)
		if k.Typ == catalog.Text {
			k = catalog.NewText(datagen.WordsCfg(1, r.Int63(), wide)[0])
		}
		tups[i] = catalog.Tuple{k, catalog.NewInt(0)}
	}
	n := tb.rowChunk(0, &dmlShape{rows: len(tups), churn: 1, size: storing(tups)})
	if n == len(tups) {
		return nil
	}
	return tups[:n+1]
}

func TestOracleCrashInterleaved(t *testing.T) {
	for _, poolPages := range []int{0, 16} {
		t.Run(fmt.Sprintf("pool=%d", poolPages), func(t *testing.T) {
			oracleCrashRun(t, poolPages, int64(7+poolPages))
		})
	}
}

func oracleCrashRun(t *testing.T, poolPages int, seed int64) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(seed))
	cramped := poolPages > 0
	errBoom := fmt.Errorf("injected crash between chunks")
	armed := false
	open := func(poolPages int) *DB {
		db, err := Open(Options{Dir: dir, WAL: true, PoolPages: poolPages * oracleCrampedFiles, Faults: FaultInjection{
			BetweenDMLChunks: func(string, int) error {
				if armed {
					return errBoom
				}
				return nil
			}}})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	// model[table][id] is the key of the live row id, as the statements
	// that returned success leave it.
	model := map[string]map[int64]string{}
	nextID := int64(0)
	fresh := func(ti, n int) []catalog.Tuple {
		tups := make([]catalog.Tuple, n)
		for i := range tups {
			tups[i] = catalog.Tuple{oracleCrashTables[ti].datum(r), catalog.NewInt(nextID)}
			nextID++
		}
		return tups
	}
	learn := func(table string, tups []catalog.Tuple) {
		for _, tup := range tups {
			model[table][tup[1].I] = tup[0].String()
		}
	}

	// The load, always through the default pool.
	db := open(0)
	rows := 300
	if cramped {
		rows = 3000 // the files several times their pool
	}
	for ti, ot := range oracleCrashTables {
		tb := oracleCrashCreate(t, db, ti, !cramped)
		model[ot.name] = map[int64]string{}
		tups := fresh(ti, rows)
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatal(err)
		}
		learn(ot.name, tups)
	}
	if cramped {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = open(poolPages)
	}

	matched := map[string]int{}
	recoveries, chunkCrashes, evictions := 0, 0, int64(0)
	// recoverAndCheck crashes the database, reopens it and holds heap and
	// indexes to the model and to each other.
	recoverAndCheck := func(after string) {
		t.Helper()
		evictions += db.PoolStats().Evictions
		if err := db.Crash(); err != nil {
			t.Fatal(err)
		}
		db = open(poolPages)
		recoveries++
		for _, tb := range db.Tables() {
			got := map[int64]string{}
			if _, err := tb.Select(nil, func(row Row) bool { got[row.Tuple[1].I] = row.Tuple[0].String(); return true }); err != nil {
				t.Fatal(err)
			}
			want := model[tb.Name]
			if len(got) != len(want) {
				t.Fatalf("recovery %d (after %s): %s holds %d rows, the statements that succeeded left %d", recoveries, after, tb.Name, len(got), len(want))
			}
			for id, k := range want {
				if got[id] != k {
					t.Fatalf("recovery %d (after %s): %s row %d is %q, want %q", recoveries, after, tb.Name, id, got[id], k)
				}
			}
			oracleCheckTable(t, r, tb, oracleCrashPreds, matched)
		}
	}
	idPred := func(op string, id int64) *Pred { return &Pred{Column: 1, Op: op, Arg: catalog.NewInt(id)} }
	for op := 0; op < oracleCrashOps; op++ {
		ti := r.Intn(len(oracleCrashTables))
		name := oracleCrashTables[ti].name
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		id := r.Int63n(nextID)
		maxRows := 150
		if cramped {
			maxRows = oracleCrashTables[ti].cramped
		}
		leftDead := false // the statement left versions for VACUUM
		switch k := r.Intn(40); {
		case k < 9: // single-row INSERT
			tups := fresh(ti, 1)
			if _, err := tb.Insert(tups[0]); err != nil {
				t.Fatalf("op %d INSERT %s: %v", op, name, err)
			}
			learn(name, tups)
		case k < 15: // multi-row INSERT
			tups := fresh(ti, 1+r.Intn(maxRows))
			if _, err := tb.InsertBatch(tups); err != nil {
				t.Fatalf("op %d INSERT %s ×%d: %v", op, name, len(tups), err)
			}
			learn(name, tups)
		case k < 22: // UPDATE of the indexed key by id
			nk := oracleCrashTables[ti].datum(r)
			n, err := tb.UpdateWhere(idPred("=", id), []ColUpdate{{Column: 0, Value: nk}})
			_, live := model[name][id]
			if err != nil || (n == 1) != live {
				t.Fatalf("op %d UPDATE %s id=%d: %d rows, err %v, live in model %v", op, name, id, n, err, live)
			}
			if live {
				model[name][id] = nk.String()
			}
			leftDead = live
		case k < 27: // single-row DELETE
			n, err := tb.DeleteWhere(idPred("=", id))
			_, live := model[name][id]
			if err != nil || (n == 1) != live {
				t.Fatalf("op %d DELETE %s id=%d: %d rows, err %v, live in model %v", op, name, id, n, err, live)
			}
			delete(model[name], id)
			leftDead = live
		case k < 29 && !cramped: // multi-row DELETE of the oldest rows
			cut, want := id/8, 0
			for have := range model[name] {
				if have < cut {
					delete(model[name], have)
					want++
				}
			}
			if n, err := tb.DeleteWhere(idPred("<", cut)); err != nil || n != want {
				t.Fatalf("op %d DELETE %s id<%d: %d rows, err %v, model has %d", op, name, cut, n, err, want)
			}
		case k < 31:
			if _, err := db.Vacuum(name); err != nil {
				t.Fatalf("op %d VACUUM %s: %v", op, name, err)
			}
		case k < 33:
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("op %d CHECKPOINT: %v", op, err)
			}
		case k < 36: // BEGIN … ROLLBACK: nothing of it may survive
			tx, err := db.Begin()
			if err == nil {
				_, err = tb.InsertBatchTx(tx, fresh(ti, 1+r.Intn(min(40, maxRows))))
			}
			if err == nil {
				_, _, err = tb.DeleteWhereTx(tx, idPred("=", id))
			}
			if err == nil {
				_, _, err = tb.UpdateWhereTx(tx, idPred("=", r.Int63n(nextID)), []ColUpdate{{Column: 0, Value: oracleCrashTables[ti].datum(r)}})
			}
			if err == nil {
				err = tx.Rollback()
			}
			if err != nil {
				t.Fatalf("op %d BEGIN … ROLLBACK on %s: %v", op, name, err)
			}
			leftDead = true
		case k < 38: // crash between statements
			recoverAndCheck("a completed statement")
		default: // crash between the chunks of one statement
			// A DELETE of every row where the rule splits it (the cramped
			// pool, once the heap outgrows half of it), else an INSERT
			// the rule splits (oracleChunked).
			armed = true
			if live := len(model[name]); tb.rowChunk(0, &dmlShape{rows: live, churn: 1}) < live {
				if _, err = tb.DeleteWhere(nil); err == nil {
					clear(model[name])
					leftDead = true
				}
			} else if tups := oracleChunked(tb, ti, r); tups != nil {
				for _, tup := range tups {
					tup[1] = catalog.NewInt(nextID)
					nextID++
				}
				if _, err = tb.InsertBatch(tups); err == nil {
					learn(name, tups)
				}
			}
			armed = false
			switch {
			case err == nil:
			case isFault(err):
				chunkCrashes++
				recoverAndCheck("a chunk of a statement")
			default:
				t.Fatalf("op %d chunked statement on %s: %v", op, name, err)
			}
		}
		if cramped && leftDead {
			if _, err := db.Vacuum(name); err != nil {
				t.Fatalf("op %d VACUUM %s: %v", op, name, err)
			}
		}
	}
	recoverAndCheck("the last statement")
	oracleAllMatched(t, matched)
	t.Logf("%d recoveries, %d of them between chunks, %d evictions", recoveries, chunkCrashes, evictions)
	if chunkCrashes == 0 {
		t.Error("no statement was crashed between its chunks; the stream tests less than it says")
	}
	if cramped && evictions == 0 {
		t.Errorf("the %d-page pool never evicted", poolPages)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornIndexPageRecovery is TestTornPageRecovery's index twin: a write
// of one dirty data page of every index — SP-GiST, B+-tree and R-tree
// alike — lands its first 512 bytes and the power goes.
// Every torn page fails its checksum at redo and is rebuilt from the log:
// before the first checkpoint from the file's creation on (the log holds
// no image of a node page), after one from the image its first touch
// since then shipped. An index built over a loaded table wrote its pages
// outside the log; a torn one is rebuilt from the image its first touch
// shipped, before the first checkpoint too. After recovery every index
// must agree with the heap, and the heap with the statements that
// succeeded.
func TestTornIndexPageRecovery(t *testing.T) {
	for _, c := range []struct {
		name                string
		checkpointed, built bool
	}{
		{"before the first checkpoint", false, false},
		{"after a checkpoint", true, false},
		{"built over its rows, before the first checkpoint", false, true},
	} {
		t.Run(c.name, func(t *testing.T) { tornIndexPageRecovery(t, c.checkpointed, c.built) })
	}
}

func tornIndexPageRecovery(t *testing.T, checkpointed, built bool) {
	dir := t.TempDir()
	faults := map[string]*storage.FaultDiskManager{}
	db, err := Open(Options{Dir: dir, WAL: true, PoolPages: 16 * oracleCrampedFiles,
		DiskFaults: func(file string, dm storage.DiskManager) storage.DiskManager {
			if !strings.HasSuffix(file, ".idx") {
				return dm
			}
			faults[file] = storage.WithFaults(dm, 1)
			return faults[file]
		}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	want := map[string]int{}
	insert := func(tb *Table, datum func(*rand.Rand) catalog.Datum, from, to, perStatement int) {
		t.Helper()
		for i := from; i < to; i += perStatement {
			tups := make([]catalog.Tuple, perStatement)
			for j := range tups {
				tups[j] = catalog.Tuple{datum(r), catalog.NewInt(int64(i + j))}
			}
			if _, err := tb.InsertBatch(tups); err != nil {
				t.Fatal(err)
			}
		}
		want[tb.Name] = to
	}
	// A load and — in one of the two runs — a checkpoint, so that the log
	// no longer reaches back to the files' creation, then single-row
	// statements: first touches of pages the checkpoint left clean, and
	// later touches of the same pages.
	var tables []*Table
	builtPages := map[string]storage.PageID{}
	for ti, ot := range oracleCrashTables {
		if !built {
			tb := oracleCrashCreate(t, db, ti, false) // 16 frames a file again: no suffix tree
			insert(tb, ot.datum, 0, 400, ot.cramped)
			tables = append(tables, tb)
			continue
		}
		tb, err := db.CreateTable(ot.name, []Column{{"k", ot.typ}, {"id", catalog.Int}})
		if err != nil {
			t.Fatal(err)
		}
		insert(tb, ot.datum, 0, 400, ot.cramped)
		oracleCrashIndexes(t, db, ti, false)
		for _, ix := range tb.Indexes {
			builtPages[ix.file] = storage.PageID(ix.pool.DM().NumPages())
		}
		tables = append(tables, tb)
	}
	if checkpointed {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for ti, tb := range tables {
		insert(tb, oracleCrashTables[ti].datum, 400, 600, 1)
	}
	indexFiles := map[string]bool{}
	for _, tb := range tables {
		for _, ix := range tb.Indexes {
			indexFiles[ix.file] = true
			if id := tearDirtyPage(t, ix.pool, faults[ix.file]); built && id >= builtPages[ix.file] {
				t.Fatalf("%s: the torn page %d is not one of the %d its build wrote", ix.file, id, builtPages[ix.file])
			}
		}
	}
	if got := db.WAL().CheckpointLSN() != 0; got != checkpointed {
		t.Fatalf("the log was checkpointed: %v, want %v", got, checkpointed)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	nodePageImages := map[string]int{}
	if _, err := wal.Replay(filepath.Join(dir, "wal"), func(r *wal.Record) error {
		if r.Type == wal.RecPageImage && r.Page != 0 {
			nodePageImages[r.File]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for file := range indexFiles {
		if n := nodePageImages[file]; (n != 0) != (checkpointed || built) {
			t.Fatalf("the log holds %d images of node pages of %s; none are due before the first checkpoint but of built pages, some after it", n, file)
		}
	}
	db, err = Open(Options{Dir: dir, WAL: true, PoolPages: 16 * oracleCrampedFiles})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Every index file's torn page is found by its checksum and rebuilt.
	if rs := db.RecoveryStats(); rs.TornPages != int64(len(indexFiles)) || rs.TornRepaired != rs.TornPages {
		t.Fatalf("recovery found %d torn pages and repaired %d, want the %d index files' one each", rs.TornPages, rs.TornRepaired, len(indexFiles))
	}
	matched := map[string]int{}
	for _, tb := range db.Tables() {
		if rids, _ := oracleRows(t, tb); len(rids) != want[tb.Name] {
			t.Fatalf("%s holds %d rows after recovery, want %d", tb.Name, len(rids), want[tb.Name])
		}
		oracleCheckTable(t, r, tb, 40, matched)
	}
	oracleAllMatched(t, matched)
	if res, err := db.Scrub(""); err != nil || len(res.Issues) != 0 {
		t.Fatalf("scrub after the repair: %v, %+v", err, res)
	}
}

func mustFetch(t *testing.T, bp *storage.BufferPool, id storage.PageID) *storage.Page {
	t.Helper()
	p, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
