package executor

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
)

// The index-vs-seqscan oracle, static-data slice: every access method
// must return exactly the rows a sequential scan returns, for every
// operator its class supports, and kNN must come back in brute-force
// distance order — through a 16-page pool per file, so descents miss,
// evict and (with readahead on) race prefetch workers. Concurrent DML,
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
	db, err := Open(Options{Dir: dir})
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
	for _, readahead := range []int{-1, 8} { // off, and the default window
		t.Run(fmt.Sprintf("readahead=%d", readahead), func(t *testing.T) {
			db, err := Open(Options{Dir: dir, PoolPages: 16, ReadaheadPages: readahead})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			r := rand.New(rand.NewSource(int64(100 + readahead)))
			for _, tb := range db.Tables() {
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
					proc, matched := mustOperator(t, op, typ).Proc, 0
					for i := 0; i < oraclePreds; i++ {
						pred := &Pred{Column: 0, Op: op, Arg: oracleArg(r, typ, op, keys)}
						var want []heap.RID
						for j, key := range keys {
							if proc(key, pred.Arg) {
								want = append(want, rids[j])
							}
						}
						matched += len(want)
						for _, ix := range byOp[op] {
							if got := oracleIndexScan(t, tb, ix, pred); !slices.Equal(got, want) {
								t.Fatalf("%s: k %s %s: index returns %d rows %v, seq scan %d rows %v",
									ix.OpClass.Name, op, pred.Arg, len(got), got, len(want), want)
							}
						}
					}
					if matched == 0 {
						t.Errorf("%s %s %s: no predicate matched a row; the generator tests nothing", tb.Name, typ, op)
					}
				}
				for _, ix := range tb.Indexes {
					// The suffix tree orders suffixes, not rows: its NN
					// distances are not the row distances brute force sorts.
					if ix.OpClass.NNOp != "" && ix.OpClass.Name != "spgist_suffix" {
						oracleNN(t, r, tb, ix, keys)
					}
				}
			}
			if st := db.PoolStats(); st.Misses == 0 || (readahead > 0) != (st.PrefetchReads > 0) {
				t.Errorf("pool was not exercised as meant: %+v", st)
			}
		})
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
func oracleNN(t *testing.T, r *rand.Rand, tb *Table, ix *IndexInfo, keys []catalog.Datum) {
	t.Helper()
	saved := tb.Indexes
	tb.Indexes = []*IndexInfo{ix} // planNN takes the first NN-capable index
	defer func() { tb.Indexes = saved }()
	all := make([]float64, len(keys))
	for i := 0; i < oraclePreds; i++ {
		arg := oracleArg(r, tb.Columns[0].Type, "<->", keys)
		k := 1 + r.Intn(20)
		res, plan, err := tb.SelectNN("k", arg, k)
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
