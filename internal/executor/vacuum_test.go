package executor

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/kdtree"
	"repro/internal/storage"
	"repro/internal/trie"
	"repro/internal/wal"
)

// fullIndexScan returns the RIDs a scan of ix yields under an operator
// and argument every key of its class satisfies.
func fullIndexScan(t *testing.T, ix *IndexInfo) map[heap.RID]bool {
	t.Helper()
	world := catalog.NewBox(geom.MakeBox(-1, -1, 101, 101)) // holds oracleWorld
	all := map[string]Pred{
		"spgist_trie":      {Op: "#=", Arg: catalog.NewText("")},
		"btree_text":       {Op: "#=", Arg: catalog.NewText("")},
		"spgist_suffix":    {Op: "@=", Arg: catalog.NewText("")},
		"spgist_kdtree":    {Op: "^", Arg: world},
		"spgist_pquadtree": {Op: "^", Arg: world},
		"rtree_point":      {Op: "^", Arg: world},
		"spgist_pmr":       {Op: "&&", Arg: world},
		"rtree_segment":    {Op: "&&", Arg: world},
	}
	p, ok := all[ix.OpClass.Name]
	if !ok {
		t.Fatalf("no full scan for operator class %s", ix.OpClass.Name)
	}
	out := map[heap.RID]bool{}
	if err := ix.Idx.Scan(p.Op, p.Arg, func(rid heap.RID) bool { out[rid] = true; return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVacuumRemovesIndexEntries: VACUUM removes a dead version's entries
// from every index by RID, in one BulkDelete pass per index and chunk. So
// after VACUUM, and again after Close and Open, a full scan of each index
// yields no RID VACUUM reclaimed, only the live rows', and every index scan
// returns what a Seq Scan returns. The tables cover every operator class;
// the dead versions are committed deletes, the old versions of updated
// rows and the rows of a rolled-back transaction. At a 64-page pool the
// words and points tables' files are larger than half the pool, and each
// has more dead versions than any of its files has pages, so the chunks
// chunkLen sizes cannot take them all at once; the segments table's files
// fit in half the pool, so its VACUUM is one chunk.
func TestVacuumRemovesIndexEntries(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, PoolPages: 64, WALSync: wal.SyncLazy}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	words := datagen.Words(900, 31)
	pts := datagen.Points(900, 32, oracleWorld)
	segs := datagen.Segments(600, 33, oracleWorld, 8)
	tables := []struct {
		name    string
		typ     catalog.Type
		n       int
		key     func(i int) catalog.Datum
		indexes [][3]string
	}{
		{"words", catalog.Text, len(words), func(i int) catalog.Datum { return catalog.NewText(words[i]) },
			[][3]string{{"w_trie", "spgist", "spgist_trie"}, {"w_suffix", "spgist", "spgist_suffix"}, {"w_btree", "btree", ""}}},
		{"pts", catalog.Point, len(pts), func(i int) catalog.Datum { return catalog.NewPoint(pts[i]) },
			[][3]string{{"p_kd", "spgist", "spgist_kdtree"}, {"p_quad", "spgist", "spgist_pquadtree"}, {"p_rtree", "rtree", ""}}},
		{"segs", catalog.Segment, len(segs), func(i int) catalog.Datum { return catalog.NewSegment(segs[i]) },
			[][3]string{{"s_pmr", "spgist", "spgist_pmr"}, {"s_rtree", "rtree", ""}}},
	}
	classes := map[string]bool{}
	reclaimed := map[string]map[heap.RID]bool{} // by table: the RIDs VACUUM took
	var chunked, whole bool                     // a table whose VACUUM took several chunks, one
	for _, def := range tables {
		tb, err := db.CreateTable(def.name, []Column{{"k", def.typ}, {"id", catalog.Int}})
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range def.indexes {
			info, err := db.CreateIndex(ix[0], def.name, "k", ix[1], ix[2])
			if err != nil {
				t.Fatal(err)
			}
			classes[info.OpClass.Name] = true
		}
		// Two thirds of the keys now, the rest in a transaction that
		// rolls back.
		live := def.n * 2 / 3
		tups := make([]catalog.Tuple, def.n)
		for i := range tups {
			tups[i] = catalog.Tuple{def.key(i), catalog.NewInt(int64(i))}
		}
		if _, err := tb.InsertBatch(tups[:live]); err != nil {
			t.Fatal(err)
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.InsertBatchTx(tx, tups[live:]); err != nil {
			t.Fatal(err)
		}
		// Merge the index batch, as a read through an index would, so
		// the indexes hold entries of the rows it rolls back.
		mergeByRead(t, tb, tx)
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.DeleteWhere(&Pred{Column: 1, Op: "<", Arg: catalog.NewInt(int64(live / 3))}); err != nil {
			t.Fatal(err)
		}
		// Every updated row moves its key to that of an aborted row.
		for i := live / 3; i < live/2; i++ {
			set := []ColUpdate{{Column: 0, Value: def.key(live + i%(def.n-live))}}
			if _, err := tb.UpdateWhere(&Pred{Column: 1, Op: "=", Arg: catalog.NewInt(int64(i))}, set); err != nil {
				t.Fatal(err)
			}
		}
		pages := 0
		for _, bp := range tablePools(tb) {
			pages += int(bp.DM().NumPages())
		}
		if pages > opts.PoolPages/2 {
			chunked = true
		} else {
			whole = true
		}
		// The dead versions: every RID an index holds that no live row has.
		dead := map[heap.RID]bool{}
		for _, ix := range tb.Indexes {
			maps.Copy(dead, fullIndexScan(t, ix))
		}
		for rid := range liveRIDs(t, tb) {
			delete(dead, rid)
		}
		reclaimed[def.name] = dead
		if n, err := db.Vacuum(def.name); err != nil || n != def.n-live+live/2 || len(dead) != n {
			t.Fatalf("VACUUM %s reclaimed %d versions (%v), want %d, the %d the indexes held for dead versions", def.name, n, err, def.n-live+live/2, len(dead))
		}
	}
	if !chunked || !whole {
		t.Fatalf("a VACUUM in chunks: %v, a VACUUM in one: %v; want both", chunked, whole)
	}
	for _, oc := range catalog.OpClasses() {
		if !classes[oc.Name] {
			t.Fatalf("operator class %s has no index in the test", oc.Name)
		}
	}

	check := func(when string) {
		t.Helper()
		for _, tb := range db.Tables() {
			live := liveRIDs(t, tb)
			for _, ix := range tb.Indexes {
				got := fullIndexScan(t, ix)
				for rid := range got {
					if reclaimed[tb.Name][rid] {
						t.Errorf("%s %s: index %s still yields the reclaimed RID %v", when, tb.Name, ix.Name, rid)
					}
				}
				if !maps.Equal(got, live) {
					t.Errorf("%s %s: a full scan of index %s yields %d RIDs, the table has %d live rows", when, tb.Name, ix.Name, len(got), len(live))
				}
			}
		}
	}
	check("after VACUUM")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := rand.New(rand.NewSource(34))
	matched := map[string]int{}
	check("after Close and Open")
	for _, tb := range db.Tables() {
		oracleCheckTable(t, r, tb, 20, matched)
	}
	oracleAllMatched(t, matched)
}

// liveRIDs returns the RIDs of the rows a Seq Scan of tb returns.
func liveRIDs(t *testing.T, tb *Table) map[heap.RID]bool {
	t.Helper()
	out := map[heap.RID]bool{}
	if _, err := tb.Select(nil, func(r Row) bool { out[r.RID] = true; return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVacuumChurnBounds is ROADMAP finding 5 through SQL's write path: a
// kd-tree table and a trie table of 2 000 live rows each go through ten
// rounds of inserting 2 000 fresh rows, deleting the previous round's and
// VACUUMing. After every round no dead RID is left in any leaf (a full
// index scan returns exactly the live rows) and index scans return what a
// Seq Scan returns. BulkDelete removes items but gives no node and no page
// back, so the files grow with the churn though the live data does not:
// the file pages and page height observed after the ten rounds are pinned
// as upper bounds, which pruning emptied data nodes and the inner nodes
// above them (ROADMAP direction L) will tighten.
func TestVacuumChurnBounds(t *testing.T) {
	const live, rounds = 2000, 10
	db := memDB(t)
	defer db.Close()
	tables := []struct {
		name    string
		typ     catalog.Type
		opclass string
		oc      core.OpClass
		key     func(round int) []catalog.Datum
		all     *Pred // an index scan that returns every entry
		// The bounds after the ten rounds. Fresh, the kd-tree has 19 pages
		// and page height 10, the trie 7 and 3.
		maxPages, maxHeight int
	}{
		{"pts", catalog.Point, "spgist_kdtree", kdtree.New(), func(round int) []catalog.Datum {
			var ks []catalog.Datum
			for _, p := range datagen.Points(live, int64(40+round), oracleWorld) {
				ks = append(ks, catalog.NewPoint(p))
			}
			return ks
		}, &Pred{Column: 0, Op: "^", Arg: catalog.NewBox(oracleWorld)}, 110, 16},
		{"words", catalog.Text, "spgist_trie", trie.New(), func(round int) []catalog.Datum {
			var ks []catalog.Datum
			for _, w := range datagen.Words(live, int64(60+round)) {
				ks = append(ks, catalog.NewText(w))
			}
			return ks
		}, &Pred{Column: 0, Op: "#=", Arg: catalog.NewText("")}, 12, 3},
	}
	r := rand.New(rand.NewSource(35))
	for _, def := range tables {
		tb, err := db.CreateTable(def.name, []Column{{"k", def.typ}, {"id", catalog.Int}})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := db.CreateIndex(def.name+"_ix", def.name, "k", "spgist", def.opclass)
		if err != nil {
			t.Fatal(err)
		}
		insert := func(round int) {
			t.Helper()
			tups := make([]catalog.Tuple, live)
			for i, k := range def.key(round) {
				tups[i] = catalog.Tuple{k, catalog.NewInt(int64(round*live + i))}
			}
			if _, err := tb.InsertBatch(tups); err != nil {
				t.Fatal(err)
			}
		}
		shape := func() (pages uint32, height int) {
			t.Helper()
			tr, err := core.Open(ix.Pool(), def.oc)
			if err != nil {
				t.Fatal(err)
			}
			st, err := tr.Stats()
			if err != nil {
				t.Fatal(err)
			}
			return st.Pages, st.MaxPageHeight
		}
		insert(0)
		freshPages, freshHeight := shape()
		for round := 1; round <= rounds; round++ {
			insert(round)
			if _, err := tb.DeleteWhere(&Pred{Column: 1, Op: "<", Arg: catalog.NewInt(int64(round * live))}); err != nil {
				t.Fatal(err)
			}
			if n, err := db.Vacuum(def.name); err != nil || n != live {
				t.Fatalf("%s round %d: VACUUM reclaimed %d versions (%v), want %d", def.name, round, n, err, live)
			}
			var rows []heap.RID
			if _, err := tb.Select(nil, func(r Row) bool { rows = append(rows, r.RID); return true }); err != nil {
				t.Fatal(err)
			}
			var entries []heap.RID
			if err := ix.Idx.Scan(def.all.Op, def.all.Arg, func(rid heap.RID) bool { entries = append(entries, rid); return true }); err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(entries, func(a, b heap.RID) int {
				return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
			})
			if !slices.Equal(entries, rows) {
				t.Fatalf("%s round %d: the index holds %d entries, the heap %d live rows; they differ", def.name, round, len(entries), len(rows))
			}
			if len(entries) != live {
				t.Fatalf("%s round %d: a full index scan yields %d entries, want %d", def.name, round, len(entries), live)
			}
		}
		oracleCheckTable(t, r, tb, 20, map[string]int{})
		pages, height := shape()
		t.Logf("%s: fresh %d pages, page height %d; after %d rounds %d pages, page height %d", def.name, freshPages, freshHeight, rounds, pages, height)
		if int(pages) > def.maxPages || height > def.maxHeight {
			t.Errorf("%s after %d rounds: %d pages, page height %d; bounds %d and %d", def.name, rounds, pages, height, def.maxPages, def.maxHeight)
		}
	}
}

// TestReaped holds reaped's binary search to a linear one, for every RID
// around every run of a few sorted RIDs.
func TestReaped(t *testing.T) {
	var all []heap.RID
	for p := 1; p <= 3; p++ {
		for s := 0; s < 4; s++ {
			all = append(all, heap.RID{Page: storage.PageID(p), Slot: uint16(s)})
		}
	}
	r := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		var dead []heap.RID
		for _, rid := range all {
			if r.Intn(3) == 0 {
				dead = append(dead, rid)
			}
		}
		if len(dead) == 0 {
			continue
		}
		for _, rid := range append(all, heap.RID{Page: 4}) {
			if got, want := reaped(dead)(rid), slices.Contains(dead, rid); got != want {
				t.Fatalf("reaped(%v, %v) = %v, want %v", dead, rid, got, want)
			}
		}
	}
}
