package core_test

// Tests of the two search drivers (Scan's descent and the NN cursor)
// against the real opclasses, which package core's own tests cannot
// import.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/kdtree"
	"repro/internal/pmr"
	"repro/internal/pquad"
	"repro/internal/storage"
	"repro/internal/suffix"
	"repro/internal/trie"
)

func rid(i int) heap.RID { return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)} }

// insertOne inserts one key as a one-key batch, which is what a
// single-row INSERT runs.
func insertOne(t *core.Tree, key core.Value, r heap.RID) error {
	return t.InsertBatch([]core.Value{key}, []heap.RID{r})
}

// nnFixture describes one NN-capable opclass for the cursor contract
// test: keys and queries are drawn from a small lattice so duplicate
// keys and equal distances are the rule, not the exception.
type nnFixture struct {
	name  string
	oc    func() core.OpClass
	key   func(r *rand.Rand) core.Value
	query func(r *rand.Rand) core.Value
	dist  func(q, key core.Value) float64
	scan  *core.Query // a multi-leaf search for the concurrency test
	eq    string      // the opclass's exact-match operator
}

func latticePoint(r *rand.Rand) core.Value {
	return geom.Point{X: float64(r.Intn(12)), Y: float64(r.Intn(12))}
}

func pointDist(q, k core.Value) float64 { return q.(geom.Point).Dist(k.(geom.Point)) }

var nnFixtures = []nnFixture{
	{
		name: "trie",
		oc:   func() core.OpClass { return trie.New() },
		key: func(r *rand.Rand) core.Value {
			b := make([]byte, 1+r.Intn(5))
			for i := range b {
				b[i] = byte('a' + r.Intn(3))
			}
			return string(b)
		},
		dist: func(q, k core.Value) float64 { return trie.Distance(k.(string), q.(string)) },
		scan: &core.Query{Op: "#=", Arg: "a"}, eq: "=",
	},
	{
		name: "kdtree", oc: func() core.OpClass { return kdtree.New() },
		key: latticePoint, dist: pointDist,
		scan: &core.Query{Op: "^", Arg: geom.MakeBox(2, 2, 9, 9)}, eq: "@",
	},
	{
		name: "pquad", oc: func() core.OpClass { return pquad.New() },
		key: latticePoint, dist: pointDist,
		scan: &core.Query{Op: "^", Arg: geom.MakeBox(2, 2, 9, 9)}, eq: "@",
	},
	{
		name: "pmr",
		oc:   func() core.OpClass { return pmr.New(pmr.WithWorld(geom.MakeBox(0, 0, 16, 16)), pmr.WithResolution(5)) },
		key: func(r *rand.Rand) core.Value {
			a := geom.Point{X: float64(r.Intn(12)), Y: float64(r.Intn(12))}
			return geom.Segment{A: a, B: geom.Point{X: a.X + float64(r.Intn(4)), Y: a.Y + float64(r.Intn(4))}}
		},
		query: latticePoint,
		dist:  func(q, k core.Value) float64 { return k.(geom.Segment).DistToPoint(q.(geom.Point)) },
		scan:  &core.Query{Op: "&&", Arg: geom.MakeBox(2, 2, 9, 9)}, eq: "=",
	},
}

// FuzzNodeView lives in package core, where the node view is; the
// opclasses it runs over a view are the fixtures above and the suffix tree,
// which stores what the trie stores and searches it by "@=".
func init() {
	core.FuzzFixtures = func(t testing.TB) []core.FuzzFixture {
		sfx := nnFixtures[0]
		sfx.name, sfx.oc = "suffix", func() core.OpClass { return suffix.New() }
		sfx.scan = suffix.SubstringQuery("ab")
		var out []core.FuzzFixture
		for _, fx := range append([]nnFixture{sfx}, nnFixtures...) {
			tr, live := buildFixture(t, fx, storage.NewMem(fixturePageSize), 120, 24)
			key, r := live[0].key, rand.New(rand.NewSource(24))
			out = append(out, core.FuzzFixture{
				OC: tr.OpClass(), Key: key, NNQuery: fx.drawQuery(r),
				Queries: []*core.Query{fx.scan, {Op: fx.eq, Arg: key}},
				Records: core.TreeRecords(t, tr),
			})
		}
		return out
	}
}

func (f nnFixture) drawQuery(r *rand.Rand) core.Value {
	if f.query != nil {
		return f.query(r)
	}
	return f.key(r)
}

// fixturePageSize is small enough that the 60 copies of one key every
// fixture tree gets cannot share a node record (the smallest item, a
// one-letter word, takes 9 bytes; the largest, a segment, 40): each tree
// has at least one overflow chain.
const fixturePageSize = 512

type pair struct {
	key core.Value
	rid heap.RID
}

// buildFixture loads a tree over dm with n random keys, 60 copies of one
// more, and then deletes every seventh pair; it returns what is left.
func buildFixture(t testing.TB, f nnFixture, dm storage.DiskManager, n int, seed int64) (*core.Tree, []pair) {
	t.Helper()
	tr, err := core.Create(storage.NewBufferPool("", dm, 256), f.oc())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	var all []pair
	dup := f.key(r)
	for i := 0; i < n+60; i++ {
		k := dup
		if i < n {
			k = f.key(r)
		}
		if err := insertOne(tr, k, rid(i)); err != nil {
			t.Fatalf("insert %v: %v", k, err)
		}
		all = append(all, pair{k, rid(i)})
	}
	var live []pair
	dead := map[heap.RID]bool{}
	for i, p := range all {
		if i%7 != 3 {
			live = append(live, p)
		} else {
			dead[p.rid] = true
		}
	}
	if err := tr.BulkDelete(func(r heap.RID) bool { return dead[r] }); err != nil {
		t.Fatalf("delete every seventh pair: %v", err)
	}
	return tr, live
}

type nnHit struct {
	rid  heap.RID
	dist float64
}

// drain runs an NN cursor to exhaustion, checking each returned key
// against its distance.
func drain(t testing.TB, f nnFixture, tr *core.Tree, q core.Value) []nnHit {
	t.Helper()
	cur, err := tr.NNScan(q)
	if err != nil {
		t.Fatal(err)
	}
	var hits []nnHit
	for {
		key, rid, d, ok := cur.Next()
		if !ok {
			break
		}
		if want := f.dist(q, tr.OpClass().DecodeKey(key)); d != want {
			t.Fatalf("%s: NN %v reported at distance %g, is at %g", f.name, key, d, want)
		}
		hits = append(hits, nnHit{rid, d})
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, _, ok := cur.Next(); ok {
			t.Fatalf("%s: Next after exhaustion returned a result", f.name)
		}
	}
	return hits
}

// TestNNCursorContract: over duplicate keys, overflow chains, equal
// distances and deleted entries, the cursor of every NN opclass yields
// each live RID exactly once, in non-decreasing distance, with exactly
// the distances a brute-force sort gives, and the same sequence every
// time it is run.
func TestNNCursorContract(t *testing.T) {
	for _, f := range nnFixtures {
		t.Run(f.name, func(t *testing.T) {
			tr, live := buildFixture(t, f, storage.NewMem(fixturePageSize), 600, 11)
			r := rand.New(rand.NewSource(12))
			for trial := 0; trial < 5; trial++ {
				q := f.drawQuery(r)
				hits := drain(t, f, tr, q)
				checkBruteForce(t, f, live, q, hits)
				if again := drain(t, f, tr, q); !reflect.DeepEqual(hits, again) {
					t.Fatalf("q=%v: second run of the cursor ordered ties differently", q)
				}
			}
		})
	}
}

// TestNNCursorMatchesReference: the cursor yields exactly the (RID,
// distance) sequence of a plain best-first search that enqueues every
// child (core.NNReference), ties included, for every NN opclass over
// duplicate keys, equal distances, overflow chains, deleted entries and
// the PMR quadtree's copies of one segment in several cells.
func TestNNCursorMatchesReference(t *testing.T) {
	for _, f := range nnFixtures {
		t.Run(f.name, func(t *testing.T) {
			for seed, n := range []int{150, 600} {
				tr, _ := buildFixture(t, f, storage.NewMem(fixturePageSize), n, 41+int64(seed))
				r := rand.New(rand.NewSource(51 + int64(seed)))
				for trial := 0; trial < 6; trial++ {
					q := f.drawQuery(r)
					rids, dists, err := core.NNReference(tr, q)
					if err != nil {
						t.Fatal(err)
					}
					hits := drain(t, f, tr, q)
					if len(hits) != len(rids) {
						t.Fatalf("seed %d q=%v: cursor yielded %d results, the reference %d", seed, q, len(hits), len(rids))
					}
					for i, h := range hits {
						if h.rid != rids[i] || h.dist != dists[i] {
							t.Fatalf("seed %d q=%v: result %d is %v at %g, the reference's %v at %g",
								seed, q, i, h.rid, h.dist, rids[i], dists[i])
						}
					}
				}
			}
		})
	}
}

// checkBruteForce fails unless hits are every live RID exactly once, in
// the distance order a brute-force sort gives.
func checkBruteForce(t *testing.T, f nnFixture, live []pair, q core.Value, hits []nnHit) {
	t.Helper()
	want := make([]float64, len(live))
	for i, p := range live {
		want[i] = f.dist(q, p.key)
	}
	sort.Float64s(want)
	if len(hits) != len(live) {
		t.Fatalf("%s q=%v: cursor yielded %d results, index holds %d", f.name, q, len(hits), len(live))
	}
	seen := make(map[heap.RID]bool, len(hits))
	for i, h := range hits {
		if seen[h.rid] {
			t.Fatalf("%s q=%v: rid %v yielded twice", f.name, q, h.rid)
		}
		seen[h.rid] = true
		if h.dist != want[i] {
			t.Fatalf("%s q=%v: result %d at distance %g, brute force says %g", f.name, q, i, h.dist, want[i])
		}
	}
	for _, p := range live {
		if !seen[p.rid] {
			t.Fatalf("%s q=%v: live rid %v never yielded", f.name, q, p.rid)
		}
	}
}

// TestNNCursorRecycling: Close hands a cursor back to NNScan emptied. A
// kd-tree cursor closed in the middle of its scan leaves queue entries and
// boxes behind, a drained PMR cursor a full dedup set; the PMR and trie
// cursors drawn after them start with one queue entry (the root), the
// root's traversal value alone and no seen RID, and still match a
// brute-force sort. Eight goroutines that scan and close on one PMR tree,
// stopping after different counts, agree with a sequential run.
func TestNNCursorRecycling(t *testing.T) {
	fixture := func(name string) nnFixture {
		for _, f := range nnFixtures {
			if f.name == name {
				return f
			}
		}
		t.Fatalf("no fixture %s", name)
		return nnFixture{}
	}
	kd, pm, tri := fixture("kdtree"), fixture("pmr"), fixture("trie")
	kdTree, _ := buildFixture(t, kd, storage.NewMem(fixturePageSize), 600, 31)
	pmTree, pmLive := buildFixture(t, pm, storage.NewMem(fixturePageSize), 600, 32)
	triTree, triLive := buildFixture(t, tri, storage.NewMem(fixturePageSize), 600, 33)
	r := rand.New(rand.NewSource(34))

	var last *core.NNCursor
	opened, recycled := 0, 0
	// open draws a cursor for q and checks that it holds only the root.
	open := func(f nnFixture, tr *core.Tree, q core.Value, rootBytes int) *core.NNCursor {
		t.Helper()
		cur, err := tr.NNScan(q)
		if err != nil {
			t.Fatal(err)
		}
		if opened++; cur == last {
			recycled++
		}
		if queued, entries, recon, seen := core.NNCursorHeld(cur); queued != 1 || entries != 1 || recon != rootBytes || seen != 0 {
			t.Fatalf("%s: a new scan holds %d queued, %d entries, %d traversal bytes, %d seen RIDs; want 1, 1, %d, 0",
				f.name, queued, entries, recon, seen, rootBytes)
		}
		return cur
	}
	// drainClose runs cur to exhaustion, checks it against brute force
	// and closes it.
	drainClose := func(f nnFixture, live []pair, q core.Value, cur *core.NNCursor) {
		t.Helper()
		var hits []nnHit
		for {
			_, rid, d, ok := cur.Next()
			if !ok {
				break
			}
			hits = append(hits, nnHit{rid, d})
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		checkBruteForce(t, f, live, q, hits)
		cur.Close()
		last = cur
	}

	for round := 0; round < 4; round++ {
		cur := open(kd, kdTree, kd.drawQuery(r), geom.BoxSize)
		for i := 0; i < 20; i++ {
			if _, _, _, ok := cur.Next(); !ok {
				t.Fatalf("kd-tree cursor ended after %d results: %v", i, cur.Err())
			}
		}
		if queued, _, recon, _ := core.NNCursorHeld(cur); queued == 0 || recon <= geom.BoxSize {
			t.Fatalf("mid-scan kd-tree cursor holds %d queued and %d traversal bytes: nothing to recycle", queued, recon)
		}
		cur.Close()
		cur.Close() // a second Close before the next NNScan is harmless
		last = cur

		q := pm.drawQuery(r)
		drainClose(pm, pmLive, q, open(pm, pmTree, q, geom.BoxSize))
		q = tri.drawQuery(r)
		drainClose(tri, triLive, q, open(tri, triTree, q, 0))
	}
	if recycled == 0 && poolsKeep() {
		t.Fatal("NNScan never handed back the cursor closed last")
	}
	t.Logf("%d of %d scans drew the cursor closed just before", recycled, opened-1)

	// Eight goroutines on the PMR tree, each stopping after a different
	// number of results and closing, against a sequential run.
	q := pm.drawQuery(r)
	var want []nnHit
	cur := open(pm, pmTree, q, geom.BoxSize)
	for {
		_, rid, d, ok := cur.Next()
		if !ok {
			break
		}
		want = append(want, nnHit{rid, d})
	}
	cur.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				n := (g*37 + i*61) % (len(want) + 1)
				cur, err := pmTree.NNScan(q)
				if err != nil {
					t.Error(err)
					return
				}
				got := make([]nnHit, 0, n)
				for len(got) < n {
					_, rid, d, ok := cur.Next()
					if !ok {
						break
					}
					got = append(got, nnHit{rid, d})
				}
				err = cur.Err()
				cur.Close()
				if err != nil || !reflect.DeepEqual(got, want[:n]) {
					t.Errorf("goroutine %d: %d results differ from the sequential run's first %d (err %v)", g, len(got), n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNNCursorSurfacesStorageError: a read that fails under the cursor
// ends the iteration and is reported by Err, on that call and after.
func TestNNCursorSurfacesStorageError(t *testing.T) {
	for _, f := range nnFixtures {
		t.Run(f.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "idx.spg")
			dm, err := storage.OpenFile(path, fixturePageSize)
			if err != nil {
				t.Fatal(err)
			}
			tr, live := buildFixture(t, f, dm, 600, 13)
			if err := tr.Pool().Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen cold (empty node table, a pool far smaller
			// than the file) over a disk that fails every read once armed.
			dm, err = storage.OpenFile(path, fixturePageSize)
			if err != nil {
				t.Fatal(err)
			}
			faulty := storage.WithFaults(dm, 1)
			faulty.Disarm()
			bp := storage.NewBufferPool("", faulty, 4)
			t.Cleanup(func() { bp.Close() })
			tr, err = core.Open(bp, f.oc())
			if err != nil {
				t.Fatal(err)
			}
			cur, err := tr.NNScan(f.drawQuery(rand.New(rand.NewSource(14))))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, ok := cur.Next(); !ok {
				t.Fatalf("first result: %v", cur.Err())
			}
			faulty.SetProb(storage.FaultRead, 1)
			faulty.Arm()
			n := 1
			for {
				if _, _, _, ok := cur.Next(); !ok {
					break
				}
				n++
			}
			if cur.Err() == nil {
				t.Fatalf("cursor ended after %d of %d results with no error", n, len(live))
			}
			faulty.Disarm()
			if _, _, _, ok := cur.Next(); ok || cur.Err() == nil {
				t.Fatal("cursor came back to life after reporting an error")
			}
		})
	}
}

// TestConcurrentScanAndNN: the drivers' reused buffers are per search,
// never per tree — eight goroutines scanning and NN-searching one warm
// tree each get what a serial run gets (meaningful under -race).
func TestConcurrentScanAndNN(t *testing.T) {
	for _, f := range nnFixtures {
		t.Run(f.name, func(t *testing.T) {
			tr, _ := buildFixture(t, f, storage.NewMem(fixturePageSize), 600, 15)
			q := f.drawQuery(rand.New(rand.NewSource(16)))
			scanAll := func() ([]heap.RID, error) { return tr.Lookup(f.scan) }
			nnAll := func() ([]heap.RID, error) {
				_, rids, _, err := tr.NN(q, 200)
				return rids, err
			}
			wantScan, err := scanAll()
			if err != nil || len(wantScan) == 0 {
				t.Fatalf("serial scan: %d results, err %v", len(wantScan), err)
			}
			wantNN, err := nnAll()
			if err != nil || len(wantNN) != 200 {
				t.Fatalf("serial NN: %d results, err %v", len(wantNN), err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						if got, err := scanAll(); err != nil || !reflect.DeepEqual(got, wantScan) {
							t.Errorf("concurrent scan differs from serial run (err %v)", err)
							return
						}
						if got, err := nnAll(); err != nil || !reflect.DeepEqual(got, wantNN) {
							t.Errorf("concurrent NN differs from serial run (err %v)", err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestSearchAllocBudget pins what the drivers allocate per search on a warm
// tree: nothing. Nothing per node visited (no predicate, label or key is
// decoded to be looked at), nothing per child enqueued, and not the descent
// itself, which comes back from the last finished search (1 when every
// Scan made its own): an exact-match descent down a full-length path of
// the kd-tree costs what one down the trie's five nodes costs. kNN is
// measured on a cursor closed after its ten results, as an am index's
// NNSearch drives it for the executor: the cursor, its queue and its arena
// of traversal values come back from the last closed one, so the budget is
// 0 (53 when every inner node dequeued boxed its traversal value and every
// cursor was new). Where sync.Pool drops what it is given (the race
// detector does that) a Scan may make its own descent, and the kNN half
// measures nothing and is skipped.
func TestSearchAllocBudget(t *testing.T) {
	emitted := 0
	emit := func([]byte, heap.RID) bool { emitted++; return true }
	// measure checks search against its budget on a warm node table and
	// returns the rows one search emits.
	measure := func(name string, budget float64, search func()) int {
		t.Helper()
		search()
		emitted = 0
		got := testing.AllocsPerRun(50, search)
		t.Logf("%s: %.0f allocations per search", name, got)
		if got > budget {
			t.Errorf("%s: %.0f allocations per search, budget %.0f", name, got, budget)
		}
		return emitted / 51 // AllocsPerRun adds a warm-up run
	}
	scanBudget := 0.0
	if !poolsKeep() {
		scanBudget = 1
	}

	words, err := core.Create(storage.NewBufferPool("", storage.NewMem(8192), 1024), trie.New())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40000; i++ {
		if err := insertOne(words, fmt.Sprintf("w%06d", i*7919%1000003), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	exact := &core.Query{Op: "=", Arg: fmt.Sprintf("w%06d", 20000*7919%1000003)}
	if rows := measure("trie exact match", scanBudget, func() {
		if err := words.Scan(exact, emit); err != nil {
			t.Fatal(err)
		}
	}); rows != 1 {
		t.Fatalf("trie exact match returned %d rows, want 1", rows)
	}

	pts, err := core.Create(storage.NewBufferPool("", storage.NewMem(8192), 1024), kdtree.New())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(18))
	var deep geom.Point
	for i := 0; i < 15000; i++ {
		p := geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		if err := insertOne(pts, p, rid(i)); err != nil {
			t.Fatal(err)
		}
		deep = p // the last point inserted hangs at the end of a full-length path
	}
	exact = &core.Query{Op: "@", Arg: deep}
	if rows := measure("kd-tree exact match", scanBudget, func() {
		if err := pts.Scan(exact, emit); err != nil {
			t.Fatal(err)
		}
	}); rows != 1 {
		t.Fatalf("kd-tree exact match returned %d rows, want 1", rows)
	}
	// 15 points per 1000 square units: a 26×26 box holds about ten.
	box := &core.Query{Op: "^", Arg: geom.MakeBox(487, 487, 513, 513)}
	if rows := measure("kd-tree box scan", scanBudget, func() {
		if err := pts.Scan(box, emit); err != nil {
			t.Fatal(err)
		}
	}); rows < 3 || rows > 30 {
		t.Fatalf("kd-tree box scan returned %d rows, want about ten", rows)
	}
	if !poolsKeep() {
		t.Log("sync.Pool drops what it is given (the race detector does that): the kNN budget measures nothing here")
		return
	}
	var center core.Value = geom.Point{X: 500, Y: 500}
	measure("kd-tree NN k=10, closed", 0, func() {
		cur, err := pts.NNScan(center)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if _, _, _, ok := cur.Next(); !ok {
				t.Fatalf("NN: %d results, err %v", k, cur.Err())
			}
		}
		cur.Close()
	})
}

// poolsKeep reports whether a sync.Pool hands back what it was just given.
// Under the race detector Put drops a quarter of its arguments at random.
func poolsKeep() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}
