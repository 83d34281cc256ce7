// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation, at a fixed moderate size. The full parameter sweeps that
// regenerate the figures' series live in cmd/spgist-bench; these targets
// give quick per-operation numbers (ns/op, B/op) for regression tracking.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/kdtree"
	"repro/internal/pmr"
	"repro/internal/pquad"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/suffix"
	"repro/internal/trie"
	"repro/internal/wal"
)

const (
	benchWords  = 50000
	benchPoints = 50000
	benchSegs   = 20000
)

func benchRID(i int) heap.RID {
	return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)}
}

func newPool() *storage.BufferPool {
	return storage.NewBufferPool("", storage.NewMem(storage.DefaultPageSize), 4096)
}

// Shared fixtures, built once.
var fixtures struct {
	once sync.Once

	words    []string
	patterns []string
	prefixes []string
	subs     []string
	trie     *core.Tree
	sfx      *core.Tree
	bt       *btree.Tree

	points []geom.Point
	kd     *core.Tree
	pq     *core.Tree
	rtPt   *rtree.Tree

	segs  []geom.Segment
	pmrT  *core.Tree
	rtSeg *rtree.Tree
}

// loaded returns a fixture the bench package's loaders built in the
// end-to-end benchmark's 500-row statement batches.
func loaded[T any](t T, _ time.Duration, err error) T {
	if err != nil {
		panic(err)
	}
	return t
}

// repacked returns an SP-GiST fixture repacked, as the figures search it.
func repacked(t *core.Tree, d time.Duration, err error) *core.Tree {
	t, err = loaded(t, d, err).Repack(newPool())
	return loaded(t, d, err)
}

func setup(b *testing.B) {
	b.Helper()
	defer b.ResetTimer() // keep one-time fixture construction out of the timings
	fixtures.once.Do(func() {
		f := &fixtures
		f.words = datagen.Words(benchWords, 42)
		f.patterns = datagen.Patterns(f.words, 512, 0.3, 43)
		f.prefixes = datagen.Prefixes(f.words, 512, 44)
		f.subs = datagen.Substrings(f.words, 512, 45)

		f.trie = repacked(bench.LoadSPGiST(newPool(), trie.New(), f.words))
		f.bt = loaded(bench.LoadBTree(newPool(), f.words))
		f.sfx = repacked(bench.LoadSuffix(newPool(), f.words[:benchWords/5]))

		world := geom.MakeBox(0, 0, 100, 100)
		f.points = datagen.Points(benchPoints, 46, world)
		f.kd = repacked(bench.LoadSPGiST(newPool(), kdtree.New(), f.points))
		f.pq = repacked(bench.LoadSPGiST(newPool(), pquad.New(), f.points))
		boxes := make([]geom.Box, len(f.points))
		for i, p := range f.points {
			boxes[i] = geom.Box{Min: p, Max: p}
		}
		f.rtPt = loaded(bench.LoadRTree(newPool(), boxes))

		f.segs = datagen.Segments(benchSegs, 47, world, 5)
		f.pmrT = repacked(bench.LoadSPGiST(newPool(), pmr.New(), f.segs))
		mbrs := make([]geom.Box, len(f.segs))
		for i, s := range f.segs {
			mbrs[i] = s.MBR()
		}
		f.rtSeg = loaded(bench.LoadRTree(newPool(), mbrs))
	})
}

var sink int

func emitCore(_ []byte, _ heap.RID) bool { sink++; return true }

// --- Table 7 has no runtime component (line counting); see cmd/spgist-loc.

// --- Figure 6: exact and prefix match, trie vs B+-tree.

func BenchmarkFig6ExactMatchTrie(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		w := fixtures.words[i%benchWords]
		fixtures.trie.Scan(&core.Query{Op: "=", Arg: w}, emitCore)
	}
}

func BenchmarkFig6ExactMatchBTree(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		w := fixtures.words[i%benchWords]
		fixtures.bt.Search([]byte(w), func(heap.RID) bool { sink++; return true })
	}
}

func BenchmarkFig6PrefixMatchTrie(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		p := fixtures.prefixes[i%len(fixtures.prefixes)]
		fixtures.trie.Scan(&core.Query{Op: "#=", Arg: p}, emitCore)
	}
}

func BenchmarkFig6PrefixMatchBTree(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		p := fixtures.prefixes[i%len(fixtures.prefixes)]
		fixtures.bt.PrefixScan([]byte(p), func(_ []byte, _ heap.RID) bool { sink++; return true })
	}
}

// --- Figure 7: regular-expression ('?' wildcard) match.

func BenchmarkFig7RegexTrie(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		p := fixtures.patterns[i%len(fixtures.patterns)]
		fixtures.trie.Scan(&core.Query{Op: "?=", Arg: p}, emitCore)
	}
}

func BenchmarkFig7RegexBTree(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		p := fixtures.patterns[i%len(fixtures.patterns)]
		fixtures.bt.MatchScan(p, trie.MatchPattern, func(_ []byte, _ heap.RID) bool { sink++; return true })
	}
}

// --- Figures 8-9: trie insert vs B+-tree insert (fresh trees per run).
// The insert targets time a one-key batch, what a single-row INSERT runs.

func BenchmarkFig9InsertTrie(b *testing.B) {
	setup(b)
	t, _ := core.Create(newPool(), trie.New())
	keys, rids := make([]core.Value, 1), make([]heap.RID, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys[0], rids[0] = fixtures.words[i%benchWords], benchRID(i)
		t.InsertBatch(keys, rids)
	}
}

func BenchmarkFig9InsertBTree(b *testing.B) {
	setup(b)
	t, _ := btree.Create(newPool())
	pair := make([]btree.Pair, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair[0] = btree.Pair{Key: []byte(fixtures.words[i%benchWords]), RID: benchRID(i)}
		t.InsertBatch(pair)
	}
}

// --- Figures 10-12 are structural (size, heights): measured in
// cmd/spgist-bench; here a cheap stats walk keeps them regression-tested.

func BenchmarkFig12StatsWalkTrie(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixtures.trie.Stats(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 13: point match / range search, kd-tree vs R-tree.

func BenchmarkFig13PointMatchKD(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		p := fixtures.points[i%benchPoints]
		fixtures.kd.Scan(&core.Query{Op: "@", Arg: p}, emitCore)
	}
}

func BenchmarkFig13PointMatchRTree(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		p := fixtures.points[i%benchPoints]
		fixtures.rtPt.SearchPoint(p, func(heap.RID) bool { sink++; return true })
	}
}

var benchBoxes = datagen.Boxes(512, 48, geom.MakeBox(0, 0, 100, 100), 3)

func BenchmarkFig13RangeKD(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		fixtures.kd.Scan(&core.Query{Op: "^", Arg: benchBoxes[i%len(benchBoxes)]}, emitCore)
	}
}

func BenchmarkFig13RangeRTree(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		fixtures.rtPt.SearchContained(benchBoxes[i%len(benchBoxes)],
			func(_ geom.Box, _ heap.RID) bool { sink++; return true })
	}
}

func BenchmarkFig13InsertKD(b *testing.B) {
	setup(b)
	t, _ := core.Create(newPool(), kdtree.New())
	keys, rids := make([]core.Value, 1), make([]heap.RID, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys[0], rids[0] = fixtures.points[i%benchPoints], benchRID(i)
		t.InsertBatch(keys, rids)
	}
}

func BenchmarkFig13InsertRTree(b *testing.B) {
	setup(b)
	t, _ := rtree.Create(newPool())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fixtures.points[i%benchPoints]
		t.Insert(geom.Box{Min: p, Max: p}, benchRID(i))
	}
}

// --- Figure 15: segment workloads, PMR quadtree vs R-tree.

func BenchmarkFig15ExactPMR(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		s := fixtures.segs[i%benchSegs]
		fixtures.pmrT.Scan(&core.Query{Op: "=", Arg: s}, emitCore)
	}
}

func BenchmarkFig15ExactRTree(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		s := fixtures.segs[i%benchSegs]
		fixtures.rtSeg.Search(s.MBR(), func(_ geom.Box, rd heap.RID) bool {
			idx := (int(rd.Page)-1)*1000 + int(rd.Slot)
			if fixtures.segs[idx].Eq(s) {
				sink++
			}
			return true
		})
	}
}

func BenchmarkFig15WindowPMR(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		fixtures.pmrT.Scan(&core.Query{Op: "&&", Arg: benchBoxes[i%len(benchBoxes)]}, emitCore)
	}
}

func BenchmarkFig15WindowRTree(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		w := benchBoxes[i%len(benchBoxes)]
		fixtures.rtSeg.Search(w, func(_ geom.Box, rd heap.RID) bool {
			idx := (int(rd.Page)-1)*1000 + int(rd.Slot)
			if fixtures.segs[idx].IntersectsBox(w) {
				sink++
			}
			return true
		})
	}
}

// --- Figure 16: substring match, suffix tree vs sequential scan.

func BenchmarkFig16SubstringSuffixTree(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		q := fixtures.subs[i%len(fixtures.subs)]
		fixtures.sfx.Scan(suffix.SubstringQuery(q), emitCore)
	}
}

func BenchmarkFig16SubstringSeqScan(b *testing.B) {
	setup(b)
	words := fixtures.words[:benchWords/5]
	for i := 0; i < b.N; i++ {
		q := fixtures.subs[i%len(fixtures.subs)]
		for _, w := range words {
			if strings.Contains(w, q) {
				sink++
			}
		}
	}
}

// --- Figure 17: incremental NN across instantiations.

func benchNN(b *testing.B, t *core.Tree, k int, q func(i int) core.Value) {
	b.Helper()
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := t.NN(q(i), k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17NN8KD(b *testing.B) {
	benchNN(b, fixturesKD(b), 8, func(i int) core.Value { return fixtures.points[i%benchPoints] })
}

func BenchmarkFig17NN128KD(b *testing.B) {
	benchNN(b, fixturesKD(b), 128, func(i int) core.Value { return fixtures.points[i%benchPoints] })
}

func BenchmarkFig17NN8PQuad(b *testing.B) {
	benchNN(b, fixturesPQ(b), 8, func(i int) core.Value { return fixtures.points[i%benchPoints] })
}

func BenchmarkFig17NN8Trie(b *testing.B) {
	benchNN(b, fixturesTrie(b), 8, func(i int) core.Value { return fixtures.words[i%benchWords] })
}

func fixturesKD(b *testing.B) *core.Tree   { setup(b); return fixtures.kd }
func fixturesPQ(b *testing.B) *core.Tree   { setup(b); return fixtures.pq }
func fixturesTrie(b *testing.B) *core.Tree { setup(b); return fixtures.trie }

// --- Substrate micro-benchmarks.

func BenchmarkSubstrateBufferPoolFetch(b *testing.B) {
	bp := newPool()
	var ids []storage.PageID
	for i := 0; i < 64; i++ {
		p, _ := bp.NewPage()
		ids = append(ids, p.ID)
		bp.Unpin(p, false)
	}
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := bp.Fetch(ids[r.Intn(len(ids))])
		bp.Unpin(p, false)
	}
}

func BenchmarkSubstrateHeapInsert(b *testing.B) {
	hf, _ := heap.Create(newPool())
	rec := []byte("a modest forty-byte tuple for the bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hf.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard against accidental fixture-size drift.
func TestBenchFixturesSane(t *testing.T) {
	if benchWords < 1000 || benchPoints < 1000 || benchSegs < 1000 {
		t.Fatal("bench fixtures too small to be meaningful")
	}
}

// BenchmarkWALAppend measures the write-ahead-log append path that every
// mutating statement pays when logging is on: buffered appends alone
// (what group-commit batching reduces commits to), an fsync per commit
// (the durable worst case), and parallel committers sharing fsyncs
// through the leader/follower group commit.
func BenchmarkWALAppend(b *testing.B) {
	rec := make([]byte, 200)
	for i := range rec {
		rec[i] = byte(i)
	}
	// One heap-insert record per group: the shape a single-row statement
	// hands the log.
	appendInsert := func(w *wal.Writer, page uint32) (wal.LSN, error) {
		g := wal.NewGroup()
		g.AddHeapInsert("t.tbl", page, 0, rec)
		lsns, err := w.AppendGroup(g)
		if err != nil {
			return 0, err
		}
		return lsns[0], nil
	}
	b.Run("buffered", func(b *testing.B) {
		w, err := wal.OpenWriter(b.TempDir(), wal.Options{Mode: wal.SyncLazy})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		b.SetBytes(int64(len(rec)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := appendInsert(w, uint32(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sync-every-commit", func(b *testing.B) {
		w, err := wal.OpenWriter(b.TempDir(), wal.Options{Mode: wal.SyncCommit})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		b.SetBytes(int64(len(rec)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := appendInsert(w, uint32(i)); err != nil {
				b.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("group-commit-parallel", func(b *testing.B) {
		w, err := wal.OpenWriter(b.TempDir(), wal.Options{Mode: wal.SyncCommit})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		b.SetBytes(int64(len(rec)))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				lsn, err := appendInsert(w, 1)
				if err != nil {
					b.Error(err)
					return
				}
				if err := w.Sync(lsn); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkWALPageImage measures the page-image record path of a page's
// first-touch full-page write, for a sparse page (mostly zeros, left out
// as its hole) and a full page image.
func BenchmarkWALPageImage(b *testing.B) {
	for _, bc := range []struct {
		name string
		fill int
	}{{"sparse", 64}, {"full", storage.DefaultPageSize}} {
		b.Run(bc.name, func(b *testing.B) {
			w, err := wal.OpenWriter(b.TempDir(), wal.Options{Mode: wal.SyncLazy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			page := make([]byte, storage.DefaultPageSize)
			for i := 0; i < bc.fill; i++ {
				page[i] = byte(i | 1)
			}
			b.SetBytes(int64(len(page)))
			g := wal.NewGroup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset()
				g.AddPageImage("t.idx", uint32(i%64), page, bc.fill, len(page)-bc.fill)
				if _, err := w.AppendGroup(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCatalogReopen measures the cost of executor.Open over an
// existing database: write-ahead-log scan, system-catalog load, and
// schema reattachment (heap + index opens) — the whole "rediscover
// everything with zero re-declaration" path. Planner statistics are
// collected lazily on first use, so they are deliberately outside the
// measurement.
func BenchmarkCatalogReopen(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(Options{Dir: dir, WAL: true})
	if err != nil {
		b.Fatal(err)
	}
	db.MustExec(`CREATE TABLE word_data (name VARCHAR, id INT)`)
	db.MustExec(`CREATE INDEX wd_trie ON word_data USING spgist (name spgist_trie)`)
	db.MustExec(`CREATE TABLE pts (p POINT, id INT)`)
	db.MustExec(`CREATE INDEX pts_kd ON pts USING spgist (p spgist_kdtree)`)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO word_data VALUES ('w%06d', %d)`, rng.Intn(1000000), i))
		db.MustExec(fmt.Sprintf(`INSERT INTO pts VALUES ('(%g,%g)', %d)`, rng.Float64()*100, rng.Float64()*100, i))
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(Options{Dir: dir, WAL: true})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(db.Engine().Tables()); got != 2 {
			b.Fatalf("rediscovered %d tables", got)
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFirstPlanAfterReopen measures the cost of the *first*
// predicate plan a fresh session makes — the path persisted statistics
// exist for. With persisted statistics (ANALYZE ran before the close)
// planning is O(catalog): the statistics load with the schema and no
// heap page is read. Without them the session falls back to the lazy
// sampling pass, which reads the heap — the O(rows) cost this
// benchmark exists to show eliminated.
func BenchmarkFirstPlanAfterReopen(b *testing.B) {
	setup := func(b *testing.B, analyze bool) string {
		dir := b.TempDir()
		db, err := Open(Options{Dir: dir, WAL: true})
		if err != nil {
			b.Fatal(err)
		}
		db.MustExec(`CREATE TABLE word_data (name VARCHAR, id INT)`)
		db.MustExec(`CREATE INDEX wd_trie ON word_data USING spgist (name spgist_trie)`)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO word_data VALUES ('w%06d', %d)`, rng.Intn(1000000), i))
		}
		if analyze {
			db.MustExec(`ANALYZE word_data`)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, bc := range []struct {
		name    string
		analyze bool
	}{{"persisted-stats", true}, {"lazy-sample", false}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := setup(b, bc.analyze)
			b.ResetTimer()
			b.StopTimer() // only the EXPLAIN below is timed, not open/close
			for i := 0; i < b.N; i++ {
				db, err := Open(Options{Dir: dir, WAL: true})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := db.Exec(`EXPLAIN SELECT * FROM word_data WHERE name = 'w000042'`)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if res.Plan == "" {
					b.Fatal("no plan")
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
