package executor_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
)

// Concurrency benchmarks: the scaling targets of the concurrent read
// path. Each concurrent benchmark has a sequential twin with an
// identical per-operation body, so
//
//	go test -bench 'ExactMatch|MixedReadWrite|RangeScan' -cpu 1,4,8 ./internal/executor
//
// shows directly whether aggregate read throughput scales with
// GOMAXPROCS (ns/op in a RunParallel benchmark is wall-clock divided by
// total operations — flat ns/op across -cpu counts means linear
// scaling).

const benchRows = 20000

var concBench struct {
	once sync.Once
	db   *executor.DB
	tb   *executor.Table
}

// concBenchTable builds the shared fixture: an in-memory database with
// one word table and a trie index over it.
func concBenchTable(b *testing.B) *executor.Table {
	concBench.once.Do(func() {
		db := executor.OpenMemory()
		tb, err := db.CreateTable("words", []executor.Column{
			{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
		})
		if err != nil {
			panic(err)
		}
		if _, err := db.CreateIndex("wix", "words", "name", "spgist", "spgist_trie"); err != nil {
			panic(err)
		}
		for i := 0; i < benchRows; i++ {
			if _, err := tb.Insert(catalog.Tuple{
				catalog.NewText(benchWord(i)), catalog.NewInt(int64(i)),
			}); err != nil {
				panic(err)
			}
		}
		if err := tb.Analyze(); err != nil {
			panic(err)
		}
		concBench.db = db
		concBench.tb = tb
	})
	return concBench.tb
}

func benchWord(i int) string { return fmt.Sprintf("word%05d", i) }

// exactMatch runs one indexed exact-match SELECT and returns the row count.
func exactMatch(b *testing.B, tb *executor.Table, i int) {
	pred := &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText(benchWord(i % benchRows))}
	n := 0
	if _, err := tb.Select(pred, func(executor.Row) bool { n++; return true }); err != nil {
		b.Fatal(err)
	}
	if n != 1 {
		b.Fatalf("exact match returned %d rows", n)
	}
}

// rangeScan runs one indexed prefix SELECT (a range scan over the trie).
func rangeScan(b *testing.B, tb *executor.Table, i int) {
	prefix := fmt.Sprintf("word%03d", i%200) // matches 100 rows
	pred := &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)}
	n := 0
	if _, err := tb.Select(pred, func(executor.Row) bool { n++; return true }); err != nil {
		b.Fatal(err)
	}
	if n == 0 {
		b.Fatal("range scan returned nothing")
	}
}

// BenchmarkSequentialExactMatch is the single-goroutine baseline for
// BenchmarkConcurrentExactMatch.
func BenchmarkSequentialExactMatch(b *testing.B) {
	tb := concBenchTable(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactMatch(b, tb, rng.Intn(benchRows))
	}
}

// BenchmarkConcurrentExactMatch drives indexed exact-match SELECTs from
// GOMAXPROCS goroutines over one shared table.
func BenchmarkConcurrentExactMatch(b *testing.B) {
	tb := concBenchTable(b)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			exactMatch(b, tb, rng.Intn(benchRows))
		}
	})
}

// BenchmarkSequentialRangeScan is the single-goroutine baseline for
// BenchmarkConcurrentRangeScan.
func BenchmarkSequentialRangeScan(b *testing.B) {
	tb := concBenchTable(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangeScan(b, tb, rng.Intn(200))
	}
}

// BenchmarkConcurrentRangeScan drives indexed prefix scans (100 rows
// each) from GOMAXPROCS goroutines.
func BenchmarkConcurrentRangeScan(b *testing.B) {
	tb := concBenchTable(b)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			rangeScan(b, tb, rng.Intn(200))
		}
	})
}

// mixedOp runs one operation of the 90/10 read/write mix: mostly
// exact-match SELECTs, every tenth operation an INSERT (which takes the
// exclusive statement lock and maintains the index).
func mixedOp(b *testing.B, tb *executor.Table, rng *rand.Rand, i int, ins *atomic.Int64) {
	if i%10 == 9 {
		id := int64(benchRows) + ins.Add(1)
		if _, err := tb.Insert(catalog.Tuple{
			catalog.NewText(fmt.Sprintf("extra%08d", id)), catalog.NewInt(id),
		}); err != nil {
			b.Fatal(err)
		}
		return
	}
	exactMatch(b, tb, rng.Intn(benchRows))
}

// mixedInserted counts inserts across both mixed benchmarks so repeated
// runs never collide on a key.
var mixedInserted atomic.Int64

// BenchmarkSequentialMixedReadWrite is the single-goroutine baseline for
// BenchmarkConcurrentMixedReadWrite.
func BenchmarkSequentialMixedReadWrite(b *testing.B) {
	tb := concBenchTable(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixedOp(b, tb, rng, i, &mixedInserted)
	}
}

// BenchmarkConcurrentMixedReadWrite drives the 90/10 mix from GOMAXPROCS
// goroutines: readers overlap each other under the shared statement
// lock; the inserts serialize as single writers between them.
func BenchmarkConcurrentMixedReadWrite(b *testing.B) {
	tb := concBenchTable(b)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for i := 0; pb.Next(); i++ {
			mixedOp(b, tb, rng, i, &mixedInserted)
		}
	})
}
