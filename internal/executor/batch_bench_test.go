package executor_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/wal"
)

// Write-path benchmarks: the batched insert pipeline against its
// per-row twin, and concurrent writers on different tables against a
// sequential twin. All run over an on-disk WAL database with durable
// (SyncCommit) commits, because the fsync-per-statement cost is exactly
// what batching and group commit amortize:
//
//	go test -bench 'InsertBatch|InsertPerRow' ./internal/executor
//
// BenchmarkInsertBatch1000 vs BenchmarkInsertPerRow1000 is the batching
// gain (≈ 27× in the README's write-path table). ns/op is per
// *statement*: one batch of N rows for the batched variants, N
// single-row statements for the per-row twins — rows/s is reported for
// direct comparison.

// benchIDs hands out globally unique row IDs so repeated benchmark runs
// within one process never collide.
var benchIDs atomic.Int64

func benchWriteDB(b *testing.B) (*executor.DB, *executor.Table) {
	b.Helper()
	db, err := executor.Open(executor.Options{Dir: b.TempDir(), WAL: true, WALSync: wal.SyncCommit})
	if err != nil {
		b.Fatal(err)
	}
	tb, err := db.CreateTable("words", []executor.Column{
		{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex("wix", "words", "name", "spgist", "spgist_trie"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db, tb
}

func benchTuples(n int) []catalog.Tuple {
	tups := make([]catalog.Tuple, n)
	for i := range tups {
		id := benchIDs.Add(1)
		tups[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("word%08d", id)), catalog.NewInt(id)}
	}
	return tups
}

func benchmarkInsertBatch(b *testing.B, rows int) {
	_, tb := benchWriteDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.InsertBatch(benchTuples(rows)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func benchmarkInsertPerRow(b *testing.B, rows int) {
	_, tb := benchWriteDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tup := range benchTuples(rows) {
			if _, err := tb.Insert(tup); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkInsertBatch1(b *testing.B)    { benchmarkInsertBatch(b, 1) }
func BenchmarkInsertBatch10(b *testing.B)   { benchmarkInsertBatch(b, 10) }
func BenchmarkInsertBatch100(b *testing.B)  { benchmarkInsertBatch(b, 100) }
func BenchmarkInsertBatch1000(b *testing.B) { benchmarkInsertBatch(b, 1000) }

func BenchmarkInsertPerRow1(b *testing.B)    { benchmarkInsertPerRow(b, 1) }
func BenchmarkInsertPerRow10(b *testing.B)   { benchmarkInsertPerRow(b, 10) }
func BenchmarkInsertPerRow100(b *testing.B)  { benchmarkInsertPerRow(b, 100) }
func BenchmarkInsertPerRow1000(b *testing.B) { benchmarkInsertPerRow(b, 1000) }

// concurrentInsertRows is the batch size of the two-table benchmarks.
const concurrentInsertRows = 100

// BenchmarkSequentialInsertTwoTables is the single-goroutine baseline:
// the same batches land in the two tables alternately from one writer.
func BenchmarkSequentialInsertTwoTables(b *testing.B) {
	db, t0 := benchWriteDB(b)
	t1, err := db.CreateTable("words2", []executor.Column{
		{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
	})
	if err != nil {
		b.Fatal(err)
	}
	tables := []*executor.Table{t0, t1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tables[i%2].InsertBatch(benchTuples(concurrentInsertRows)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(concurrentInsertRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkConcurrentInsertTwoTables drives batched inserts into two
// tables from GOMAXPROCS goroutines (each pinned to one table): the
// writers hold different per-table locks, execute concurrently, and
// their commit records share group-commit fsyncs. Against the
// sequential twin this is the scaling proof that the database-wide
// writer lock is gone. (This container is 1-CPU; overlap must be
// measured on multicore hardware, where the old global lock flatlined.)
func BenchmarkConcurrentInsertTwoTables(b *testing.B) {
	db, t0 := benchWriteDB(b)
	t1, err := db.CreateTable("words2", []executor.Column{
		{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
	})
	if err != nil {
		b.Fatal(err)
	}
	tables := []*executor.Table{t0, t1}
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tb := tables[int(gid.Add(1))%2]
		for pb.Next() {
			if _, err := tb.InsertBatch(benchTuples(concurrentInsertRows)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(concurrentInsertRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
