package executor_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
)

// MVCC concurrency benchmarks: snapshot readers against
// writers on the SAME table. Before MVCC the engine had nothing to
// measure here — a SELECT against a table with an open writer simply
// blocked on the table lock. Now readers take a snapshot and scan live
// pages while a writer's uncommitted versions sit next to the rows they
// read, so the interesting numbers are (a) how much an idle open
// transaction's invisible versions cost a reader, and (b) aggregate
// read throughput while a writer commits insert batches nonstop.

const mvccBenchRows = 20000

// mvccBenchDB builds a fresh word table with a trie index and
// mvccBenchRows committed rows. Not a shared fixture: the open-txn and
// live-writer benchmarks mutate the table, so each benchmark gets its
// own database.
func mvccBenchDB(b *testing.B) (*executor.DB, *executor.Table) {
	b.Helper()
	db := executor.OpenMemory()
	tb, err := db.CreateTable("words", []executor.Column{
		{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex("wix", "words", "name", "spgist", "spgist_trie"); err != nil {
		b.Fatal(err)
	}
	tups := make([]catalog.Tuple, mvccBenchRows)
	for i := range tups {
		tups[i] = catalog.Tuple{catalog.NewText(benchWord(i)), catalog.NewInt(int64(i))}
	}
	if _, err := tb.InsertBatch(tups); err != nil {
		b.Fatal(err)
	}
	if err := tb.Analyze(); err != nil {
		b.Fatal(err)
	}
	return db, tb
}

// mvccExact runs one exact-match SELECT expecting exactly one visible row.
func mvccExact(b *testing.B, tb *executor.Table, i int) {
	pred := &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText(benchWord(i % mvccBenchRows))}
	n := 0
	if _, err := tb.Select(pred, func(executor.Row) bool { n++; return true }); err != nil {
		b.Fatal(err)
	}
	if n != 1 {
		b.Fatalf("exact match returned %d rows", n)
	}
}

// BenchmarkMVCCReadBaseline: concurrent exact-match reads with no
// writer anywhere — the number the two contended benchmarks below are
// judged against.
func BenchmarkMVCCReadBaseline(b *testing.B) {
	db, tb := mvccBenchDB(b)
	defer db.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mvccExact(b, tb, i)
			i++
		}
	})
}

// BenchmarkMVCCReadDuringOpenTxn: same reads while an open transaction
// holds the table's write lock with 2000 uncommitted rows in the heap.
// Readers never touch the lock; the delta against the baseline is the
// pure visibility-filtering cost of skipping invisible versions.
func BenchmarkMVCCReadDuringOpenTxn(b *testing.B) {
	db, tb := mvccBenchDB(b)
	defer db.Close()
	tx, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	pending := make([]catalog.Tuple, 2000)
	for i := range pending {
		pending[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("pend%05d", i)), catalog.NewInt(int64(i))}
	}
	if _, err := tb.InsertBatchTx(tx, pending); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mvccExact(b, tb, i)
			i++
		}
	})
	b.StopTimer()
	if err := tx.Rollback(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMVCCReadVsLiveInserts: aggregate read throughput while one
// background writer streams 100-row insert batches into the same table
// at a bounded pace (1ms between batches — an unthrottled in-memory
// writer would hold the page latch nearly continuously and the result
// would measure latch starvation, not MVCC read cost). The pre-MVCC
// engine serialized these readers behind the writer's table lock; now
// only the page latch is shared, per chunk.
func BenchmarkMVCCReadVsLiveInserts(b *testing.B) {
	db, tb := mvccBenchDB(b)
	defer db.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			batch := make([]catalog.Tuple, 100)
			for i := range batch {
				batch[i] = catalog.Tuple{catalog.NewText(fmt.Sprintf("ins%07d", n)), catalog.NewInt(int64(n))}
				n++
			}
			if _, err := tb.InsertBatch(batch); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mvccExact(b, tb, i)
			i++
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkMVCCUpdateThroughput: full-cycle single-row UPDATE
// statements (snapshot qualify, stamp old version, insert successor,
// maintain the index), rows/s reported. Every 2000 updates a VACUUM
// runs inside the timed loop — the autovacuum half of the steady-state
// cost. Without it the dead versions overrun the buffer pool after
// ~8000 updates and the benchmark measures eviction thrash instead.
func BenchmarkMVCCUpdateThroughput(b *testing.B) {
	db, tb := mvccBenchDB(b)
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := &executor.Pred{Column: 0, Op: "=", Arg: catalog.NewText(benchWord(i % mvccBenchRows))}
		n, err := tb.UpdateWhere(pred, []executor.ColUpdate{{Column: 1, Value: catalog.NewInt(int64(i))}})
		if err != nil {
			b.Fatal(err)
		}
		if n != 1 {
			b.Fatalf("updated %d rows", n)
		}
		if (i+1)%2000 == 0 {
			if _, err := db.Vacuum("words"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
