package executor_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestDegradedModeReadOnly: once the write-ahead log dies (here: a
// sticky injected ENOSPC), the database flips read-only. The statement
// that hit the failure reports the real cause; everything after it gets
// a typed *ErrReadOnly; reads keep working; State() reports degraded.
func TestDegradedModeReadOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Crash()
	tb, err := db.CreateTable("t", tortureCols())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(catalog.Tuple{catalog.NewText("alive"), catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if state, _ := db.State(); state != "ok" {
		t.Fatalf("healthy database reports %q", state)
	}

	// The log device fills up.
	db.WAL().InjectFault(fmt.Errorf("wal append: %w", storage.ErrNoSpace))

	// The statement that trips over the dead log reports the storage
	// error itself, not ErrReadOnly.
	_, err = tb.Insert(catalog.Tuple{catalog.NewText("doomed"), catalog.NewInt(2)})
	if !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("first insert after log death: %v, want ENOSPC", err)
	}

	if state, detail := db.State(); state != "degraded" || !strings.Contains(detail, "no space") {
		t.Fatalf("State() = %q/%q, want degraded with cause", state, detail)
	}
	if err := db.Degraded(); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("Degraded() = %v", err)
	}

	// Every later write statement fails fast with the typed error, and
	// the cause stays reachable through errors.Is.
	var ro *executor.ErrReadOnly
	if _, err := tb.Insert(catalog.Tuple{catalog.NewText("x"), catalog.NewInt(3)}); !errors.As(err, &ro) {
		t.Fatalf("insert while degraded: %v, want *ErrReadOnly", err)
	} else if !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("ErrReadOnly does not unwrap to the cause: %v", err)
	}
	if _, err := db.CreateTable("t2", tortureCols()); !errors.As(err, &ro) {
		t.Fatalf("CREATE TABLE while degraded: %v", err)
	}
	if _, err := db.CreateIndex("ix", "t", "name", "spgist", "spgist_trie"); !errors.As(err, &ro) {
		t.Fatalf("CREATE INDEX while degraded: %v", err)
	}
	if err := db.DropTable("t"); !errors.As(err, &ro) {
		t.Fatalf("DROP TABLE while degraded: %v", err)
	}
	if _, err := db.Vacuum("t"); !errors.As(err, &ro) {
		t.Fatalf("VACUUM while degraded: %v", err)
	}
	if err := db.Checkpoint(); !errors.As(err, &ro) {
		t.Fatalf("CHECKPOINT while degraded: %v", err)
	}

	// Reads are unaffected: the committed row is still served.
	got := 0
	if _, err := tb.Select(nil, func(r executor.Row) bool { got++; return true }); err != nil {
		t.Fatalf("select while degraded: %v", err)
	}
	if got != 1 {
		t.Fatalf("select while degraded returned %d rows, want 1", got)
	}
}

// TestCheckpointFailureFlipsDegraded: a log that dies during CHECKPOINT
// must flip degraded mode immediately — not at whatever later DML first
// trips the sticky writer error — so health checks see the truth.
func TestCheckpointFailureFlipsDegraded(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Crash()
	tb, err := db.CreateTable("t", tortureCols())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(catalog.Tuple{catalog.NewText("row"), catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	db.WAL().InjectFault(fmt.Errorf("wal append: %w", storage.ErrNoSpace))
	if err := db.Checkpoint(); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("checkpoint on dead log: %v, want ENOSPC", err)
	}
	if state, _ := db.State(); state != "degraded" {
		t.Fatalf("state after failed checkpoint = %q, want degraded", state)
	}
}

// TestDegradedRollbackReleasesLocks: a transaction opened before the
// log died must still be able to roll back — its undo appends fail, but
// every table lock is released, so the session (and the next reader)
// is not wedged behind a zombie transaction.
func TestDegradedRollbackReleasesLocks(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Crash()
	tb, err := db.CreateTable("t", tortureCols())
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertTx(tx, catalog.Tuple{catalog.NewText("w"), catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	db.WAL().InjectFault(fmt.Errorf("wal append: %w", storage.ErrNoSpace))
	// Rollback may report the log failure, but it must finish and
	// release the table's write lock.
	tx.Rollback()
	done := make(chan error, 1)
	go func() {
		_, err := tb.Select(nil, func(executor.Row) bool { return true })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("select after degraded rollback: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader wedged behind rolled-back transaction")
	}
}

// TestScrubReportsBitFlip: a single flipped bit in a flushed,
// checkpointed page of any relation file — a heap page, a data page of a
// trie, a B+-tree or an R-tree index, a page 0 — is (a) reported by SCRUB
// with the file and page, (b) never served to a query — the scan fails
// with ErrPageCorrupt instead of returning poisoned rows, VACUUM fails
// with it too, and a file whose page 0 is damaged is refused at open — and
// (c) not a reason to degrade: read-side corruption is per-page, the
// database stays writable elsewhere.
func TestScrubReportsBitFlip(t *testing.T) {
	textKey := func(i int) catalog.Datum { return catalog.NewText(fmt.Sprintf("word%03d", i)) }
	pointKey := func(i int) catalog.Datum { return catalog.NewPoint(geom.Point{X: float64(i), Y: float64(i % 7)}) }
	cases := []struct {
		name   string
		key    func(i int) catalog.Datum
		method string // "" for no index: the flip goes into the heap
		page   int
		pred   executor.Pred
	}{
		{"heap page", textKey, "", 1, executor.Pred{}},
		{"trie page", textKey, "spgist", 1, executor.Pred{Op: "=", Arg: textKey(7)}},
		{"btree page", textKey, "btree", 1, executor.Pred{Op: "=", Arg: textKey(7)}},
		{"rtree page", pointKey, "rtree", 1, executor.Pred{Op: "@", Arg: pointKey(7)}},
		{"heap page 0", textKey, "", 0, executor.Pred{}},
		{"trie page 0", textKey, "spgist", 0, executor.Pred{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit}
			db, err := executor.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := db.CreateTable("t", []executor.Column{{Name: "k", Type: c.key(0).Typ}, {Name: "id", Type: catalog.Int}})
			if err != nil {
				t.Fatal(err)
			}
			file := tb.File()
			if c.method != "" {
				ix, err := db.CreateIndex("t_k", "t", "k", c.method, "")
				if err != nil {
					t.Fatal(err)
				}
				file = ix.File()
			}
			for i := 0; i < 50; i++ {
				if _, err := tb.Insert(catalog.Tuple{c.key(i), catalog.NewInt(int64(i))}); err != nil {
					t.Fatal(err)
				}
			}

			// A clean scrub first: every page verifies.
			res, err := db.Scrub("")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Issues) != 0 || res.PagesChecked == 0 || res.FilesChecked == 0 {
				t.Fatalf("clean scrub: %+v", res)
			}

			// Checkpoint so the WAL holds nothing replayable (recovery must
			// not quietly repair the flip we are about to make). A data page
			// is flipped under a closed database, so that the reopened one
			// has to read it; a page 0 under the open one, which could not
			// open over it.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			flip := func() {
				t.Helper()
				path := filepath.Join(dir, file)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[c.page*storage.DefaultPageSize+100] ^= 0x04
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if c.page == 0 {
				flip()
			} else {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				flip()
				if db, err = executor.Open(opts); err != nil {
					t.Fatal(err)
				}
			}

			// SCRUB names the file and the page.
			res, err = db.Scrub("t")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Issues) != 1 {
				t.Fatalf("scrub found %d issues, want 1: %+v", len(res.Issues), res.Issues)
			}
			is := res.Issues[0]
			if is.File != file || int(is.Page) != c.page {
				t.Fatalf("scrub reported %s page %d, want %s page %d", is.File, is.Page, file, c.page)
			}
			if !storage.IsPageCorrupt(is.Err) {
				t.Fatalf("scrub issue error = %v, want page corrupt", is.Err)
			}

			if c.page == 0 {
				// The open database holds a good copy of the page; the next
				// one to read it from disk is refused.
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := executor.Open(opts); !storage.IsPageCorrupt(err) {
					t.Fatalf("open over a corrupt page 0: %v, want page corrupt", err)
				}
				return
			}
			defer db.Close()

			// The corrupt page is never served: the scan fails, it does not
			// return rows.
			if tb, err = db.Table("t"); err != nil {
				t.Fatal(err)
			}
			rows := 0
			count := func(executor.Row) bool { rows++; return true }
			if c.method == "" {
				_, err = tb.Select(nil, count)
			} else {
				err = tb.SelectIndexed(tb.Indexes[0], &c.pred, count)
			}
			if !storage.IsPageCorrupt(err) || rows != 0 {
				t.Fatalf("scan over the corrupt page: %d rows and %v, want none and page corrupt", rows, err)
			}
			// VACUUM reads every page of the heap and of each index, so it
			// fails on the corrupt page rather than leave entries behind.
			if c.method != "" {
				if _, err := tb.DeleteWhere(&executor.Pred{Column: 1, Op: "=", Arg: catalog.NewInt(3)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Vacuum("t"); !storage.IsPageCorrupt(err) {
				t.Fatalf("VACUUM over the corrupt page: %v, want page corrupt", err)
			}

			// Corruption is not degradation: the database is still writable.
			if state, _ := db.State(); state != "ok" {
				t.Fatalf("read-side corruption degraded the database: %q", state)
			}
			if _, err := db.CreateTable("t2", tortureCols()); err != nil {
				t.Fatalf("CREATE TABLE after corruption report: %v", err)
			}
		})
	}
}

// TestTornPageRecovery: a page torn at crash (its tail garbage, its
// header intact — what a power cut mid-write leaves) fails its checksum
// at redo; recovery reinitializes it and rebuilds its contents from the
// log's full record trail. Every committed row survives.
func TestTornPageRecovery(t *testing.T) {
	dir := t.TempDir()
	// A tiny pool forces evictions, so data pages reach disk during the
	// workload while every record since file creation stays in the
	// un-checkpointed log.
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 8, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", tortureCols())
	if err != nil {
		t.Fatal(err)
	}
	const rows = 4000
	for base := 0; base < rows; base += 200 {
		tups := make([]catalog.Tuple, 0, 200)
		for i := base; i < base+200; i++ {
			tups = append(tups, catalog.Tuple{catalog.NewText(fmt.Sprintf("word%04d", i)), catalog.NewInt(int64(i))})
		}
		if _, err := tb.InsertBatch(tups); err != nil {
			t.Fatal(err)
		}
	}
	heapFile := tb.File()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// Tear every flushed data page: keep the first half (header and
	// early slots land), trash the second half — the on-disk state of a
	// write the crash interrupted.
	path := filepath.Join(dir, heapFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ps := storage.DefaultPageSize
	torn := 0
	for p := 1; (p+1)*ps <= len(raw); p++ {
		page := raw[p*ps : (p+1)*ps]
		if _, _, ok := storage.VerifyPageChecksum(page); !ok {
			t.Fatalf("page %d already corrupt before tearing", p)
		}
		for i := ps / 2; i < ps; i++ {
			page[i] = 0xEE
		}
		torn++
	}
	if torn == 0 {
		t.Fatal("no data pages reached disk; raise the row count")
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 8, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rs := db.RecoveryStats()
	if rs.TornPages == 0 || rs.TornRepaired != rs.TornPages {
		t.Fatalf("recovery stats: torn=%d repaired=%d, want >0 and equal", rs.TornPages, rs.TornRepaired)
	}

	tb, err = db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	if _, err := tb.Select(nil, func(r executor.Row) bool {
		got[r.Tuple[0].S] = true
		return true
	}); err != nil {
		t.Fatalf("scan after torn-page recovery: %v", err)
	}
	if len(got) != rows {
		t.Fatalf("%d rows after torn-page recovery, want %d", len(got), rows)
	}
	// And the repaired pages verify again.
	res, err := db.Scrub("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Issues) != 0 {
		t.Fatalf("scrub after repair: %+v", res.Issues)
	}
}

// TestTornPageAfterCheckpointRecovery: a checkpoint recycles the log
// segments holding a page's history, so repairing that page torn means
// replay must have a full image of it. The first post-checkpoint touch
// of a page ships one (Postgres-style full-page write); without it,
// recovery would reinitialize the page and silently restore only the
// post-checkpoint records — here, 1 row instead of 51.
func TestTornPageAfterCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", tortureCols())
	if err != nil {
		t.Fatal(err)
	}
	const oldRows = 50
	for i := 0; i < oldRows; i++ {
		if _, err := tb.Insert(catalog.Tuple{catalog.NewText(fmt.Sprintf("word%03d", i)), catalog.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	heapFile := tb.File()
	// Checkpoint and close: the old rows' insert records are gone from
	// the log; page 1 on disk is their only copy.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (the writer re-derives the checkpoint horizon from the
	// surviving segments) and insert one straggler onto the same page.
	db, err = executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	tb, err = db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(catalog.Tuple{catalog.NewText("straggler"), catalog.NewInt(oldRows)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// Tear page 1: header half lands, tail is garbage — the write the
	// crash interrupted.
	path := filepath.Join(dir, heapFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ps := storage.DefaultPageSize
	if len(raw) < 2*ps {
		t.Fatal("page 1 never reached disk")
	}
	for i := ps + ps/2; i < 2*ps; i++ {
		raw[i] = 0xEE
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rs := db.RecoveryStats()
	if rs.TornPages == 0 || rs.TornRepaired != rs.TornPages {
		t.Fatalf("recovery stats: torn=%d repaired=%d, want >0 and equal", rs.TornPages, rs.TornRepaired)
	}

	// Every row survives — the 50 whose records the checkpoint
	// recycled, and the straggler.
	tb, err = db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	if _, err := tb.Select(nil, func(r executor.Row) bool {
		got[r.Tuple[0].S] = true
		return true
	}); err != nil {
		t.Fatalf("scan after post-checkpoint torn-page recovery: %v", err)
	}
	if len(got) != oldRows+1 {
		t.Fatalf("%d rows after recovery, want %d", len(got), oldRows+1)
	}
	if !got["straggler"] || !got["word000"] {
		t.Fatalf("missing rows after recovery: straggler=%v word000=%v", got["straggler"], got["word000"])
	}
	res, err := db.Scrub("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Issues) != 0 {
		t.Fatalf("scrub after repair: %+v", res.Issues)
	}
}

// TestIOErrorTorture: the randomized I/O torture suite. A seeded
// workload (inserts, deletes, updates, scans, explicit transactions)
// runs with every data file wrapped in a FaultDiskManager injecting
// transient read errors at p=0.01. Statement errors caused by injection
// are legal — each statement is atomic, so the model simply skips it —
// but anything else fails the run. Periodically the database crashes;
// after the first crash one flushed heap page is torn. Every recovery
// is model-checked, and at the end the process must be free of wedged
// goroutines.
func TestIOErrorTorture(t *testing.T) {
	const seed = 20260808
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	model := &tortureModel{tables: map[string]*modelTable{}}
	baseline := runtime.NumGoroutine()

	var fmu sync.Mutex
	var fdms []*storage.FaultDiskManager
	wrapped := 0
	diskFaults := func(fileName string, dm storage.DiskManager) storage.DiskManager {
		fmu.Lock()
		defer fmu.Unlock()
		wrapped++
		f := storage.WithFaults(dm, seed+int64(wrapped))
		f.SetProb(storage.FaultRead, 0.02)
		fdms = append(fdms, f)
		return f
	}
	open := func() *executor.DB {
		db, err := executor.Open(executor.Options{
			Dir: dir, WAL: true, PoolPages: 16, WALSync: wal.SyncCommit,
			DiskFaults: diskFaults,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	// injected reports whether a statement error is fault fallout —
	// the retries exhausted on an injected error, or a cascade from
	// one — rather than an engine bug.
	injected := func(err error) bool {
		return errors.Is(err, storage.ErrInjectedIO) || errors.Is(err, storage.ErrShortRead)
	}

	db := open()
	defer func() {
		if db != nil {
			db.Crash()
		}
	}()
	if _, err := db.CreateTable("t0", tortureCols()); err != nil {
		t.Fatal(err)
	}
	mt := &modelTable{rows: map[string]int{}, indexes: map[string]string{}, statsRows: -1}
	model.tables["t0"] = mt
	if _, err := db.CreateIndex("ix0", "t0", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	mt.indexes["ix0"] = "spgist_trie"

	toreOnce := false
	steps := 300
	if testing.Short() {
		steps = 120
	}
	for step := 0; step < steps; step++ {
		tb, err := db.Table("t0")
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		switch op := rng.Intn(10); {
		case op < 4: // batch insert
			n := 1 + rng.Intn(40)
			tups := make([]catalog.Tuple, 0, n)
			keys := make([]string, 0, n)
			for i := 0; i < n; i++ {
				word := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
				id := mt.nextID
				mt.nextID++
				tups = append(tups, catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(id))})
				keys = append(keys, fmt.Sprintf("%s|%d", word, id))
			}
			if _, err := tb.InsertBatch(tups); err != nil {
				if injected(err) {
					continue // atomic statement: nothing applied
				}
				t.Fatalf("step %d: insert batch: %v", step, err)
			}
			for _, k := range keys {
				mt.rows[k]++
			}
		case op == 4: // delete prefix
			prefix := fmt.Sprintf("w%c", 'a'+rng.Intn(6))
			if _, err := tb.DeleteWhere(&executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)}); err != nil {
				if injected(err) {
					continue
				}
				t.Fatalf("step %d: delete: %v", step, err)
			}
			modelDeletePrefix(mt.rows, prefix)
		case op == 5: // update prefix
			prefix := fmt.Sprintf("w%c", 'a'+rng.Intn(6))
			newWord := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
			if _, err := tb.UpdateWhere(&executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)},
				[]executor.ColUpdate{{Column: 0, Value: catalog.NewText(newWord)}}); err != nil {
				if injected(err) {
					continue
				}
				t.Fatalf("step %d: update: %v", step, err)
			}
			modelUpdatePrefix(mt.rows, prefix, newWord)
		case op == 6 || op == 7: // scans, planner and forced-index
			pred := &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(fmt.Sprintf("w%c", 'a'+rng.Intn(6)))}
			if _, err := tb.Select(pred, func(executor.Row) bool { return true }); err != nil && !injected(err) {
				t.Fatalf("step %d: select: %v", step, err)
			}
			for _, ix := range tb.Indexes {
				if err := tb.SelectIndexed(ix, pred, func(executor.Row) bool { return true }); err != nil && !injected(err) {
					t.Fatalf("step %d: index scan: %v", step, err)
				}
			}
		case op == 8: // explicit transaction, commit or rollback
			tx, err := db.Begin()
			if err != nil {
				t.Fatalf("step %d: begin: %v", step, err)
			}
			staged := make(map[string]int, len(mt.rows))
			for k, c := range mt.rows {
				staged[k] = c
			}
			aborted := false
			for s, nStmt := 0, 1+rng.Intn(2); s < nStmt; s++ {
				word := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
				id := mt.nextID
				mt.nextID++
				if _, err := tb.InsertTx(tx, catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(id))}); err != nil {
					if injected(err) {
						// One failed statement poisons nothing else:
						// roll the block back and move on.
						tx.Rollback()
						aborted = true
						break
					}
					t.Fatalf("step %d: txn insert: %v", step, err)
				}
				staged[fmt.Sprintf("%s|%d", word, id)]++
			}
			if aborted {
				continue
			}
			if rng.Intn(4) == 0 {
				if err := tx.Rollback(); err != nil && !injected(err) {
					t.Fatalf("step %d: rollback: %v", step, err)
				}
			} else {
				if err := tx.Commit(); err != nil {
					if injected(err) {
						continue // commit never reached the log: nothing applied
					}
					t.Fatalf("step %d: commit: %v", step, err)
				}
				mt.rows = staged
			}
		case op == 9 && step > 30 && rng.Intn(3) == 0: // crash, maybe tear, recover, model-check
			heapFile := tb.File()
			if err := db.Crash(); err != nil {
				t.Fatalf("step %d: crash: %v", step, err)
			}
			db = nil
			if !toreOnce {
				// Tear one flushed heap page: its tail is garbage, its
				// records are all still in the never-checkpointed log.
				path := filepath.Join(dir, heapFile)
				if raw, err := os.ReadFile(path); err == nil && len(raw) >= 2*storage.DefaultPageSize {
					ps := storage.DefaultPageSize
					for i := ps + ps/2; i < 2*ps; i++ {
						raw[i] = 0xEE
					}
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
					toreOnce = true
				}
			}
			verifyTorture(t, dir, model)
			db = open()
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	db = nil
	verifyTorture(t, dir, model)

	// Injection actually happened, or the whole run proved nothing.
	fmu.Lock()
	var total storage.FaultCounters
	for _, f := range fdms {
		c := f.Counters()
		total.Transient += c.Transient
	}
	fmu.Unlock()
	if total.Transient == 0 {
		t.Fatal("torture run injected zero faults")
	}
	if !toreOnce {
		t.Log("no crash cycle flushed a data page; torn-page path exercised by TestTornPageRecovery")
	}

	// No wedged goroutines: everything the engine started must wind
	// down after Close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines wedged after close: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
