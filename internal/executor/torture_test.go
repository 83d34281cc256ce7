package executor_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/heap"
	"repro/internal/wal"
)

// Randomized crash-recovery torture: a seeded random DDL/DML/ANALYZE
// workload runs against a WAL-backed database while a fault arming
// mechanism (Options.Faults) injects a crash at a random upcoming
// statement commit point or index-build step. After every crash the
// database reopens and the full on-disk state — catalog, heap contents,
// index contents, statistics, data files — is checked against an
// in-memory model that applies crash semantics:
//
//   - a statement crashed before its commit marker left nothing behind
//     (CREATE/DROP TABLE and INDEX, ANALYZE);
//   - statistics are whole: either the pre-crash record or the new one,
//     with exactly the row count the model predicts — never torn;
//   - no ghost records, no partial index files, no orphaned data files;
//   - a statement (INSERT batch, DELETE, UPDATE) that crashed at its
//     commit point — or at a chunk boundary mid-statement — applies
//     NOTHING: recovery's abort fixup hides every version its xid wrote;
//   - an explicit BEGIN...COMMIT block is all-or-nothing across all its
//     statements: a crash or ROLLBACK anywhere inside leaves the state
//     exactly as it was before BEGIN.

var errTortureCrash = errors.New("torture: injected crash")

// tortureArm decides when the next injected fault fires. Guarded by a
// mutex because index-build hooks run inside the engine.
type tortureArm struct {
	mu        sync.Mutex
	countdown int // hook invocations until the fault fires; <0 = disarmed
}

func (a *tortureArm) hook() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.countdown < 0 {
		return nil
	}
	if a.countdown == 0 {
		a.countdown = -1
		return errTortureCrash
	}
	a.countdown--
	return nil
}

type modelTable struct {
	rows      map[string]int    // "name|id" multiset
	indexes   map[string]string // index name -> opclass
	statsRows int64             // expected persisted stats row count; -1 = absent
	nextID    int
}

type tortureModel struct {
	tables map[string]*modelTable
	nextIx int
}

func tortureCols() []executor.Column {
	return []executor.Column{{Name: "name", Type: catalog.Text}, {Name: "id", Type: catalog.Int}}
}

// modelDeletePrefix mirrors DELETE WHERE name #= prefix on a model
// multiset (keys are "name|id", so a name prefix is a key prefix).
func modelDeletePrefix(rows map[string]int, prefix string) {
	for k := range rows {
		if strings.HasPrefix(k, prefix) {
			delete(rows, k)
		}
	}
}

// modelUpdatePrefix mirrors UPDATE SET name = newWord WHERE name #=
// prefix: matching is decided against the statement's snapshot first,
// then every matched key is rewritten — so a newWord that itself bears
// the prefix is not re-matched, same as the engine.
func modelUpdatePrefix(rows map[string]int, prefix, newWord string) {
	var matched []string
	for k := range rows {
		if strings.HasPrefix(k, prefix) {
			matched = append(matched, k)
		}
	}
	for _, k := range matched {
		c := rows[k]
		delete(rows, k)
		rows[newWord+k[strings.LastIndex(k, "|"):]] += c
	}
}

// verifyTorture opens the database cleanly and checks every consistency
// property against the model, then closes it again.
func verifyTorture(t *testing.T, dir string, model *tortureModel) {
	t.Helper()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16, WALSync: wal.SyncCommit})
	if err != nil {
		t.Fatalf("verify open: %v", err)
	}
	defer db.Close()
	cat := db.Catalog()

	// Catalog table set matches the model.
	var gotTables []string
	for _, te := range cat.Tables() {
		gotTables = append(gotTables, te.Name)
	}
	var wantTables []string
	for name := range model.tables {
		wantTables = append(wantTables, name)
	}
	sort.Strings(gotTables)
	sort.Strings(wantTables)
	if strings.Join(gotTables, ",") != strings.Join(wantTables, ",") {
		t.Fatalf("tables diverged: got %v want %v", gotTables, wantTables)
	}

	// Catalog index set matches, and every surviving index is valid —
	// a partial build must never be visible after recovery.
	wantIx := map[string]bool{}
	for _, mt := range model.tables {
		for ix := range mt.indexes {
			wantIx[ix] = true
		}
	}
	for _, ie := range cat.Indexes() {
		if !wantIx[ie.Name] {
			t.Fatalf("ghost index %q in catalog", ie.Name)
		}
		delete(wantIx, ie.Name)
	}
	for ix := range wantIx {
		t.Fatalf("index %q lost", ix)
	}

	knownFiles := map[string]bool{}
	for name, mt := range model.tables {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatalf("table %q: %v", name, err)
		}
		knownFiles[tb.File()] = true

		// Heap contents match the model multiset.
		got := map[string]int{}
		if _, err := tb.Select(nil, func(r executor.Row) bool {
			got[r.Tuple[0].S+"|"+r.Tuple[1].String()]++
			return true
		}); err != nil {
			t.Fatalf("scan %q: %v", name, err)
		}
		if len(got) != len(mt.rows) {
			t.Fatalf("table %q: %d distinct rows, want %d", name, len(got), len(mt.rows))
		}
		for k, c := range mt.rows {
			if got[k] != c {
				t.Fatalf("table %q row %q: count %d, want %d", name, k, got[k], c)
			}
		}

		// Every index answers exactly the heap's rows (all names start
		// with "w", so the prefix scan is total).
		for _, ix := range tb.Indexes {
			knownFiles[ix.File()] = true
			if _, want := mt.indexes[ix.Name]; !want {
				t.Fatalf("table %q: ghost attached index %q", name, ix.Name)
			}
			idxGot := map[string]int{}
			err := tb.SelectIndexed(ix, &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText("w")}, func(r executor.Row) bool {
				idxGot[r.Tuple[0].S+"|"+r.Tuple[1].String()]++
				return true
			})
			if err != nil {
				t.Fatalf("index scan %q: %v", ix.Name, err)
			}
			for k, c := range mt.rows {
				if idxGot[k] != c {
					t.Fatalf("index %q row %q: count %d, want %d", ix.Name, k, idxGot[k], c)
				}
			}
			if len(idxGot) != len(mt.rows) {
				t.Fatalf("index %q: %d distinct rows, want %d", ix.Name, len(idxGot), len(mt.rows))
			}
		}
		if na, nc := len(tb.Indexes), len(mt.indexes); na != nc {
			t.Fatalf("table %q: %d attached indexes, want %d", name, na, nc)
		}

		// Statistics: present exactly when the model says, with exactly
		// the committed row count — old or new, never torn.
		st, ok := cat.GetStats(tb.OID())
		if mt.statsRows < 0 {
			if ok {
				t.Fatalf("table %q: ghost statistics record (rows=%d)", name, st.Rows)
			}
		} else {
			if !ok {
				t.Fatalf("table %q: statistics record lost (want rows=%d)", name, mt.statsRows)
			}
			if st.Rows != mt.statsRows {
				t.Fatalf("table %q: stats rows=%d, want %d (torn or stale commit)", name, st.Rows, mt.statsRows)
			}
		}
	}

	// No orphaned relation files survive recovery.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		n := e.Name()
		if !strings.HasSuffix(n, ".tbl") && !strings.HasSuffix(n, ".idx") && !strings.HasSuffix(n, ".build") {
			continue
		}
		if !knownFiles[n] {
			t.Fatalf("orphan relation file %s survived recovery", n)
		}
	}
}

// runTorture drives one seeded workload of `steps` operations.
func runTorture(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	model := &tortureModel{tables: map[string]*modelTable{}}

	arm := &tortureArm{countdown: -1}
	faults := executor.FaultInjection{
		BeforeDDLCommit:  func(string) error { return arm.hook() },
		DuringIndexBuild: func(int) error { return arm.hook() },
		BeforeDMLCommit:  func(string) error { return arm.hook() },
		BetweenDMLChunks: func(string, int) error { return arm.hook() },
	}
	open := func() *executor.DB {
		db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 16, WALSync: wal.SyncCommit, Faults: faults})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		return db
	}
	db := open()
	defer func() {
		if db != nil {
			db.Crash()
		}
	}()

	// crashed handles an injected fault: crash, verify, reopen.
	crashed := func(step int) {
		if err := db.Crash(); err != nil {
			t.Fatalf("seed %d step %d: crash: %v", seed, step, err)
		}
		verifyTorture(t, dir, model)
		arm.mu.Lock()
		arm.countdown = -1
		arm.mu.Unlock()
		db = open()
	}

	tableNames := []string{"t0", "t1", "t2"}
	opclasses := []string{"spgist_trie", "btree_text"}

	for step := 0; step < steps; step++ {
		// Arm a crash for one of the next few commit points / build steps.
		if rng.Intn(3) != 0 {
			arm.mu.Lock()
			if arm.countdown < 0 {
				arm.countdown = rng.Intn(3)
			}
			arm.mu.Unlock()
		}
		var live []string
		for n := range model.tables {
			live = append(live, n)
		}
		sort.Strings(live)

		switch op := rng.Intn(12); {
		case op == 0 && len(live) < len(tableNames): // CREATE TABLE
			var name string
			for _, n := range tableNames {
				if _, ok := model.tables[n]; !ok {
					name = n
					break
				}
			}
			_, err := db.CreateTable(name, tortureCols())
			if errors.Is(err, errTortureCrash) {
				crashed(step)
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: create table: %v", seed, step, err)
			}
			model.tables[name] = &modelTable{rows: map[string]int{}, indexes: map[string]string{}, statsRows: -1}

		case op == 1 && len(live) > 0: // DROP TABLE
			name := live[rng.Intn(len(live))]
			err := db.DropTable(name)
			if errors.Is(err, errTortureCrash) {
				crashed(step)
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: drop table: %v", seed, step, err)
			}
			delete(model.tables, name)

		case op == 2 && len(live) > 0: // CREATE INDEX
			name := live[rng.Intn(len(live))]
			mt := model.tables[name]
			if len(mt.indexes) >= 2 {
				continue
			}
			ixName := fmt.Sprintf("ix%d", model.nextIx)
			model.nextIx++
			oc := opclasses[rng.Intn(len(opclasses))]
			method := "spgist"
			if oc == "btree_text" {
				method = "btree"
			}
			_, err := db.CreateIndex(ixName, name, "name", method, oc)
			if errors.Is(err, errTortureCrash) {
				crashed(step)
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: create index: %v", seed, step, err)
			}
			mt.indexes[ixName] = oc

		case op == 3 && len(live) > 0: // DROP INDEX
			name := live[rng.Intn(len(live))]
			mt := model.tables[name]
			if len(mt.indexes) == 0 {
				continue
			}
			var ixs []string
			for ix := range mt.indexes {
				ixs = append(ixs, ix)
			}
			sort.Strings(ixs)
			ix := ixs[rng.Intn(len(ixs))]
			err := db.DropIndex(ix)
			if errors.Is(err, errTortureCrash) {
				crashed(step)
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: drop index: %v", seed, step, err)
			}
			delete(mt.indexes, ix)

		case op == 4 && len(live) > 0: // ANALYZE
			name := live[rng.Intn(len(live))]
			mt := model.tables[name]
			tb, err := db.Table(name)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			err = tb.Analyze()
			if errors.Is(err, errTortureCrash) {
				crashed(step) // stats stay exactly as they were
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: analyze: %v", seed, step, err)
			}
			total := 0
			for _, c := range mt.rows {
				total += c
			}
			mt.statsRows = int64(total)

		case op == 5 && len(live) > 0: // CHECKPOINT
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("seed %d step %d: checkpoint: %v", seed, step, err)
			}

		case op == 6: // clean close + reopen
			if err := db.Close(); err != nil {
				t.Fatalf("seed %d step %d: close: %v", seed, step, err)
			}
			verifyTorture(t, dir, model)
			db = open()

		case op == 7 && len(live) > 0: // per-row INSERTs
			name := live[rng.Intn(len(live))]
			mt := model.tables[name]
			tb, err := db.Table(name)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			n := 1 + rng.Intn(8)
			hitCrash := false
			for i := 0; i < n; i++ {
				word := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
				id := mt.nextID
				mt.nextID++
				_, err := tb.Insert(catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(id))})
				if errors.Is(err, errTortureCrash) {
					// Each per-row INSERT is its own implicit transaction:
					// earlier rows of this step committed and stay, the
					// crashed one vanishes.
					crashed(step)
					hitCrash = true
					break
				}
				if err != nil {
					t.Fatalf("seed %d step %d: insert: %v", seed, step, err)
				}
				mt.rows[fmt.Sprintf("%s|%d", word, id)]++
			}
			if hitCrash {
				continue
			}

		case op == 8 && len(live) > 0: // multi-row INSERT (one batched statement)
			name := live[rng.Intn(len(live))]
			mt := model.tables[name]
			tb, err := db.Table(name)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			n := 1 + rng.Intn(25)
			tups := make([]catalog.Tuple, 0, n)
			keys := make([]string, 0, n)
			for i := 0; i < n; i++ {
				word := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
				id := mt.nextID
				mt.nextID++
				tups = append(tups, catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(id))})
				keys = append(keys, fmt.Sprintf("%s|%d", word, id))
			}
			_, err = tb.InsertBatch(tups)
			if errors.Is(err, errTortureCrash) {
				// All-or-nothing: a batch crashed before its commit point
				// recovers with ZERO of its rows visible.
				crashed(step)
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: insert batch: %v", seed, step, err)
			}
			for _, k := range keys {
				mt.rows[k]++
			}

		case op == 9 && len(live) > 0: // DELETE WHERE name #= prefix
			name := live[rng.Intn(len(live))]
			mt := model.tables[name]
			tb, err := db.Table(name)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			prefix := fmt.Sprintf("w%c", 'a'+rng.Intn(6))
			_, err = tb.DeleteWhere(&executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)})
			if errors.Is(err, errTortureCrash) {
				// The whole DELETE commits under one marker now: a crash
				// before it recovers with every row still present.
				crashed(step)
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: delete: %v", seed, step, err)
			}
			modelDeletePrefix(mt.rows, prefix)

		case op == 10 && len(live) > 0: // UPDATE SET name = w... WHERE name #= prefix
			name := live[rng.Intn(len(live))]
			mt := model.tables[name]
			tb, err := db.Table(name)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			prefix := fmt.Sprintf("w%c", 'a'+rng.Intn(6))
			newWord := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
			_, err = tb.UpdateWhere(&executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)},
				[]executor.ColUpdate{{Column: 0, Value: catalog.NewText(newWord)}})
			if errors.Is(err, errTortureCrash) {
				// One statement, one commit marker: a crash anywhere inside
				// (old-version stamping, successor insert, chunk boundary)
				// recovers with every row at its pre-UPDATE value.
				crashed(step)
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: update: %v", seed, step, err)
			}
			modelUpdatePrefix(mt.rows, prefix, newWord)

		case op == 11 && len(live) > 0: // explicit BEGIN; 1-3 DML; COMMIT or ROLLBACK
			name := live[rng.Intn(len(live))]
			mt := model.tables[name]
			tb, err := db.Table(name)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			tx, err := db.Begin()
			if err != nil {
				t.Fatalf("seed %d step %d: begin: %v", seed, step, err)
			}
			// The transaction's statements see their own prior writes, so
			// stage the model changes on a scratch copy and merge only on
			// COMMIT. IDs are uniqueness tokens: advance mt.nextID even
			// when the transaction never lands.
			staged := make(map[string]int, len(mt.rows))
			for k, c := range mt.rows {
				staged[k] = c
			}
			hitCrash := false
			for s, nStmt := 0, 1+rng.Intn(3); s < nStmt && !hitCrash; s++ {
				switch rng.Intn(3) {
				case 0: // batch insert, sometimes big enough to chunk
					n := 1 + rng.Intn(80)
					tups := make([]catalog.Tuple, 0, n)
					keys := make([]string, 0, n)
					for i := 0; i < n; i++ {
						word := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
						id := mt.nextID
						mt.nextID++
						tups = append(tups, catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(id))})
						keys = append(keys, fmt.Sprintf("%s|%d", word, id))
					}
					_, err = tb.InsertBatchTx(tx, tups)
					if err == nil {
						for _, k := range keys {
							staged[k]++
						}
					}
				case 1: // delete prefix
					prefix := fmt.Sprintf("w%c", 'a'+rng.Intn(6))
					_, _, err = tb.DeleteWhereTx(tx, &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)})
					if err == nil {
						modelDeletePrefix(staged, prefix)
					}
				default: // update prefix
					prefix := fmt.Sprintf("w%c", 'a'+rng.Intn(6))
					newWord := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
					_, _, err = tb.UpdateWhereTx(tx, &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)},
						[]executor.ColUpdate{{Column: 0, Value: catalog.NewText(newWord)}})
					if err == nil {
						modelUpdatePrefix(staged, prefix, newWord)
					}
				}
				if errors.Is(err, errTortureCrash) {
					// Crash mid-transaction: no commit record ever reaches
					// the log, so recovery hides the WHOLE block — earlier
					// statements of this transaction included. The stale
					// tx handle is abandoned with the crashed database.
					crashed(step)
					hitCrash = true
					break
				}
				if err != nil {
					t.Fatalf("seed %d step %d: txn stmt: %v", seed, step, err)
				}
			}
			if hitCrash {
				continue
			}
			if rng.Intn(2) == 0 {
				if err := tx.Commit(); err != nil {
					t.Fatalf("seed %d step %d: commit: %v", seed, step, err)
				}
				mt.rows = staged
			} else {
				if err := tx.Rollback(); err != nil {
					t.Fatalf("seed %d step %d: rollback: %v", seed, step, err)
				}
			}
		}
	}

	if err := db.Close(); err != nil {
		t.Fatalf("seed %d: final close: %v", seed, err)
	}
	db = nil
	verifyTorture(t, dir, model)
}

// concurrentPhase runs the concurrent read/write torture phase: N reader
// goroutines scan a table (planner path, forced index scans, full scans)
// while the calling goroutine mutates it. Readers only assert invariants
// that hold at every instant of the phase: scans never error, and a
// statement-atomic snapshot never shows an index disagreeing with the
// rows it returns. The caller then crashes, recovers, and model-checks
// as usual — proving the concurrent traffic corrupted nothing durable.
func concurrentPhase(t *testing.T, db *executor.DB, name string, mt *modelTable, rng *rand.Rand) {
	t.Helper()
	tb, err := db.Table(name)
	if err != nil {
		t.Fatalf("concurrent phase: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const nReaders = 4
	for g := 0; g < nReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				prefix := fmt.Sprintf("w%c", 'a'+(g+i)%6)
				pred := &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)}
				switch i % 3 {
				case 0: // planner-chosen path
					if _, err := tb.Select(pred, func(executor.Row) bool { return true }); err != nil {
						t.Errorf("concurrent reader %d: select: %v", g, err)
						return
					}
				case 1: // forced index scan through every attached index
					for _, ix := range tb.Indexes {
						if err := tb.SelectIndexed(ix, pred, func(executor.Row) bool { return true }); err != nil {
							t.Errorf("concurrent reader %d: index scan %s: %v", g, ix.Name, err)
							return
						}
					}
				default: // full scan + point lookups of what it returned
					var rids []heap.RID
					if _, err := tb.Select(nil, func(r executor.Row) bool {
						rids = append(rids, r.RID)
						return len(rids) < 32
					}); err != nil {
						t.Errorf("concurrent reader %d: scan: %v", g, err)
						return
					}
					for _, rid := range rids {
						if _, err := tb.Get(rid); err != nil {
							t.Errorf("concurrent reader %d: get: %v", g, err)
							return
						}
					}
				}
			}
		}(g)
	}
	// The writer half: a burst of inserts, prefix deletes, and prefix
	// updates, tracked in the model exactly like the sequential ops.
	// The readers run against live MVCC versions of the same table the
	// whole time — each of their scans is one snapshot over rows the
	// writer is concurrently stamping dead and superseding.
	for i, n := 0, 5+rng.Intn(10); i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			prefix := fmt.Sprintf("w%c", 'a'+rng.Intn(6))
			if _, err := tb.DeleteWhere(&executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)}); err != nil {
				close(stop)
				wg.Wait()
				t.Fatalf("concurrent phase: delete: %v", err)
			}
			modelDeletePrefix(mt.rows, prefix)
			continue
		case 1:
			prefix := fmt.Sprintf("w%c", 'a'+rng.Intn(6))
			newWord := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
			if _, err := tb.UpdateWhere(&executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)},
				[]executor.ColUpdate{{Column: 0, Value: catalog.NewText(newWord)}}); err != nil {
				close(stop)
				wg.Wait()
				t.Fatalf("concurrent phase: update: %v", err)
			}
			modelUpdatePrefix(mt.rows, prefix, newWord)
			continue
		}
		word := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
		id := mt.nextID
		mt.nextID++
		if _, err := tb.Insert(catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(id))}); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("concurrent phase: insert: %v", err)
		}
		mt.rows[fmt.Sprintf("%s|%d", word, id)]++
	}
	close(stop)
	wg.Wait()
}

// TestStaleTableHandleRejected: a *Table resolved before a DROP TABLE
// commits must fail cleanly afterwards — never scan the dropped
// relation's discarded buffer pools.
func TestStaleTableHandleRejected(t *testing.T) {
	db := executor.OpenMemory()
	defer db.Close()
	tb, err := db.CreateTable("t", tortureCols())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(catalog.Tuple{catalog.NewText("w"), catalog.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Select(nil, func(executor.Row) bool { return true }); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("select on dropped table: %v", err)
	}
	if _, err := tb.Insert(catalog.Tuple{catalog.NewText("x"), catalog.NewInt(2)}); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("insert on dropped table: %v", err)
	}
	if n := tb.RowCount(); n != 0 {
		t.Fatalf("RowCount on dropped table = %d", n)
	}
	// A recreated table of the same name is a different handle: the old
	// one stays rejected, the new one works.
	tb2, err := db.CreateTable("t", tortureCols())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Select(nil, func(executor.Row) bool { return true }); err == nil {
		t.Fatal("old handle accepted after same-name recreate")
	}
	if _, err := tb2.Insert(catalog.Tuple{catalog.NewText("y"), catalog.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadWriteTorture: every iteration seeds two tables,
// runs the concurrent read/write phase on one while a second writer
// streams multi-row INSERT batches into the other — two writers holding
// different per-table locks, committing concurrently through the WAL's
// group-commit path — then crashes, recovers, and model-checks the
// durable state of both. Under -race in CI this is the end-to-end proof
// that the shared buffer pool, the guarded node caches, the two-level
// catalog/table lock hierarchy, and the atomic group append compose
// into a safe concurrent engine.
func TestConcurrentReadWriteTorture(t *testing.T) {
	seeds := []int64{3, 17}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			model := &tortureModel{tables: map[string]*modelTable{}}
			open := func() *executor.DB {
				db, err := executor.Open(executor.Options{Dir: dir, WAL: true, PoolPages: 64, WALSync: wal.SyncCommit})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				return db
			}
			db := open()
			if _, err := db.CreateTable("t0", tortureCols()); err != nil {
				t.Fatal(err)
			}
			mt := &modelTable{rows: map[string]int{}, indexes: map[string]string{}, statsRows: -1}
			model.tables["t0"] = mt
			if _, err := db.CreateIndex("ix0", "t0", "name", "spgist", "spgist_trie"); err != nil {
				t.Fatal(err)
			}
			mt.indexes["ix0"] = "spgist_trie"
			if _, err := db.CreateIndex("ix1", "t0", "name", "btree", "btree_text"); err != nil {
				t.Fatal(err)
			}
			mt.indexes["ix1"] = "btree_text"
			// The second table: written only by the concurrent batch
			// writer, proving writers on different tables overlap.
			if _, err := db.CreateTable("t1", tortureCols()); err != nil {
				t.Fatal(err)
			}
			mt1 := &modelTable{rows: map[string]int{}, indexes: map[string]string{}, statsRows: -1}
			model.tables["t1"] = mt1
			if _, err := db.CreateIndex("ix2", "t1", "name", "spgist", "spgist_trie"); err != nil {
				t.Fatal(err)
			}
			mt1.indexes["ix2"] = "spgist_trie"

			tb, err := db.Table("t0")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 120; i++ {
				word := fmt.Sprintf("w%c%c%02d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(40))
				id := mt.nextID
				mt.nextID++
				if _, err := tb.Insert(catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(id))}); err != nil {
					t.Fatal(err)
				}
				mt.rows[fmt.Sprintf("%s|%d", word, id)]++
			}

			for round := 0; round < 6; round++ {
				tb1, err := db.Table("t1")
				if err != nil {
					t.Fatal(err)
				}
				// Concurrent multi-table writer: multi-row INSERT batches
				// into t1 (with interleaved reads of it) while the phase
				// below reads and writes t0. mt1 is touched only by this
				// goroutine until the phase joins.
				t1done := make(chan struct{})
				t1rng := rand.New(rand.NewSource(seed*1000 + int64(round)))
				go func() {
					defer close(t1done)
					for i, rounds := 0, 3+t1rng.Intn(4); i < rounds; i++ {
						n := 5 + t1rng.Intn(20)
						tups := make([]catalog.Tuple, 0, n)
						keys := make([]string, 0, n)
						for j := 0; j < n; j++ {
							word := fmt.Sprintf("w%c%c%02d", 'a'+t1rng.Intn(6), 'a'+t1rng.Intn(6), t1rng.Intn(40))
							id := mt1.nextID
							mt1.nextID++
							tups = append(tups, catalog.Tuple{catalog.NewText(word), catalog.NewInt(int64(id))})
							keys = append(keys, fmt.Sprintf("%s|%d", word, id))
						}
						if _, err := tb1.InsertBatch(tups); err != nil {
							t.Errorf("t1 batch writer: %v", err)
							return
						}
						for _, k := range keys {
							mt1.rows[k]++
						}
						pred := &executor.Pred{Column: 0, Op: "#=", Arg: catalog.NewText("w")}
						got := 0
						if _, err := tb1.Select(pred, func(executor.Row) bool { got++; return true }); err != nil {
							t.Errorf("t1 read-back: %v", err)
							return
						}
					}
				}()
				concurrentPhase(t, db, "t0", mt, rng)
				<-t1done
				if t.Failed() {
					db.Crash()
					return
				}
				// Crash with both writers' committed batches in the log,
				// recover, and model-check the durable state of both
				// tables.
				if err := db.Crash(); err != nil {
					t.Fatalf("round %d: crash: %v", round, err)
				}
				verifyTorture(t, dir, model)
				db = open()
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			verifyTorture(t, dir, model)
		})
	}
}

func TestCrashRecoveryTorture(t *testing.T) {
	seeds := []int64{1, 7, 42, 1337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runTorture(t, seed, 120)
		})
	}
}

// FuzzCrashRecovery lets the fuzzer explore workload seeds; CI runs it
// briefly (-fuzz=FuzzCrashRecovery -fuzztime=30s) so the recovery
// torture harness cannot rot. Without -fuzz the seed corpus runs as a
// plain regression test.
func FuzzCrashRecovery(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 99, 31337} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runTorture(t, seed, 40)
	})
}
