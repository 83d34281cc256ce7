package server_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
)

// waitCount sums the observations so far of the given wait events.
func waitCount(db *executor.DB, evs ...obs.WaitEvent) int64 {
	var n int64
	for _, ev := range evs {
		c, _ := db.Waits().Count(ev)
		n += c
	}
	return n
}

// resolves is the number of waits so far, of every event, that looked up
// the waiting goroutine's session: each cost one goroutine-id lookup,
// whichever goroutine it happened on.
func resolves(db *executor.DB) int64 {
	var n int64
	for ev := obs.WaitNone + 1; ev < obs.NumWaitEvents; ev++ {
		n += db.Waits().Resolves(ev)
	}
	return n
}

// readResolves is the number of page reads so far that looked up their
// session.
func readResolves(db *executor.DB) int64 {
	return db.Waits().Resolves(obs.WaitIOHeapRead) + db.Waits().Resolves(obs.WaitIOIndexRead)
}

// slowReads reports whether page reads so far average slow enough to be
// attributed live (obs.WaitSet.Attributed).
func slowReads(db *executor.DB) bool {
	return db.Waits().Attributed(obs.WaitIOHeapRead) || db.Waits().Attributed(obs.WaitIOIndexRead)
}

func pageReads(db *executor.DB) int64 {
	return waitCount(db, obs.WaitIOHeapRead, obs.WaitIOIndexRead)
}

// TestActivityCostsNoGoroutineLookups is the cost half of the
// attribution contract: a session binds its goroutine once, so a
// statement that never blocks pays for no goroutine-id lookup — not
// warm, and not through a 16-page pool on an undelayed disk, where every
// statement misses.
func TestActivityCostsNoGoroutineLookups(t *testing.T) {
	const stmts = 1000
	run := func(t *testing.T, c *server.Client, prefixEvery int) {
		t.Helper()
		for i := 0; i < stmts; i++ {
			stmt := lookupStmt(i * 1009 % lookupRows) // pages apart from its neighbours
			if prefixEvery > 0 && i%prefixEvery == 0 {
				// ~50 rows over the whole key space: a multi-follow
				// scan, reading pages on several branches.
				stmt = "SELECT * FROM words WHERE name #= '" + lookupName(i)[:2] + "'"
			}
			if _, err := c.Exec(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
	}

	t.Run("warm", func(t *testing.T) {
		_, _, c := lookupFixture(t, executor.Options{})
		run(t, c, 0) // binds the session, fills the pool
		before := obs.GoidLookups()
		run(t, c, 0)
		if n := obs.GoidLookups() - before; n != 0 {
			t.Fatalf("%d warm exact-match statements made %d goroutine-id lookups, want 0", stmts, n)
		}
	})

	t.Run("cold", func(t *testing.T) {
		db, _, c := lookupFixture(t, executor.Options{PoolPages: 16})
		run(t, c, 10)
		lookups, resolved := obs.GoidLookups(), resolves(db)
		reads, readsResolved, slowBefore := pageReads(db), readResolves(db), slowReads(db)
		run(t, c, 10)
		lookups, resolved = obs.GoidLookups()-lookups, resolves(db)-resolved
		reads, readsResolved = pageReads(db)-reads, readResolves(db)-readsResolved
		slow := slowBefore || slowReads(db)
		if reads < stmts/10 {
			t.Fatalf("pool was not cold: %d page reads over %d statements", reads, stmts)
		}
		// Every lookup is a wait's: one that has blocked (the pool mutex
		// held by another goroutine can block a fetch for an instant), or
		// a page read while reads average 50 µs or more, as they can on a
		// loaded machine.
		if lookups != resolved {
			t.Fatalf("%d goroutine-id lookups against %d waits that looked up their session", lookups, resolved)
		}
		// A fast read resolves no session.
		if !slow && readsResolved != 0 {
			t.Fatalf("%d of %d page reads resolved a session while reads averaged under 50 µs", readsResolved, reads)
		}
		t.Logf("%d page reads (slow: %v), %d lookups, %d of them by reads", reads, slow, lookups, readsResolved)
	})
}

// TestSlowReadsShowLiveInActivity is the other half: on a device whose
// reads take milliseconds, a second connection's ACTIVITY scrape catches
// the reading session waiting on the page read.
func TestSlowReadsShowLiveInActivity(t *testing.T) {
	slow := func(_ string, dm storage.DiskManager) storage.DiskManager {
		return storage.WithLatency(dm, 5*time.Millisecond, 0)
	}
	_, addr, reader := lookupFixture(t, executor.Options{PoolPages: 16, DiskFaults: slow})
	scraper, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer scraper.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := reader.Exec(lookupStmt(i * 1009 % lookupRows)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	// The reader spends nearly all its time inside 5 ms reads; only the
	// first read of each kind goes unattributed. 400 polls a millisecond
	// apart is hundreds of chances.
	for poll := 0; poll < 400; poll++ {
		snap, err := scraper.Activity()
		if err != nil {
			t.Fatal(err)
		}
		for _, si := range snap {
			if si.State == "waiting" && (si.WaitEvent == "io_heap_read" || si.WaitEvent == "io_index_read") {
				t.Logf("poll %d: session %d waiting on %s in %q", poll, si.ID, si.WaitEvent, si.Statement)
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("400 ACTIVITY polls never saw the reading session waiting on a page read")
}
