package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWaitSetChargesEvents(t *testing.T) {
	ws := NewWaitSet(nil)
	m := ws.Begin(WaitLockTable)
	time.Sleep(time.Millisecond)
	ns := ws.End(m)
	if ns <= 0 {
		t.Fatalf("End returned %d ns, want > 0", ns)
	}
	count, total := ws.Count(WaitLockTable)
	if count != 1 || total != ns {
		t.Fatalf("Count = (%d, %d), want (1, %d)", count, total, ns)
	}
	if c, _ := ws.Count(WaitBufPool); c != 0 {
		t.Fatalf("unrelated event charged: %d", c)
	}
	ws.Reset()
	if c, n := ws.Count(WaitLockTable); c != 0 || n != 0 {
		t.Fatalf("after Reset Count = (%d, %d), want zeros", c, n)
	}
}

func TestWaitSetNilSafe(t *testing.T) {
	var ws *WaitSet
	m := ws.Begin(WaitWALFsync)
	if got := ws.End(m); got != 0 {
		t.Fatalf("nil WaitSet End = %d, want 0", got)
	}
	ws.Reset()
	if c, n := ws.Count(WaitWALFsync); c != 0 || n != 0 {
		t.Fatalf("nil WaitSet Count = (%d, %d)", c, n)
	}
}

func TestWaitSetRegister(t *testing.T) {
	ws := NewWaitSet(nil)
	r := NewRegistry()
	ws.Register(r)
	ws.End(ws.Begin(WaitIOHeapRead))
	m := make(map[string]int64)
	r.Each(func(name string, value int64) { m[name] = value })
	if m["wait_io_heap_read_total"] != 1 {
		t.Fatalf("wait_io_heap_read_total = %d, want 1", m["wait_io_heap_read_total"])
	}
	if _, ok := m["wait_lock_catalog_total"]; !ok {
		t.Fatal("wait_lock_catalog_total missing from readout")
	}
	for name := range m {
		if strings.Contains(name, "wait_none") {
			t.Fatalf("WaitNone leaked into readout as %q", name)
		}
	}
}

// TestWaitAttributesToSession binds a session to the calling goroutine
// and checks an in-progress wait shows up in the activity snapshot with
// the right event, then clears.
func TestWaitAttributesToSession(t *testing.T) {
	act := NewActivity()
	ws := NewWaitSet(act)
	se := act.Register("test-client")
	se.Begin("SELECT 1", time.Now())

	m := ws.Begin(WaitWALCommitWait)
	snap := act.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d sessions, want 1", len(snap))
	}
	if snap[0].State != "waiting" || snap[0].WaitEvent != "wal_commit_wait" {
		t.Fatalf("mid-wait snapshot = state %q wait %q", snap[0].State, snap[0].WaitEvent)
	}
	ws.End(m)
	snap = act.Snapshot()
	if snap[0].State != "active" || snap[0].WaitEvent != "none" {
		t.Fatalf("post-wait snapshot = state %q wait %q", snap[0].State, snap[0].WaitEvent)
	}

	se.End()
	if s := act.Snapshot(); s[0].State != "idle" {
		t.Fatalf("post-statement state = %q, want idle", s[0].State)
	}
	se.Close()
	if s := act.Snapshot(); len(s) != 0 {
		t.Fatalf("after Close snapshot has %d sessions, want 0", len(s))
	}
}

// TestWaitOtherGoroutineNotAttributed: a wait on a goroutine with no
// bound session charges the WaitSet but touches no session entry.
func TestWaitOtherGoroutineNotAttributed(t *testing.T) {
	act := NewActivity()
	ws := NewWaitSet(act)
	se := act.Register("c1")
	se.Begin("INSERT ...", time.Now())
	defer se.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws.End(ws.Begin(WaitBufPool))
	}()
	wg.Wait()

	if c, _ := ws.Count(WaitBufPool); c != 1 {
		t.Fatalf("WaitBufPool count = %d, want 1", c)
	}
	snap := act.Snapshot()
	if snap[0].WaitEvent != "none" || snap[0].State != "active" {
		t.Fatalf("unrelated goroutine's wait leaked onto session: state %q wait %q",
			snap[0].State, snap[0].WaitEvent)
	}
}

// TestIdleSessionNeverWaits: the binding outlives the statement, so a
// wait on the goroutine between statements (or after Close) finds the
// session — and must leave it idle.
func TestIdleSessionNeverWaits(t *testing.T) {
	act := NewActivity()
	ws := NewWaitSet(act)
	se := act.Register("c1")
	se.Begin("SELECT 1", time.Now())
	se.End()

	m := ws.Begin(WaitLockTable)
	if snap := act.Snapshot(); snap[0].State != "idle" || snap[0].WaitEvent != "none" {
		t.Fatalf("idle session reads state %q wait %q mid-wait", snap[0].State, snap[0].WaitEvent)
	}
	ws.End(m)
	if snap := act.Snapshot(); snap[0].State != "idle" {
		t.Fatalf("End of an unattributed wait moved the session to %q", snap[0].State)
	}

	se.Close()
	if n := act.bound.Load(); n != 0 {
		t.Fatalf("%d goroutines still bound after the only session closed", n)
	}
	before := GoidLookups()
	ws.End(ws.Begin(WaitLockTable))
	if n := GoidLookups() - before; n != 0 {
		t.Fatalf("wait with nothing bound made %d goroutine-id lookups", n)
	}
}

// TestActivityBindingIsOncePerSession: statements after the first cost no
// goroutine-id lookup, and two sessions sharing a goroutine each get
// their own waits.
func TestActivityBindingIsOncePerSession(t *testing.T) {
	act := NewActivity()
	ws := NewWaitSet(act)
	a, b := act.Register("a"), act.Register("b")
	defer a.Close()
	defer b.Close()
	a.Begin("warm-up", time.Now())
	a.End()
	b.Begin("warm-up", time.Now())
	b.End()

	before := GoidLookups()
	for i := 0; i < 1000; i++ {
		a.Begin("SELECT 1", time.Now())
		a.End()
	}
	if n := GoidLookups() - before; n != 0 {
		t.Fatalf("1000 statements made %d goroutine-id lookups, want 0", n)
	}

	for _, se := range []*SessionEntry{a, b, a} {
		se.Begin("UPDATE t", time.Now())
		m := ws.Begin(WaitLockTable)
		for _, si := range act.Snapshot() {
			want := "idle"
			if si.ID == se.ID() {
				want = "waiting"
			}
			if si.State != want {
				t.Fatalf("while session %d waits, session %d reads %q", se.ID(), si.ID, si.State)
			}
		}
		ws.End(m)
		se.End()
	}
}

// TestPageReadWaitsAttributedOnlyWhenSlow: a page-read wait resolves its
// session only once the event's own history says reads are slow.
func TestPageReadWaitsAttributedOnlyWhenSlow(t *testing.T) {
	act := NewActivity()
	ws := NewWaitSet(act)
	se := act.Register("c1")
	se.Begin("SELECT 1", time.Now())
	defer se.Close()

	before := GoidLookups()
	for i := 0; i < 100; i++ { // reads out of the OS cache: far under 50 µs
		ws.End(ws.Begin(WaitIOHeapRead))
	}
	if n := GoidLookups() - before; n != 0 || ws.Resolves(WaitIOHeapRead) != 0 {
		t.Fatalf("fast reads made %d goroutine-id lookups and %d resolves, want 0", n, ws.Resolves(WaitIOHeapRead))
	}

	ws.cells[WaitIOIndexRead].count.Store(10)
	ws.cells[WaitIOIndexRead].ns.Store(10 * (5 * time.Millisecond).Nanoseconds())
	m := ws.Begin(WaitIOIndexRead)
	if snap := act.Snapshot(); snap[0].State != "waiting" || snap[0].WaitEvent != "io_index_read" {
		t.Fatalf("read on a slow device: state %q wait %q", snap[0].State, snap[0].WaitEvent)
	}
	ws.End(m)
	if n := ws.Resolves(WaitIOIndexRead); n != 1 {
		t.Fatalf("a read on a slow device counts %d resolves, want 1", n)
	}
	// The heap-read event has its own history and is still fast.
	m = ws.Begin(WaitIOHeapRead)
	if snap := act.Snapshot(); snap[0].State != "active" {
		t.Fatalf("fast heap read marked the session %q", snap[0].State)
	}
	ws.End(m)
}

func TestActivitySnapshotFields(t *testing.T) {
	act := NewActivity()
	a := act.Register("addr-a")
	b := act.Register("addr-b")
	defer a.Close()
	defer b.Close()
	b.Begin("SELECT * FROM t", time.Now())
	defer b.End()

	snap := act.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d sessions, want 2", len(snap))
	}
	if snap[0].ID >= snap[1].ID {
		t.Fatalf("snapshot not ordered by id: %d, %d", snap[0].ID, snap[1].ID)
	}
	if snap[0].Client != "addr-a" || snap[0].State != "idle" || snap[0].Statement != "" {
		t.Fatalf("idle session row = %+v", snap[0])
	}
	if snap[1].Statement != "SELECT * FROM t" || snap[1].State != "active" {
		t.Fatalf("active session row = %+v", snap[1])
	}
	if snap[1].StmtElapsed <= 0 {
		t.Fatalf("active session StmtElapsed = %v, want > 0", snap[1].StmtElapsed)
	}
}

// TestActivityStatementNeverTorn: scrapers snapshotting while a session
// begins statements of different lengths read each text whole, and
// Begin records the text without allocating.
func TestActivityStatementNeverTorn(t *testing.T) {
	act := NewActivity()
	se := act.Register("c1")
	defer se.Close()
	stmts := []string{"SELECT 1", "SELECT * FROM words WHERE name = '00123456'", "", "BEGIN"}
	known := map[string]bool{}
	for _, s := range stmts {
		known[s] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, si := range act.Snapshot() {
					if !known[si.Statement] {
						t.Errorf("snapshot read statement %q, never begun", si.Statement)
						return
					}
				}
			}
		}()
	}
	start := time.Now()
	for i := 0; i < 20000; i++ {
		se.Begin(stmts[i%len(stmts)], start)
		se.End()
	}
	close(stop)
	wg.Wait()

	i := 0
	if n := testing.AllocsPerRun(100, func() {
		se.Begin(stmts[i%len(stmts)], start)
		se.End()
		i++
	}); n != 0 {
		t.Errorf("Begin allocates %.0f times per statement, want 0", n)
	}
}
