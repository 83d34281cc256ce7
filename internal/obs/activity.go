package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// SessionState is a session's instantaneous state in the activity table.
type SessionState int32

const (
	// StateIdle: registered, no statement running.
	StateIdle SessionState = iota
	// StateActive: executing a statement.
	StateActive
	// StateWaiting: executing a statement and currently blocked on a
	// wait event (see the entry's WaitEvent).
	StateWaiting
)

func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateActive:
		return "active"
	case StateWaiting:
		return "waiting"
	}
	return "unknown"
}

// SessionEntry is one live session's row in the activity table. Every
// field a scraper reads is an atomic, so scrapers (SHOW ACTIVITY, the
// /activity endpoint) read a consistent-enough snapshot without taking
// any lock a statement's hot path would contend on. The statement text
// is published under a sequence count (see statement), so a scraper can
// never observe a torn string and Begin allocates nothing.
type SessionEntry struct {
	act     *Activity
	id      int64
	client  string
	started time.Time

	state atomic.Int32
	// stmtData and stmtLen are the current statement text's bytes and
	// length. stmtSeq is odd while Begin rewrites them.
	stmtSeq   atomic.Uint64
	stmtData  atomic.Pointer[byte]
	stmtLen   atomic.Int64
	stmtStart atomic.Int64 // unix nanos; 0 when idle
	wait      atomic.Int32

	// bind is the slot of the goroutine the session runs on, taken by
	// the first Begin and kept until Close. Only the session's own
	// goroutine touches the field.
	bind *goBinding
}

// goBinding is one goroutine's slot in the activity table: of the
// sessions bound to the goroutine, the one whose statement ran on it
// last. Several sessions may share a goroutine (an embedded program
// with two sessions); at most one of them is mid-statement.
type goBinding struct {
	gid  uint64
	refs int // sessions bound here; guarded by Activity.mu
	cur  atomic.Pointer[SessionEntry]
}

// ID returns the session's id.
func (se *SessionEntry) ID() int64 {
	if se == nil {
		return 0
	}
	return se.id
}

// Begin marks the start of one statement, which began at start: the
// session becomes active and records stmt as its current statement. The
// first Begin binds the session to the calling goroutine — the one
// goroutine-id lookup of the session's life — so waits observed
// anywhere below (lock acquisition, buffer I/O, WAL commit) attribute
// to it; every later Begin touches only atomics. A session that moves
// to another goroutine keeps its row but loses live wait attribution.
func (se *SessionEntry) Begin(stmt string, start time.Time) {
	if se == nil {
		return
	}
	if se.bind == nil {
		se.bind = se.act.bindGoroutine()
	}
	se.bind.cur.Store(se)
	se.stmtSeq.Add(1)
	se.stmtData.Store(unsafe.StringData(stmt))
	se.stmtLen.Store(int64(len(stmt)))
	se.stmtSeq.Add(1)
	se.stmtStart.Store(start.UnixNano())
	se.wait.Store(int32(WaitNone))
	se.state.Store(int32(StateActive))
}

// statement reads the text the last Begin recorded. Begin is the only
// writer and never waits; a reader that overlaps it reads again.
func (se *SessionEntry) statement() string {
	for {
		seq := se.stmtSeq.Load()
		if seq&1 == 0 {
			data, n := se.stmtData.Load(), se.stmtLen.Load()
			if se.stmtSeq.Load() == seq {
				return unsafe.String(data, n)
			}
		}
		runtime.Gosched()
	}
}

// End marks the statement finished: the session returns to idle. The
// goroutine binding stays; an idle session ignores waits (setWait).
func (se *SessionEntry) End() {
	if se == nil {
		return
	}
	se.state.Store(int32(StateIdle))
	se.stmtStart.Store(0)
	se.wait.Store(int32(WaitNone))
}

// Close removes the session from the activity table and drops its
// goroutine binding.
func (se *SessionEntry) Close() {
	if se == nil {
		return
	}
	se.End()
	a := se.act
	a.mu.Lock()
	delete(a.sessions, se.id)
	if b := se.bind; b != nil {
		b.cur.CompareAndSwap(se, nil)
		if b.refs--; b.refs == 0 {
			a.byGoid.Delete(b.gid)
			a.bound.Add(-1)
		}
	}
	a.mu.Unlock()
	// A slot outside the table: statements run after Close (allowed)
	// bind nothing.
	se.bind = &goBinding{}
}

// setWait marks the session waiting on ev and reports whether it did.
// Only a session inside a statement can wait: the binding outlives the
// statement, so between statements the goroutine may block on work that
// is not the session's, and an idle session must never read as waiting.
func (se *SessionEntry) setWait(ev WaitEvent) bool {
	if SessionState(se.state.Load()) != StateActive {
		return false
	}
	se.wait.Store(int32(ev))
	se.state.Store(int32(StateWaiting))
	return true
}

func (se *SessionEntry) clearWait() {
	se.wait.Store(int32(WaitNone))
	se.state.CompareAndSwap(int32(StateWaiting), int32(StateActive))
}

// Activity is the live session table — this engine's pg_stat_activity.
// Registration, removal and goroutine binding take its mutex (cold, per
// session); the per-statement path touches only atomics.
type Activity struct {
	mu       sync.Mutex
	nextID   int64
	sessions map[int64]*SessionEntry
	byGoid   sync.Map // goroutine id → *goBinding
	// bound counts the goroutines in byGoid, so current() can skip the
	// goroutine-id lookup entirely when nothing is bound — the case for
	// code driving the executor directly (benchmarks, embedded use)
	// rather than through sessions.
	bound atomic.Int64
}

// NewActivity returns an empty activity table.
func NewActivity() *Activity {
	return &Activity{sessions: make(map[int64]*SessionEntry)}
}

// Register adds a session for the given client label ("local" for
// embedded sessions, the remote address for server connections) and
// returns its entry. Nil-receiver safe: returns a nil entry whose
// methods no-op.
func (a *Activity) Register(client string) *SessionEntry {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	a.nextID++
	se := &SessionEntry{act: a, id: a.nextID, client: client, started: time.Now()}
	a.sessions[se.id] = se
	a.mu.Unlock()
	return se
}

// bindGoroutine takes a reference on the calling goroutine's slot,
// creating it for the goroutine's first session.
func (a *Activity) bindGoroutine() *goBinding {
	g := goid()
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.byGoid.Load(g)
	if !ok {
		v = &goBinding{gid: g}
		a.byGoid.Store(g, v)
		a.bound.Add(1)
	}
	b := v.(*goBinding)
	b.refs++
	return b
}

// current resolves the session running a statement on the calling
// goroutine, or nil, and reports whether that cost a goroutine-id
// lookup (it does while any goroutine is bound): WaitSet.Begin decides
// per event whether the wait is worth one.
func (a *Activity) current() (se *SessionEntry, looked bool) {
	if a == nil || a.bound.Load() == 0 {
		return nil, false
	}
	if v, ok := a.byGoid.Load(goid()); ok {
		return v.(*goBinding).cur.Load(), true
	}
	return nil, true
}

// SessionInfo is one row of an activity snapshot.
type SessionInfo struct {
	ID          int64         `json:"id"`
	Client      string        `json:"client"`
	State       string        `json:"state"`
	WaitEvent   string        `json:"wait_event"`
	Statement   string        `json:"statement"`
	SessionAge  time.Duration `json:"session_age_ns"`
	StmtElapsed time.Duration `json:"stmt_elapsed_ns"`
}

// Snapshot reads every live session, ordered by id. The per-entry reads
// are individually atomic, not mutually: a session finishing its
// statement mid-snapshot may read as idle with a statement text — fine
// for a monitoring surface.
func (a *Activity) Snapshot() []SessionInfo {
	if a == nil {
		return nil
	}
	now := time.Now()
	a.mu.Lock()
	entries := make([]*SessionEntry, 0, len(a.sessions))
	for _, se := range a.sessions {
		entries = append(entries, se)
	}
	a.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]SessionInfo, 0, len(entries))
	for _, se := range entries {
		info := SessionInfo{
			ID:         se.id,
			Client:     se.client,
			State:      SessionState(se.state.Load()).String(),
			WaitEvent:  WaitEvent(se.wait.Load()).String(),
			SessionAge: now.Sub(se.started),
		}
		info.Statement = se.statement()
		if s := se.stmtStart.Load(); s > 0 {
			info.StmtElapsed = now.Sub(time.Unix(0, s))
		}
		out = append(out, info)
	}
	return out
}
