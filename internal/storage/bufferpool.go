package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Page is a pinned buffer-pool frame. The holder may read and mutate Data
// and must Unpin it (marking it dirty if mutated) when done. Mutating
// holders must be externally serialized against every other holder of the
// same page (the executor's exclusive statement lock provides this);
// read-only holders may share a page freely.
type Page struct {
	ID   PageID
	Data []byte

	frame int // frame index in the pool
}

// PoolStats counts logical page traffic at the buffer-pool level.
// DirtyWrites counts dirty frames written back to disk, whether by
// eviction or an explicit flush.
//
// Misses include InflightJoins: fetches that found their page's read
// already in flight and waited on it rather than issuing a second disk
// read, so Hits+Misses == Accesses always holds while physical reads can
// be fewer than misses. A relation's counters count the fetches of its
// pages and the write-backs and evictions of its frames; the pool's sum
// them.
type PoolStats struct {
	Accesses      int64
	Hits          int64
	Misses        int64
	Evictions     int64
	DirtyWrites   int64
	InflightJoins int64
}

// add accumulates o into s.
func (s *PoolStats) add(o PoolStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.DirtyWrites += o.DirtyWrites
	s.InflightJoins += o.InflightJoins
}

// Pool is the buffer pool of one database, PostgreSQL's shared buffers:
// one set of frames, one clock and one budget for every relation file
// opened in it (Open), with frames keyed by (relation, page). All methods
// are safe for concurrent use.
//
// One mutex guards the page table, the clock hand and the in-flight
// reads. It is never held across a miss's disk read (readClaimedLocked
// releases it first), and releasing a clean pin touches no mutex at all:
// pin counts and reference bits are per-frame atomics. Pins are only ever
// *added* under the mutex, which the evictor also holds, so a frame
// observed unpinned by the evictor cannot be concurrently re-pinned.
//
// When a write-ahead log is attached (AttachWAL), the pool becomes the
// WAL integration point for every structure built on it, with one
// logging rule: every change to a page is a record its owner built and
// staged as it unpinned the page (UnpinDeferred), deferred to the
// statement's commit point. StagePending hands the records — and the
// full-page image of each page's first touch since the last checkpoint —
// to the committer's record group, and no dirty frame is written back to
// disk before the log is durable up to that frame's latest record — the
// WAL-before-data rule. Deferred work belongs
// to a relation: staging, flushing and resolving one relation touch only
// its own frames, so statements on different tables commit independently.
type Pool struct {
	// mu guards table, inflight, hand, every non-atomic frame field and
	// every relation's counters. It has its cache line to itself: every
	// fetch moves the line between the cores that lock it, and frames is
	// read without the lock (a clean Unpin, the tail of Fetch). Sharing
	// the line made BenchmarkConcurrentRangeScan at -cpu 2 a third slower.
	mu     sync.Mutex
	_      [64]byte
	frames []frame
	// table maps (relation, page), packed into one uint64
	// (BufferPool.key), to the frame caching it.
	table map[uint64]int
	hand  int

	// inflight holds the pending disk reads, keyed like table. An entry's
	// frame is pinned and invalid, reachable only through the entry until
	// the read publishes it into table.
	inflight map[uint64]*inflightRead

	// walRef holds the attached log writer. An atomic pointer rather than
	// a mutex: AttachWAL is called once, before the pool is shared, and
	// afterwards every dirty unpin and eviction reads it — a lock here
	// would be a second lock inside the pool mutex's critical sections.
	walRef atomic.Pointer[wal.Writer]

	// waits joins the pool to the engine's wait-event layer (AttachObs,
	// once, before the pool is shared; nil for standalone pools). Pool
	// mutex acquisitions charge buf_pool only after a TryLock failed —
	// the uncontended path pays one predictable branch and reads no
	// clock — while miss disk reads always charge the relation's I/O
	// event: next to a real disk read the two clock reads are noise, and
	// the I/O time is the number the wait profile exists to expose.
	waits *obs.WaitSet

	// rels lists the open relations in the order they were opened; their
	// numbers (nextRel) are never reused, so no frame outlives its file.
	// retired and retiredIO keep the counters of the relations that have
	// left the pool (BufferPool.Crash), so the pool's totals never fall
	// when a file is dropped.
	relMu     sync.Mutex
	rels      []*BufferPool
	nextRel   uint32
	retired   PoolStats
	retiredIO [3]int64 // disk reads, writes, allocations
}

// BufferPool is one relation file opened in a Pool, the handle access
// methods work through. It holds only what is per file — disk manager,
// file name, deferred log records, miss-I/O wait event, traffic counters
// and page trace — and shares everything else with the pool.
type BufferPool struct {
	pool     *Pool
	rel      uint32 // relation number: its frames' key prefix
	dm       DiskManager
	fileName string
	waitIO   obs.WaitEvent // miss-read classification (heap/index/catalog)

	// stats counts this relation's traffic, as plain fields under the
	// pool mutex, which the hot paths already hold — zero extra atomics
	// per fetch. Readouts (SHOW STATS) take the same mutex.
	stats PoolStats

	// ops holds the statement's deferred logical records, already
	// encoded by their owner (UnpinDeferred): instead of appending to the
	// log during execution — where records of concurrent statements on
	// other tables would interleave with them — they are staged here and
	// appended contiguously, together with the statement's commit
	// marker, by StagePending/AppendGroupCommit. The pool never looks
	// inside a record; opPages names, per record (as an index into ops),
	// the page it covers. Those frames carry opPending and are
	// unevictable until ResolvePending assigns their LSNs. Statements on
	// one relation are externally serialized (the executor's per-table
	// writer lock); opsMu only orders the pair against FlushAll and
	// Crash. ops is emptied, not dropped, when its records move on, so a
	// statement stages into the buffers the previous one grew.
	opsMu   sync.Mutex
	ops     wal.Group
	opPages []Staged
	// imageCopy is the page an image is copied into under the pool
	// mutex, to be staged — and deflated — with the lock released. Only
	// StagePending and FlushAll use it, which the same serialization
	// orders.
	imageCopy []byte
	// patch is the slot patch of the last UpdateSlot, empty when logging
	// the whole record is smaller; UnpinUpdate logs it. The relation's
	// writers are serialized, as for its pages.
	patch []byte

	// trace, when armed, records the distinct pages fetched (PageTrace).
	trace atomic.Pointer[PageTrace]
	// save, when armed, keeps each page's bytes for Revert (Savepoint).
	save atomic.Pointer[savepoint]
}

// inflightRead is one pending disk read published in the pool's in-flight
// table. The claiming fetch owns the frame at fi — pinned and invalid,
// so the evictor skips it — reads with the pool mutex released, then
// publishes the frame and closes done.
// Fetches of the same page meanwhile register as waiters (under the
// pool mutex) and park on done; the publisher grants their pins in one
// store before the entry leaves the table, so a published frame cannot
// be evicted before its waiters wake. err and the frame contents become
// visible to waiters through the channel close.
type inflightRead struct {
	done    chan struct{}
	fi      int
	waiters int32 // registered before publish, under the pool mutex
	err     error
}

// anyInflightDone returns the done channel of an arbitrary in-flight
// read, or nil when none is pending. Callers hold p.mu; the channel
// stays valid after unlock (it is closed exactly once by the publisher).
func (p *Pool) anyInflightDone() chan struct{} {
	for _, e := range p.inflight {
		return e.done
	}
	return nil
}

type frame struct {
	rel  *BufferPool // relation whose page the frame holds
	id   PageID
	data []byte
	// pin and ref are atomics so a clean unpin (the hot read path) needs
	// no pool lock: it decrements pin and sets ref without synchronizing
	// with anything else. New pins are only taken under the pool mutex.
	pin   atomic.Int32
	ref   atomic.Bool // clock reference bit
	dirty bool
	valid bool
	lsn   wal.LSN // latest WAL record covering this page (0 = none)
	// opPending marks a frame covered by deferred logical records
	// (rel.ops) whose LSNs are not yet assigned. Unevictable (no-steal)
	// until ResolvePending runs at the commit point.
	opPending bool
	// imagedLSN is the LSN of the last full page image logged for this
	// frame's page while it has been resident (0 after a load from
	// disk). Together with the on-page LSN it decides whether the next
	// commit of logical records on the page needs a full-page write:
	// recovery can only rebuild a torn page when an image of it survives
	// in the post-checkpoint log.
	imagedLSN wal.LSN
	// unlogged marks a page read from its file with content no record
	// stamped — an initialized page with a zero pageLSN — which only a
	// write outside the log leaves: an index build's, or a session's
	// without a log.
	unlogged bool
}

// NewPool creates a pool of capacity frames of pageSize bytes.
func NewPool(pageSize, capacity int) *Pool {
	capacity = max(capacity, 4)
	p := &Pool{
		frames:   make([]frame, capacity),
		table:    make(map[uint64]int, capacity),
		inflight: make(map[uint64]*inflightRead),
	}
	for i := range p.frames {
		p.frames[i].data = make([]byte, pageSize)
	}
	return p
}

// NewBufferPool creates a pool of capacity frames with one relation in it,
// dm, called fileName ("" for a file no log record or error report names).
func NewBufferPool(fileName string, dm DiskManager, capacity int) *BufferPool {
	return NewPool(dm.PageSize(), capacity).Open(fileName, dm, obs.WaitNone)
}

// Open attaches the relation file dm, called fileName, to the pool and
// returns its handle; the relation's miss reads are charged to ioEvent.
func (p *Pool) Open(fileName string, dm DiskManager, ioEvent obs.WaitEvent) *BufferPool {
	p.relMu.Lock()
	defer p.relMu.Unlock()
	bp := &BufferPool{pool: p, rel: p.nextRel, dm: dm, fileName: fileName, waitIO: ioEvent}
	p.nextRel++
	p.rels = append(p.rels, bp)
	return bp
}

// Relations lists the open relations in the order they were opened.
func (p *Pool) Relations() []*BufferPool {
	p.relMu.Lock()
	defer p.relMu.Unlock()
	return slices.Clone(p.rels)
}

// key is the page-table key of page id of this relation.
func (bp *BufferPool) key(id PageID) uint64 { return uint64(bp.rel)<<32 | uint64(id) }

// DM exposes the underlying disk manager.
func (bp *BufferPool) DM() DiskManager { return bp.dm }

// SizeBytes returns the size of the relation file on disk.
func (bp *BufferPool) SizeBytes() int64 {
	return int64(bp.dm.NumPages()) * int64(bp.dm.PageSize())
}

// Frames reports how many frames the pool holds — its page budget.
func (p *Pool) Frames() int { return len(p.frames) }

// AttachWAL enables write-ahead logging for the pool; each relation's
// pages appear in log records under its file name. Must be called before
// the pool is used.
//
// The log must already hold a statement boundary — a commit or
// checkpoint marker; executor.Open plants one in a fresh log before it
// attaches it. Every record the pool produces is deferred to its
// statement's marker, and both the no-steal rule and recovery's
// uncommitted-tail discard are positional (relative to the last
// marker), so on a marker-less log neither would protect the first
// statement. Attaching to one is a caller bug and panics.
func (p *Pool) AttachWAL(w *wal.Writer) {
	if w.CommittedLSN() == 0 {
		panic("storage: AttachWAL on a log with no commit or checkpoint marker")
	}
	p.walRef.Store(w)
}

// AttachObs joins the pool to a wait-event set: pool-mutex contention
// is charged to buf_pool and miss disk reads to each relation's I/O
// event. Like AttachWAL, it must be called before the pool is shared.
func (p *Pool) AttachObs(ws *obs.WaitSet) { p.waits = ws }

// FileName returns the base name of the relation file.
func (bp *BufferPool) FileName() string { return bp.fileName }

// I/O retry policy: a transient read/write error is retried up to
// ioRetryAttempts total tries with capped exponential backoff, the
// sleeps charged to the io_retry wait event. Corruption, ENOSPC, and
// permanent faults are never retried (IsTransient).
const (
	ioRetryAttempts  = 3
	ioRetryBaseDelay = time.Millisecond
	ioRetryMaxDelay  = 8 * time.Millisecond
)

// backoff sleeps for the attempt's delay, charging io_retry.
func (p *Pool) backoff(attempt int) {
	d := ioRetryBaseDelay << attempt
	if d > ioRetryMaxDelay {
		d = ioRetryMaxDelay
	}
	rw := p.waits.Begin(obs.WaitIORetry)
	time.Sleep(d)
	p.waits.End(rw)
}

// verifyOnRead checks a page just read from disk against its stored
// checksum, returning a typed ErrPageCorrupt on mismatch.
func (bp *BufferPool) verifyOnRead(id PageID, data []byte) error {
	if stored, computed, ok := VerifyPageChecksum(data); !ok {
		return &ErrPageCorrupt{File: bp.fileName, PageID: id, Expected: stored, Got: computed}
	}
	return nil
}

// readPageRetry reads page id into buf, charging the read to ev,
// retrying transient errors per the retry policy, and verifying the
// checksum of whatever finally arrives. A corrupt page is a property of
// the bytes, not the device, so it is returned immediately — but a read
// that *errored* transiently retries even if an earlier attempt left
// garbage in buf.
func (bp *BufferPool) readPageRetry(id PageID, buf []byte, ev obs.WaitEvent) error {
	for attempt := 0; ; attempt++ {
		iw := bp.pool.waits.Begin(ev)
		err := bp.dm.ReadPage(id, buf)
		bp.pool.waits.End(iw)
		if err == nil {
			return bp.verifyOnRead(id, buf)
		}
		if attempt+1 >= ioRetryAttempts || !IsTransient(err) {
			return err
		}
		bp.pool.backoff(attempt)
	}
}

// writePageRetry stamps the page checksum and writes the page, retrying
// transient errors per the retry policy. Callers hold the pool mutex
// with the frame unpinned, so mutating the checksum bytes in place
// cannot race a reader.
func (bp *BufferPool) writePageRetry(id PageID, data []byte) error {
	StampPageChecksum(data)
	for attempt := 0; ; attempt++ {
		err := bp.dm.WritePage(id, data)
		if err == nil || attempt+1 >= ioRetryAttempts || !IsTransient(err) {
			return err
		}
		bp.pool.backoff(attempt)
	}
}

// VerifyPage checksum-verifies the on-disk copy of page id using
// scratch (a page-size buffer), for SCRUB. A cached dirty frame means
// the disk copy is legitimately stale — the authoritative bytes are in
// memory, already verified on their way in — so such pages pass. The
// read itself runs outside the pool mutex so an online scrub over a
// slow or flaky device never stalls the pool's fetches and evictions
// behind retry backoff. A failure is then re-checked under the mutex,
// which every pool disk write also holds: an in-progress write the
// unlocked read observed torn cannot still look torn on the locked
// re-read.
func (bp *BufferPool) VerifyPage(id PageID, scratch []byte) error {
	p := bp.pool
	p.lock()
	dirty := bp.residentDirtyLocked(id)
	p.mu.Unlock()
	if dirty {
		return nil
	}
	if err := bp.readPageRetry(id, scratch, bp.waitIO); err == nil {
		return nil
	}
	// Confirm the failure with the pool quiesced. The frame may have
	// been dirtied (or written back) since the unlocked snapshot.
	p.lock()
	defer p.mu.Unlock()
	if bp.residentDirtyLocked(id) {
		return nil
	}
	return bp.readPageRetry(id, scratch, bp.waitIO)
}

// residentDirtyLocked reports whether page id is cached in a dirty frame.
// Caller holds the pool mutex.
func (bp *BufferPool) residentDirtyLocked(id PageID) bool {
	fi, ok := bp.pool.table[bp.key(id)]
	return ok && bp.pool.frames[fi].dirty
}

// lock acquires p.mu, charging a blocked acquisition to the buf_pool wait
// event. The uncontended fast path is one TryLock.
func (p *Pool) lock() {
	if p.mu.TryLock() {
		return
	}
	m := p.waits.Begin(obs.WaitBufPool)
	p.mu.Lock()
	p.waits.End(m)
}

// WAL returns the attached log writer (nil when logging is disabled).
func (p *Pool) WAL() *wal.Writer { return p.walRef.Load() }

// Stats returns a snapshot of the relation's counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.pool.mu.Lock()
	defer bp.pool.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the relation's counters (the disk counters are
// separate).
func (bp *BufferPool) ResetStats() {
	bp.pool.mu.Lock()
	bp.stats = PoolStats{}
	bp.pool.mu.Unlock()
}

// Stats sums the counters of every relation the pool has held: the open
// ones and those that have left it.
func (p *Pool) Stats() PoolStats {
	p.relMu.Lock()
	defer p.relMu.Unlock()
	s := p.retired
	for _, bp := range p.rels {
		s.add(bp.Stats())
	}
	return s
}

// DiskStats sums the physical I/O of every relation file the pool has
// held: its disk manager's counters while it is open, and what they
// counted when it left the pool.
func (p *Pool) DiskStats() (reads, writes, allocs int64) {
	p.relMu.Lock()
	defer p.relMu.Unlock()
	reads, writes, allocs = p.retiredIO[0], p.retiredIO[1], p.retiredIO[2]
	for _, bp := range p.rels {
		r, w, a := bp.dm.Stats().Snapshot()
		reads, writes, allocs = reads+r, writes+w, allocs+a
	}
	return reads, writes, allocs
}

// ResetStats zeroes what Stats and DiskStats report (SHOW STATS RESET).
func (p *Pool) ResetStats() {
	p.relMu.Lock()
	defer p.relMu.Unlock()
	p.retired, p.retiredIO = PoolStats{}, [3]int64{}
	for _, bp := range p.rels {
		bp.ResetStats()
		bp.dm.Stats().Reset()
	}
}

// claimLocked resolves page id to a frame, the first step of
// Fetch and NewPage alike. Exactly one outcome holds:
// resident — fi is the frame already caching id (no pin taken); e != nil
// — a read of id is in flight; err != nil — every frame is pinned or
// uncommitted; otherwise fi is a victim frame now claimed for id: pinned
// once and invalid, so the evictor skips it and nothing reaches it
// through the table until publishLocked.
//
// "Pool exhausted" can be transient: concurrent misses each claim a
// frame for the duration of their read, so a small pool under a miss
// burst may have every frame pinned by reads about to complete, so
// claimLocked waits for any in-flight read to publish and retries from
// the top (the page itself may have arrived meanwhile); with no reads in
// flight the exhaustion is real. Caller holds the pool mutex, which is
// released only around that wait.
func (bp *BufferPool) claimLocked(id PageID) (fi int, resident bool, e *inflightRead, err error) {
	p, key := bp.pool, bp.key(id)
	for {
		if cached, ok := p.table[key]; ok {
			return cached, true, nil, nil
		}
		if pending, ok := p.inflight[key]; ok {
			return 0, false, pending, nil
		}
		if fi, err = p.victimLocked(); err == nil {
			f := &p.frames[fi]
			f.rel, f.id = bp, id
			f.valid = false
			f.pin.Store(1)
			return fi, false, nil, nil
		}
		done := p.anyInflightDone()
		if done == nil {
			return 0, false, nil, err
		}
		p.mu.Unlock()
		iw := p.waits.Begin(bp.waitIO)
		<-done
		p.waits.End(iw)
		p.lock()
	}
}

// publishLocked makes frame fi — claimed by claimLocked, or resident and
// being taken over by NewPage — the cached copy of page id. Every
// per-residency field is reset, so a frame carries no WAL horizon, pending
// flag or dirt over from the page it held before; the caller has already
// stored the pin count the frame becomes reachable with. Caller holds
// the pool mutex.
func (bp *BufferPool) publishLocked(fi int, id PageID) *frame {
	f := &bp.pool.frames[fi]
	f.rel, f.id = bp, id
	f.dirty = false
	f.ref.Store(true)
	f.lsn = 0
	f.imagedLSN = 0
	f.opPending = false
	f.unlogged = false
	f.valid = true
	bp.pool.table[bp.key(id)] = fi
	return f
}

// readClaimedLocked fills the frame claimLocked handed out with page id
// from disk and publishes it — Fetch's miss path. The read is a
// singleflight per page over the pool's in-flight table: an "I/O
// pending" entry is published and the pool mutex released for the
// read, so misses on different pages overlap their disk reads, while
// fetches of the same page register as waiters on the entry and park on
// its channel — exactly one disk read happens however many sessions
// miss together.
//
// The read keeps one pin for its caller, is charged to the relation's
// I/O wait event (transient errors retry with backoff; the bytes are
// checksum-verified) and — when the statement above armed a tracer —
// recorded as a page_read span on its timeline. Called with the pool
// mutex held, and returns with it held.
func (bp *BufferPool) readClaimedLocked(fi int, id PageID) error {
	p := bp.pool
	f := &p.frames[fi]
	e := &inflightRead{done: make(chan struct{}), fi: fi}
	p.inflight[bp.key(id)] = e
	p.mu.Unlock()
	sp := obs.Current().StartSpan("page_read", "io")
	err := bp.readPageRetry(id, f.data, bp.waitIO)
	sp.End()
	p.lock()
	delete(p.inflight, bp.key(id))
	if err != nil {
		e.err = err
		f.pin.Store(0) // still invalid: free for the next claim
	} else {
		// One store grants the reader's pin plus every waiter's before
		// the frame becomes reachable through the table, so no waiter
		// can find its page evicted underneath it.
		f.pin.Store(1 + e.waiters)
		bp.publishLocked(fi, id).unlogged = PageLSN(f.data) == 0 && !SlotAreaBlank(f.data)
	}
	close(e.done)
	return err
}

// Fetch pins the page with the given id, reading it from disk on a miss
// (readClaimedLocked). A fetch that finds its page's read already in
// flight waits on it instead of issuing a second one, counting as a miss
// (Hits+Misses == Accesses) and as an InflightJoin. Every fetch is a visit
// of an armed page trace.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.TracePage(id)
	p, st := bp.pool, &bp.stats
	p.lock()
	st.Accesses++
	fi, resident, e, err := bp.claimLocked(id)
	switch {
	case resident:
		st.Hits++
		f := &p.frames[fi]
		f.pin.Add(1)
		f.ref.Store(true)
	case e != nil:
		st.Misses++
		st.InflightJoins++
		e.waiters++
		p.mu.Unlock()
		// Park on the in-flight read; the publisher granted this pin
		// before closing done. Waiting on someone else's read is still
		// I/O wait from this session's point of view.
		iw := p.waits.Begin(bp.waitIO)
		<-e.done
		p.waits.End(iw)
		if e.err != nil {
			return nil, e.err
		}
		fi = e.fi
		bp.keep(id, p.frames[fi].data)
		return &Page{ID: id, Data: p.frames[fi].data, frame: fi}, nil
	default:
		// A real miss — counted even when no frame could be claimed, so
		// the Hits+Misses == Accesses identity survives the error.
		st.Misses++
		if err == nil {
			err = bp.readClaimedLocked(fi, id)
		}
	}
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	bp.keep(id, p.frames[fi].data)
	return &Page{ID: id, Data: p.frames[fi].data, frame: fi}, nil
}

// NewPage allocates a fresh zeroed page on disk and returns it pinned.
func (bp *BufferPool) NewPage() (*Page, error) {
	id, err := bp.dm.AllocatePage()
	if err != nil {
		return nil, err
	}
	p := bp.pool
	p.lock()
	defer p.mu.Unlock()
	bp.stats.Accesses++
	bp.stats.Misses++
	var fi int
	var resident bool
	for {
		// A concurrent demand Fetch of the just-allocated page can be
		// reading it already (AllocatePage zero-fills it on disk before
		// returning, so the page is fetchable through NumPages). Defuse
		// rather than double-buffer: wait out an in-flight read of our id,
		// then take over the published frame.
		var e *inflightRead
		if fi, resident, e, err = bp.claimLocked(id); err != nil {
			return nil, err
		}
		if e == nil {
			break
		}
		p.mu.Unlock()
		<-e.done
		p.lock()
	}
	if resident {
		p.frames[fi].pin.Add(1)
	}
	f := bp.publishLocked(fi, id)
	for i := range f.data {
		f.data[i] = 0
	}
	f.dirty = true // must reach disk even if never modified again
	bp.keep(id, nil)
	return &Page{ID: id, Data: f.data, frame: fi}, nil
}

// Unpin releases one pin on p. dirty marks the frame as modified, which
// only a pool with no log attached accepts: with a WAL, every change to a
// page is logged by its owner's record (UnpinDeferred), and a dirty Unpin
// — a change that would reach the disk unlogged — panics, naming the file
// and the page, before it drops the pin.
//
// A clean unpin is lock-free: it validates, sets the reference bit, and
// decrements the atomic pin count. The frame cannot be evicted (its id,
// valid bit, and data reassigned) while the pin is held, and the evictor
// observes the decrement through the same atomic.
func (bp *BufferPool) Unpin(p *Page, dirty bool) {
	if !dirty {
		f := &bp.pool.frames[p.frame]
		bp.validatePinned(f, p)
		f.ref.Store(true)
		f.pin.Add(-1)
		return
	}
	if bp.pool.WAL() != nil {
		panic(fmt.Sprintf("storage: dirty Unpin of page %d of %q with a log attached: the change would reach the disk unlogged (log it through UnpinDeferred)", p.ID, bp.fileName))
	}
	bp.pool.lock()
	defer bp.pool.mu.Unlock()
	bp.unpinLocked(p).dirty = true
}

// UnpinDeferred releases one pin on p, marking it dirty and covered by a
// record its owner builds — the one way a change to a page reaches the
// log, for every access method and for the meta page. build stages the
// record in the relation's pending group with the typed wal.Group builder
// of its choice (it receives the group and the name this relation's pages
// carry in log records) and returns the index the builder gave it; the
// pool remembers only that some record covers page p. The record is
// appended, with the rest of the statement's records and its commit
// marker, via StagePending, and the frame stays unevictable until
// ResolvePending assigns the record's LSN. With no WAL attached there is
// nothing to build: it is a plain dirty unpin.
func (bp *BufferPool) UnpinDeferred(p *Page, build func(g *wal.Group, file string) int) {
	if bp.pool.WAL() == nil {
		bp.Unpin(p, true)
		return
	}
	bp.opsMu.Lock()
	bp.opPages = append(bp.opPages, Staged{Page: p.ID, Index: build(&bp.ops, bp.fileName)})
	bp.opsMu.Unlock()
	bp.pool.lock()
	defer bp.pool.mu.Unlock()
	f := bp.unpinLocked(p)
	f.dirty = true
	f.opPending = true
}

// UnpinPut releases p after rec was stored at slot of its slotted page,
// logging a slot-put: what was stored where. Recovery replays it through
// the slotted-page redo.
func (bp *BufferPool) UnpinPut(p *Page, slot int, rec []byte) {
	bp.UnpinDeferred(p, func(g *wal.Group, file string) int {
		return g.AddSlotPut(file, uint32(p.ID), uint16(slot), rec)
	})
}

// UpdateSlot stores rec over the record in slot of the pinned page p,
// where it lies, as SlotUpdate does — false when rec does not fit the
// page — first taking what the rewrite changes (AppendSlotPatch) while the
// old bytes are still there to compare. UnpinUpdate logs it.
func (bp *BufferPool) UpdateSlot(p *Page, slot int, rec []byte) bool {
	bp.patch, _ = AppendSlotPatch(bp.patch[:0], SlotRead(p.Data, slot), rec)
	return SlotUpdate(p.Data, slot, rec)
}

// UnpinUpdate is UnpinPut for the record UpdateSlot stored in slot: the
// rewrite is logged as the slot patch UpdateSlot took when that is smaller
// than rec, and as a slot put otherwise.
func (bp *BufferPool) UnpinUpdate(p *Page, slot int, rec []byte) {
	if len(bp.patch) == 0 {
		bp.UnpinPut(p, slot, rec)
		return
	}
	bp.UnpinDeferred(p, func(g *wal.Group, file string) int {
		return g.AddSlotPatch(file, uint32(p.ID), uint16(slot), bp.patch)
	})
}

// UnpinDelete is UnpinPut for a record removed from slot.
func (bp *BufferPool) UnpinDelete(p *Page, slot int) {
	bp.UnpinDeferred(p, func(g *wal.Group, file string) int {
		return g.AddSlotDelete(file, uint32(p.ID), uint16(slot))
	})
}

// UnpinRewrite stores rec over the record in slot of the pinned page p
// where it lies (UpdateSlot), logs the change (UnpinUpdate) and unpins p.
// A record that does not fit leaves the page as it was.
func (bp *BufferPool) UnpinRewrite(p *Page, slot int, rec []byte) error {
	if !bp.UpdateSlot(p, slot, rec) {
		bp.Unpin(p, false)
		return fmt.Errorf("storage: %s: a record of %d bytes does not fit slot %d of page %d", bp.fileName, len(rec), slot, p.ID)
	}
	bp.UnpinUpdate(p, slot, rec)
	return nil
}

// NewRecordPage allocates a page whose one record, in slot 0, is rec, and
// logs it as a slot-put: a file's meta page, or the node page of a tree
// that keeps one node a page.
func (bp *BufferPool) NewRecordPage(rec []byte) (PageID, error) {
	p, err := bp.NewPage()
	if err != nil {
		return InvalidPageID, err
	}
	SlotInit(p.Data)
	if _, ok := SlotInsert(p.Data, rec); !ok {
		bp.Unpin(p, false)
		return InvalidPageID, fmt.Errorf("storage: %s: a record of %d bytes does not fit a page", bp.fileName, len(rec))
	}
	bp.UnpinPut(p, 0, rec)
	return p.ID, nil
}

// Staged names one record a StagePending call added to a wal.Group: the
// page it covers and its index into the LSNs AppendGroup(Commit)
// returns. ResolvePending consumes it.
type Staged struct {
	Page  PageID
	Index int
	Image bool
}

// StagePending moves the relation's deferred records, staged by
// UnpinDeferred, into g for one atomic group append, with the first-touch
// images they need behind them (stageFullPageImages). The covered frames
// keep their pending flags (and stay unevictable) until ResolvePending
// stamps the assigned LSNs. The caller must serialize
// StagePending/ResolvePending pairs per relation (the executor's
// per-table writer lock and exclusive DDL lock do).
func (bp *BufferPool) StagePending(g *wal.Group) []Staged {
	w := bp.pool.WAL()
	if w == nil {
		return nil
	}
	return bp.stageFullPageImages(g, w, bp.takeDeferred(g))
}

// takeDeferred moves the relation's deferred logical records into g and
// returns what each covers, indexed into g.
func (bp *BufferPool) takeDeferred(g *wal.Group) []Staged {
	bp.opsMu.Lock()
	defer bp.opsMu.Unlock()
	staged := bp.opPages
	if len(staged) == 0 {
		return nil
	}
	base := g.Extend(&bp.ops)
	bp.ops.Reset()
	bp.opPages = nil
	for i := range staged {
		staged[i].Index += base
	}
	return staged
}

// stageFullPageImages appends a full image of each distinct page covered
// by the logical records staged whose content is not
// reconstructible from the surviving log alone — the page's first touch
// since the last checkpoint (Postgres-style full-page writes). The image
// is appended after the page's records, so it holds their effect too.
//
// Torn-page repair needs it: recovery reinitializes a page whose checksum
// does not match and replays the records that cover it, which restores
// everything only when the log still reaches back to the page's creation
// or holds a full image of it, and a checkpoint recycles the older
// segments. Before the first checkpoint the log is complete since the
// creation of every page written under it, and only a page written outside
// it needs an image: an index build's (which syncs its file before any
// record names it) or a session's without a log.
func (bp *BufferPool) stageFullPageImages(g *wal.Group, w *wal.Writer, staged []Staged) []Staged {
	nOps, ckpt := len(staged), w.CheckpointLSN()
	if nOps == 0 {
		return staged
	}
	// A page's records mostly run together; imaged keeps a page that
	// recurs later from a second image.
	var imaged map[PageID]bool
	prev := InvalidPageID
	p := bp.pool
	for _, op := range staged[:nOps] {
		id := op.Page
		if id == prev || imaged[id] {
			continue
		}
		prev = id
		p.lock()
		fi, ok := p.table[bp.key(id)]
		if !ok {
			// Unreachable: frames with deferred ops are opPending and
			// therefore unevictable until resolved.
			p.mu.Unlock()
			continue
		}
		f := &p.frames[fi]
		if f.imagedLSN > ckpt || PageLSN(f.data) > uint64(ckpt) || (ckpt == 0 && !f.unlogged) {
			// An image of this page from after the checkpoint already
			// survives in the log — logged directly, or implied by a
			// record whose own statement forced one before stamping the
			// pageLSN — or, before the first checkpoint, its creation.
			p.mu.Unlock()
			continue
		}
		if imaged == nil {
			imaged = make(map[PageID]bool)
		}
		imaged[id] = true
		// The image, its hole (pageHole) left out, is copied under the
		// lock and staged with the lock released.
		off, n := pageHole(f.data)
		if len(bp.imageCopy) != len(f.data) {
			bp.imageCopy = make([]byte, len(f.data))
		}
		copy(bp.imageCopy, f.data[:off])
		copy(bp.imageCopy[off+n:], f.data[off+n:])
		p.mu.Unlock()
		staged = append(staged, Staged{Page: id, Index: g.AddPageImage(bp.fileName, uint32(id), bp.imageCopy, off, n), Image: true})
	}
	return staged
}

// ResolvePending stamps the LSNs assigned by the group append onto the
// staged frames: the WAL-before-data horizon advances, logical records
// stamp the pageLSN (for redo idempotence), and the pending
// flags clear, making the frames evictable again. lsns is the slice
// AppendGroup(Commit) returned for the group the Staged indices point
// into.
//
// staged runs in group order, and a page covered by several records is
// resolved from its last record back: the pass that clears its pending
// flag, and so makes it writable by eviction, stamps the pageLSN of the
// last record whose effect the page holds. In
// group order, a page would be writable between its first and last
// record with a pageLSN behind its content, and redo would apply the
// later records a second time.
func (bp *BufferPool) ResolvePending(staged []Staged, lsns []wal.LSN) {
	p := bp.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(staged) - 1; i >= 0; i-- {
		s := staged[i]
		lsn := lsns[s.Index]
		fi, ok := p.table[bp.key(s.Page)]
		if !ok {
			// Unreachable: pending frames are unevictable until resolved.
			continue
		}
		f := &p.frames[fi]
		if lsn > f.lsn {
			f.lsn = lsn
		}
		if s.Image {
			if lsn > f.imagedLSN {
				f.imagedLSN = lsn
			}
		} else {
			f.opPending = false
			if PageLSN(f.data) < uint64(lsn) {
				SetPageLSN(f.data, uint64(lsn))
			}
		}
	}
}

// flushDeferredOps appends any still-deferred logical records directly
// (no commit marker). Only flush paths call it — Close and CHECKPOINT
// run under the exclusive statement lock, where a deferred record can
// only belong to an aborted statement whose pages are about to be made
// durable anyway; the checkpoint or close marker that follows commits
// them.
func (bp *BufferPool) flushDeferredOps() error {
	w := bp.pool.WAL()
	if w == nil {
		return nil
	}
	g := wal.NewGroup()
	staged := bp.takeDeferred(g)
	if len(staged) == 0 {
		return nil
	}
	staged = bp.stageFullPageImages(g, w, staged)
	lsns, err := w.AppendGroup(g)
	if err != nil {
		return err
	}
	bp.ResolvePending(staged, lsns)
	return nil
}

// validatePinned panics on unpin misuse (stale page, double unpin).
func (bp *BufferPool) validatePinned(f *frame, p *Page) {
	if !f.valid || f.rel != bp || f.id != p.ID {
		panic(fmt.Sprintf("storage: unpin of stale page %d of %q", p.ID, bp.fileName))
	}
	if f.pin.Load() <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d of %q", p.ID, bp.fileName))
	}
}

// unpinLocked validates and drops one pin, returning the frame. Caller
// holds the pool mutex.
func (bp *BufferPool) unpinLocked(p *Page) *frame {
	f := &bp.pool.frames[p.frame]
	bp.validatePinned(f, p)
	f.ref.Store(true)
	f.pin.Add(-1)
	return f
}

// victimLocked finds a free or evictable frame, writing back a dirty
// victim — of whichever relation it holds a page of. Caller holds the
// pool mutex.
func (p *Pool) victimLocked() (int, error) {
	n := len(p.frames)
	// No-steal rule: with a WAL attached, a dirty frame whose latest
	// record is past the last commit marker holds uncommitted state.
	// Writing it in place would require an undo pass at recovery (the
	// redo log cannot take the row back out of the data file), so such
	// frames are as unevictable as pinned ones until their statement
	// commits.
	w := p.WAL()
	committed := wal.LSN(0)
	if w != nil {
		committed = w.CommittedLSN()
	}
	// Two full sweeps: the first clears reference bits, the second takes
	// the first unpinned frame. The pin check comes before the validity
	// check: an in-flight read's claimed frame is pinned but not yet
	// valid, and must never be handed out as "free".
	for sweep := 0; sweep < 2*n+1; sweep++ {
		f := &p.frames[p.hand]
		i := p.hand
		p.hand = (p.hand + 1) % n
		if f.pin.Load() > 0 {
			continue
		}
		if !f.valid {
			return i, nil
		}
		if f.dirty && (f.opPending || f.lsn > committed) {
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			continue
		}
		st := &f.rel.stats
		if f.dirty {
			// WAL-before-data, including the commit marker covering
			// this frame's statement: if only the records (not the
			// marker) were durable at a crash, recovery would discard
			// them as an uncommitted tail while the page survived.
			if err := syncWAL(w, max(f.lsn, committed)); err != nil {
				return 0, err
			}
			if err := f.rel.writePageRetry(f.id, f.data); err != nil {
				return 0, err
			}
			st.DirtyWrites++
		}
		delete(p.table, f.rel.key(f.id))
		f.valid = false
		st.Evictions++
		return i, nil
	}
	return 0, fmt.Errorf("storage: buffer pool exhausted (%d frames, all pinned or uncommitted)", n)
}

// syncWAL enforces WAL-before-data: with a log attached, the log must be
// durable up to lsn before the page it covers may be written in place.
// It also surfaces any sticky log error even when lsn is zero.
func syncWAL(w *wal.Writer, lsn wal.LSN) error {
	if w == nil {
		return nil
	}
	return w.Sync(lsn)
}

// FlushAll writes every dirty frame of the relation back to disk. Pages
// stay cached. Deferred records are appended first, keeping
// WAL-before-data intact for frames whose records were postponed to the
// commit point.
//
// Callers must hold the exclusive statement lock (CHECKPOINT, Close
// and an index build all do): frames are checksum-stamped and written
// in place, which tolerates no concurrent pins on the frame. A pinned
// dirty frame here is a locking bug and panics rather than racing the
// reader on the header bytes.
func (bp *BufferPool) FlushAll() error {
	if err := bp.flushDeferredOps(); err != nil {
		return err
	}
	return bp.pool.flushFrames(bp)
}

// FlushAll is the relations' FlushAll in one sweep of the frames — the
// CHECKPOINT of the whole pool.
func (p *Pool) FlushAll() error {
	for _, bp := range p.Relations() {
		if err := bp.flushDeferredOps(); err != nil {
			return err
		}
	}
	return p.flushFrames(nil)
}

// flushFrames writes back the dirty frames of rel (of every relation when
// nil), each once the log is durable up to its latest record.
func (p *Pool) flushFrames(rel *BufferPool) error {
	w := p.WAL()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if !f.valid || !f.dirty || (rel != nil && f.rel != rel) {
			continue
		}
		if n := f.pin.Load(); n != 0 {
			panic(fmt.Sprintf("storage: FlushAll of page %d of %q with %d pins held", f.id, f.rel.fileName, n))
		}
		if err := syncWAL(w, f.lsn); err != nil {
			return err
		}
		if err := f.rel.writePageRetry(f.id, f.data); err != nil {
			return err
		}
		f.rel.stats.DirtyWrites++
		f.dirty = false
	}
	return nil
}

// Close flushes the relation's dirty pages, drops its frames from the
// pool and closes the disk manager.
func (bp *BufferPool) Close() error {
	if err := bp.FlushAll(); err != nil {
		return err
	}
	return bp.Crash()
}

// Crash discards the relation's frames — dirty or not, pinned or not —
// without writing anything back, detaches the relation from the pool,
// whose totals keep its counters, and closes its disk manager: the loss
// of volatile state in a crash, and how a doomed relation (a committed
// DROP, a failed DDL statement) frees its frames without its dirty pages
// reaching the log or the file.
func (bp *BufferPool) Crash() error {
	p := bp.pool
	p.mu.Lock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.rel != bp {
			continue
		}
		if f.valid {
			delete(p.table, bp.key(f.id))
		}
		*f = frame{data: f.data}
	}
	p.mu.Unlock()
	bp.opsMu.Lock()
	bp.ops.Reset()
	bp.opPages = nil
	bp.opsMu.Unlock()
	st := bp.Stats()
	r, w, a := bp.dm.Stats().Snapshot()
	p.relMu.Lock()
	n := len(p.rels)
	p.rels = slices.DeleteFunc(p.rels, func(r *BufferPool) bool { return r == bp })
	if len(p.rels) < n { // a second Crash counts nothing twice
		p.retired.add(st)
		p.retiredIO[0] += r
		p.retiredIO[1] += w
		p.retiredIO[2] += a
	}
	p.relMu.Unlock()
	return bp.dm.Close()
}

// Close closes every relation of the pool (BufferPool.Close), returning
// the first error.
func (p *Pool) Close() error { return p.each((*BufferPool).Close) }

// Crash crashes every relation of the pool (BufferPool.Crash), returning
// the first error.
func (p *Pool) Crash() error { return p.each((*BufferPool).Crash) }

func (p *Pool) each(fn func(*BufferPool) error) error {
	var firstErr error
	for _, bp := range p.Relations() {
		if err := fn(bp); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
