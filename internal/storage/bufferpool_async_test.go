package storage

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// asyncTestDisk builds an in-memory disk of n pre-allocated pages whose
// contents encode their own page number, wrapped in a read delay so
// concurrent misses demonstrably overlap. Returns the wrapper and the
// mem disk (for its I/O counters).
func asyncTestDisk(t *testing.T, n int, readDelay time.Duration) (*LatencyDiskManager, *MemDiskManager) {
	t.Helper()
	mem := NewMem(256)
	buf := make([]byte, 256)
	for i := 0; i < n; i++ {
		id, err := mem.AllocatePage()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf, uint32(id))
		StampPageChecksum(buf)
		if err := mem.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	mem.Stats().Reset()
	return WithLatency(mem, readDelay, 0), mem
}

// checkPage verifies a fetched page carries the content asyncTestDisk
// stamped for its id.
func checkPage(p *Page) error {
	if got := PageID(binary.LittleEndian.Uint32(p.Data)); got != p.ID {
		return fmt.Errorf("page %d carries content of page %d", p.ID, got)
	}
	return nil
}

// TestSingleflightColdMiss: N goroutines missing on the same cold page
// must issue exactly one disk read, and every one of them must get the
// frame. Run under -race this also exercises the in-flight entry's
// publish/wait handshake.
func TestSingleflightColdMiss(t *testing.T) {
	const goroutines = 32
	dm, mem := asyncTestDisk(t, 8, 5*time.Millisecond)
	bp := NewBufferPool("", dm, 16)

	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			<-start
			p, err := bp.Fetch(5)
			if err != nil {
				errs <- err
				return
			}
			err = checkPage(p)
			bp.Unpin(p, false)
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if reads, _, _ := mem.Stats().Snapshot(); reads != 1 {
		t.Fatalf("%d goroutines missing one cold page performed %d disk reads, want exactly 1", goroutines, reads)
	}
	st := bp.Stats()
	if st.Accesses != goroutines {
		t.Fatalf("accesses = %d, want %d", st.Accesses, goroutines)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits(%d)+misses(%d) != accesses(%d)", st.Hits, st.Misses, st.Accesses)
	}
	// Whoever arrived while the read was in flight joined it; whoever
	// arrived after publication scored a plain hit. Either way no second
	// read happened, and at least the claimer missed.
	if st.Misses < 1 || st.InflightJoins != st.Misses-1 {
		t.Fatalf("misses = %d with %d in-flight joins, want joins == misses-1", st.Misses, st.InflightJoins)
	}
}

// TestConcurrentMissesOverlap: misses on *different* pages of one shard
// must overlap their disk reads. With a 20ms simulated read latency,
// eight reads serialized under the shard mutex would take ≥160ms;
// overlapped they must finish in under half of that.
func TestConcurrentMissesOverlap(t *testing.T) {
	const pages = 8
	const delay = 20 * time.Millisecond
	dm, _ := asyncTestDisk(t, pages, delay)
	bp := NewBufferPool("", dm, 16) // one shard: every page contends on one mutex
	if bp.pool.NumShards() != 1 {
		t.Fatalf("want 1 shard for this test, got %d", bp.pool.NumShards())
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < pages; i++ {
		wg.Add(1)
		go func(id PageID) {
			defer wg.Done()
			p, err := bp.Fetch(id)
			if err != nil {
				t.Error(err)
				return
			}
			if err := checkPage(p); err != nil {
				t.Error(err)
			}
			bp.Unpin(p, false)
		}(PageID(i))
	}
	wg.Wait()
	serial := time.Duration(pages) * delay
	if overlapped := time.Since(start); overlapped >= serial/2 {
		t.Fatalf("in-flight table gave no overlap: %d reads of %v took %v, serialized would take %v", pages, delay, overlapped, serial)
	}
}

// TestEvictionVsInflightInterleaving hammers a pool whose working set is
// 5× its capacity from several goroutines, so in-flight claims, waiter
// joins, evictions, and clock sweeps constantly interleave. Every fetch
// must return the right content — a frame stolen mid-read would show up
// as a page carrying another page's bytes (and -race would flag the
// unsynchronized access).
//
// Every goroutine holds its pin across checkPage, and a pool cannot hand
// out more pins than it has frames: with all four frames pinned by
// preempted goroutines and no read in flight, a fifth Fetch correctly
// fails with "shard exhausted". So the pinners — not the goroutines, not
// the pages — are bounded by the frame count; the other goroutines queue
// on the semaphore and keep the four slots permanently contended.
func TestEvictionVsInflightInterleaving(t *testing.T) {
	const (
		pages      = 20
		goroutines = 8
		iters      = 150
		frames     = 4
	)
	dm, _ := asyncTestDisk(t, pages, 100*time.Microsecond)
	bp := NewBufferPool("", dm, frames) // 4 frames, 1 shard: maximum eviction pressure
	pinners := make(chan struct{}, frames)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			x := uint32(seed*2654435761 + 1)
			for i := 0; i < iters; i++ {
				x = x*1664525 + 1013904223
				id := PageID(x % pages)
				pinners <- struct{}{}
				p, err := bp.Fetch(id)
				if err == nil {
					err = checkPage(p)
					bp.Unpin(p, false)
				}
				<-pinners
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := bp.Stats()
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits(%d)+misses(%d) != accesses(%d)", st.Hits, st.Misses, st.Accesses)
	}
	if st.Evictions == 0 {
		t.Fatal("working set 5x pool size produced no evictions; test exercised nothing")
	}
}

// TestExhaustedFetchCountsAMiss: a Fetch that fails because every frame
// is pinned and no read is in flight is still an access that did not
// hit, so it must count as a miss — Hits+Misses == Accesses is the
// identity Stats documents and hit ratios divide by.
func TestExhaustedFetchCountsAMiss(t *testing.T) {
	dm, _ := asyncTestDisk(t, 5, 0)
	bp := NewBufferPool("", dm, 4)
	for id := PageID(0); id < 4; id++ {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		defer bp.Unpin(p, false)
	}
	if _, err := bp.Fetch(4); err == nil || !strings.Contains(err.Error(), "shard exhausted") {
		t.Fatalf("fetch with all 4 frames pinned: err = %v, want shard exhausted", err)
	}
	st := bp.Stats()
	if st.Accesses != 5 || st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits(%d)+misses(%d) != accesses(%d), want 5 accesses", st.Hits, st.Misses, st.Accesses)
	}
}

// TestBGWriterWALBeforeData: the background writer must never write a
// page whose WAL records are not durable — neither an uncommitted frame
// (skipped outright under no-steal) nor a committed one before its
// records and commit marker are synced.
func TestBGWriterWALBeforeData(t *testing.T) {
	w := openMarkedWAL(t, t.TempDir(), wal.Options{Mode: wal.SyncLazy})
	defer w.Close()
	mem := NewMem(256)
	bp := NewBufferPool("t.tbl", mem, 8)
	bp.pool.AttachWAL(w)

	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Data[0] = 7
	unpinInsert(bp, p, 0, []byte("u"))
	logPending(t, bp, w, false) // the record is logged, its marker is not
	mem.Stats().Reset()         // drop the allocation's zero-fill write

	// Uncommitted: the frame's record is past the last marker, so a
	// round must write nothing at all.
	n, err := bp.WriteBackDirty(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("background writer wrote %d uncommitted frames", n)
	}
	if _, writes, _ := mem.Stats().Snapshot(); writes != 0 {
		t.Fatalf("uncommitted page reached disk (%d writes)", writes)
	}

	// Committed but not yet durable (lazy sync): the round may write the
	// page only after forcing the log through the commit marker.
	if _, err := w.AppendCommit(); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() >= w.CommittedLSN() {
		t.Fatal("lazy mode synced prematurely; test cannot observe the invariant")
	}
	n, err = bp.WriteBackDirty(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("background writer wrote %d frames, want 1", n)
	}
	if w.DurableLSN() < w.CommittedLSN() {
		t.Fatalf("page written back while log durable only to %d < committed %d", w.DurableLSN(), w.CommittedLSN())
	}
	if _, writes, _ := mem.Stats().Snapshot(); writes != 1 {
		t.Fatalf("want exactly 1 page write, got %d", writes)
	}
	st := bp.Stats()
	if st.BGWrites != 1 || st.DirtyWrites != 1 {
		t.Fatalf("BGWrites=%d DirtyWrites=%d, want 1/1", st.BGWrites, st.DirtyWrites)
	}

	// The frame was cleaned in place, not evicted: a re-fetch must hit.
	before := bp.Stats().Hits
	p2, err := bp.Fetch(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Data[0] != 7 {
		t.Fatal("write-back corrupted the cached frame")
	}
	bp.Unpin(p2, false)
	if bp.Stats().Hits != before+1 {
		t.Fatal("background write-back evicted the frame instead of cleaning it")
	}
}

// TestBGWriterSeesWholeGroups: a page that several records of one group
// cover becomes writable only with the pageLSN of the last of them. A
// background writer spinning beside the commits must never put a page
// on disk whose content runs ahead of its pageLSN: redo would apply the
// records in between a second time. The writer has to run beside
// ResolvePending to see a half-resolved page, so the test catches one
// only with two or more Ps.
func TestBGWriterSeesWholeGroups(t *testing.T) {
	w := openMarkedWAL(t, t.TempDir(), wal.Options{Mode: wal.SyncLazy})
	defer w.Close()
	mem := NewMem(512)
	bp := NewBufferPool("t.tbl", mem, 8)
	bp.pool.AttachWAL(w)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID

	// The writer snapshots the page after each round that wrote it.
	var snaps [][]byte
	var written atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	stopWriter := sync.OnceFunc(func() { close(stop); <-done })
	t.Cleanup(stopWriter)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := bp.WriteBackDirty(8)
			if err != nil {
				t.Error(err)
				return
			}
			if n > 0 {
				buf := make([]byte, 512)
				if err := mem.ReadPage(id, buf); err != nil {
					t.Error(err)
					return
				}
				snaps = append(snaps, buf)
				written.Add(1)
			}
		}
	}()

	// Record i sets body byte i; each group covers the page perGroup times.
	const groups, perGroup = 6, 64
	var lsnOf []wal.LSN
	for g := 0; g < groups; g++ {
		before := written.Load()
		for j := 0; j < perGroup; j++ {
			i := g*perGroup + j
			if i > 0 {
				if p, err = bp.Fetch(id); err != nil {
					t.Fatal(err)
				}
			}
			p.Data[PageHeaderSize+i] = 1
			bp.UnpinDeferred(p, func(g *wal.Group, file string) int {
				return g.AddHeapInsert(file, uint32(id), uint16(i), []byte{1})
			})
		}
		lsnOf = append(lsnOf, logPending(t, bp, w, true)[:perGroup]...)
		// The page is writable now; wait for the writer to write it.
		for deadline := time.Now().Add(10 * time.Second); written.Load() == before; {
			if time.Now().After(deadline) {
				t.Fatalf("group %d: the background writer never wrote the page", g)
			}
			runtime.Gosched()
		}
	}
	stopWriter()

	for _, snap := range snaps {
		pageLSN := wal.LSN(PageLSN(snap))
		for i, lsn := range lsnOf {
			if applied := snap[PageHeaderSize+i] == 1; applied != (lsn <= pageLSN) {
				t.Fatalf("page written with pageLSN %d: record %d (LSN %d) applied = %v", pageLSN, i, lsn, applied)
			}
		}
	}
}

// TestBGWriterSkipsPinned: a pinned dirty frame is in active use and must
// not be written back under the holder.
func TestBGWriterSkipsPinned(t *testing.T) {
	mem := NewMem(256)
	bp := NewBufferPool("", mem, 8)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	mem.Stats().Reset()
	n, err := bp.WriteBackDirty(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("background writer wrote %d pinned frames", n)
	}
	bp.Unpin(p, true)
	n, err = bp.WriteBackDirty(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("after unpin want 1 write-back, got %d", n)
	}
}
