package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
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

// TestConcurrentMissesOverlap: misses on *different* pages must overlap
// their disk reads. With a 20ms simulated read latency, eight reads
// serialized under the pool mutex would take ≥160ms; overlapped they must
// finish in under half of that.
func TestConcurrentMissesOverlap(t *testing.T) {
	const pages = 8
	const delay = 20 * time.Millisecond
	dm, _ := asyncTestDisk(t, pages, delay)
	bp := NewBufferPool("", dm, 16)
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
// fails with "pool exhausted". So the pinners — not the goroutines, not
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
	bp := NewBufferPool("", dm, frames) // 4 frames: maximum eviction pressure
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
	if _, err := bp.Fetch(4); err == nil || !strings.Contains(err.Error(), "pool exhausted") {
		t.Fatalf("fetch with all 4 frames pinned: err = %v, want pool exhausted", err)
	}
	st := bp.Stats()
	if st.Accesses != 5 || st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits(%d)+misses(%d) != accesses(%d), want 5 accesses", st.Hits, st.Misses, st.Accesses)
	}
}

// pageWrites records a copy of every write of one page.
type pageWrites struct {
	DiskManager
	id PageID

	mu    sync.Mutex
	snaps [][]byte
}

func (d *pageWrites) WritePage(id PageID, buf []byte) error {
	if id == d.id {
		d.mu.Lock()
		d.snaps = append(d.snaps, bytes.Clone(buf))
		d.mu.Unlock()
	}
	return d.DiskManager.WritePage(id, buf)
}

func (d *pageWrites) written() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.snaps)
}

// TestEvictionSeesWholeGroups: a page that several records of one group
// cover becomes evictable only with the pageLSN of the last of them. An
// evictor fetching other pages through the same 8-frame pool beside the
// commits must never put a page on disk whose content runs ahead of its
// pageLSN: redo would apply the records in between a second time. The
// evictor has to run beside ResolvePending to see a half-resolved page,
// so the test catches one only with two or more Ps.
func TestEvictionSeesWholeGroups(t *testing.T) {
	w := openMarkedWAL(t, t.TempDir(), wal.Options{Mode: wal.SyncLazy})
	defer w.Close()
	mem := NewMem(2048)
	const others = 16 // the evictor's pages, twice the pool
	for i := 0; i < others; i++ {
		if _, err := mem.AllocatePage(); err != nil {
			t.Fatal(err)
		}
	}
	disk := &pageWrites{DiskManager: mem, id: others}
	bp := NewBufferPool("t.tbl", disk, 8)
	bp.pool.AttachWAL(w)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID
	if id != disk.id {
		t.Fatalf("new page %d, want %d", id, disk.id)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	stopEvictor := sync.OnceFunc(func() { close(stop); <-done })
	t.Cleanup(stopEvictor)
	go func() {
		defer close(done)
		for i := 0; ; i = (i + 1) % others {
			select {
			case <-stop:
				return
			default:
			}
			q, err := bp.Fetch(PageID(i))
			if err != nil {
				t.Error(err)
				return
			}
			bp.Unpin(q, false)
		}
	}()

	// Record i sets body byte i; each group covers the page perGroup times.
	const groups, perGroup = 6, 256
	var lsnOf []wal.LSN
	for g := 0; g < groups; g++ {
		before := disk.written()
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
		// The page is evictable now; wait for the evictor to write it.
		for deadline := time.Now().Add(10 * time.Second); disk.written() == before; {
			if time.Now().After(deadline) {
				t.Fatalf("group %d: the evictor never wrote the page", g)
			}
			runtime.Gosched()
		}
	}
	stopEvictor()

	for _, snap := range disk.snaps {
		pageLSN := wal.LSN(PageLSN(snap))
		for i, lsn := range lsnOf {
			if applied := snap[PageHeaderSize+i] == 1; applied != (lsn <= pageLSN) {
				t.Fatalf("page written with pageLSN %d: record %d (LSN %d) applied = %v", pageLSN, i, lsn, applied)
			}
		}
	}
}
