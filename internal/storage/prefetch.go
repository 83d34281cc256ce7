package storage

import "sync"

// Prefetcher is a small pool of worker goroutines that pull pages into
// a buffer pool ahead of the scans that will want them. One prefetcher
// serves every relation of a database's pool (heap files and indexes
// alike): readahead demand is bursty per file but bounded overall, and a
// shared bounded queue caps the background I/O the whole system can
// generate.
//
// Requests enter through BufferPool.Prefetch, which drops on a full
// queue rather than blocking — a missed prefetch costs a demand read
// later, never a stall now. Each request runs the pool's singleflight
// claim/read/publish protocol (BufferPool.prefetchOne), so a prefetch
// and a demand fetch of the same page can never both read from disk.
//
// Close drains the queue and stops the workers; callers must ensure no
// relation can enqueue anymore (relations quiesce their prefetch work in
// Close/Crash, and the executor closes the prefetcher after its pool).
type Prefetcher struct {
	tasks     chan prefetchTask
	wg        sync.WaitGroup
	closeOnce sync.Once
}

type prefetchTask struct {
	bp *BufferPool
	id PageID
}

// DefaultPrefetchWorkers sizes the worker pool when the caller passes 0.
// A handful of workers keeps several reads in flight — enough to cover a
// scan's readahead window — without swamping the device.
const DefaultPrefetchWorkers = 4

// DefaultPrefetchQueue bounds the request backlog when the caller
// passes 0.
const DefaultPrefetchQueue = 64

// NewPrefetcher starts a prefetcher with the given worker count and
// queue depth (zeros take the defaults).
func NewPrefetcher(workers, queue int) *Prefetcher {
	if workers <= 0 {
		workers = DefaultPrefetchWorkers
	}
	if queue <= 0 {
		queue = DefaultPrefetchQueue
	}
	pf := &Prefetcher{tasks: make(chan prefetchTask, queue)}
	pf.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go pf.worker()
	}
	return pf
}

func (pf *Prefetcher) worker() {
	defer pf.wg.Done()
	for t := range pf.tasks {
		t.bp.prefetchOne(t.id)
		t.bp.prefetchActive.Done()
	}
}

// enqueue offers a task without blocking; false means the queue is full
// and the request was dropped.
func (pf *Prefetcher) enqueue(t prefetchTask) bool {
	select {
	case pf.tasks <- t:
		return true
	default:
		return false
	}
}

// Close stops the workers after the queued tasks drain. Safe to call
// more than once; no pool may enqueue concurrently with or after Close.
func (pf *Prefetcher) Close() {
	pf.closeOnce.Do(func() {
		close(pf.tasks)
		pf.wg.Wait()
	})
}
