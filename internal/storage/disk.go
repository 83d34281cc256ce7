// Package storage provides the disk substrate shared by every access
// method in this repository: fixed-size pages backed by a file (or by
// memory in tests), a clock-replacement buffer pool with pin/unpin
// semantics and I/O accounting, and a slotted-page record layout.
//
// This substitutes for the PostgreSQL storage manager and buffer manager
// that the paper's SP-GiST implementation talks to through the
// "PostgreSQL storage interface" (paper section 4.2). The unit of cost in
// every experiment is the page access, so the substrate counts logical
// accesses, buffer hits, and physical reads/writes.
package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPageSize is the page size used throughout the repository. It
// matches PostgreSQL's default block size.
const DefaultPageSize = 8192

// PageID identifies a page within one DiskManager. Page 0 is always the
// metadata page of whatever structure owns the file.
type PageID uint32

// InvalidPageID is the sentinel "no page" value.
const InvalidPageID PageID = 0xFFFFFFFF

// IOStats counts physical page traffic at the DiskManager level.
type IOStats struct {
	Reads  atomic.Int64
	Writes atomic.Int64
	Allocs atomic.Int64
}

// Snapshot returns a plain-value copy of the counters.
func (s *IOStats) Snapshot() (reads, writes, allocs int64) {
	return s.Reads.Load(), s.Writes.Load(), s.Allocs.Load()
}

// Reset zeroes the counters (SHOW STATS RESET).
func (s *IOStats) Reset() {
	s.Reads.Store(0)
	s.Writes.Store(0)
	s.Allocs.Store(0)
}

// DiskManager reads and writes fixed-size pages by PageID.
type DiskManager interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// ReadPage fills buf (len == PageSize) with the page contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len == PageSize) as the page contents.
	WritePage(id PageID, buf []byte) error
	// AllocatePage extends the file by one zeroed page.
	AllocatePage() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() uint32
	// Stats exposes the physical I/O counters.
	Stats() *IOStats
	// Sync flushes to stable storage.
	Sync() error
	// Close releases the underlying resource.
	Close() error
}

// FileDiskManager is a DiskManager over a single operating-system file.
//
// Reads and writes are positional (pread/pwrite via File.ReadAt/WriteAt)
// and take no lock, so concurrent page I/O never serializes here; the
// mutex only orders file extension in AllocatePage.
type FileDiskManager struct {
	mu       sync.Mutex // guards AllocatePage's read-extend-publish of numPages
	f        *os.File
	pageSize int
	numPages atomic.Uint32
	stats    IOStats
}

// OpenFile opens (creating if necessary) a page file at path.
func OpenFile(path string, pageSize int) (*FileDiskManager, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of page size %d", path, st.Size(), pageSize)
	}
	d := &FileDiskManager{f: f, pageSize: pageSize}
	d.numPages.Store(uint32(st.Size() / int64(pageSize)))
	return d, nil
}

// PageSize implements DiskManager.
func (d *FileDiskManager) PageSize() int { return d.pageSize }

// NumPages implements DiskManager.
func (d *FileDiskManager) NumPages() uint32 { return d.numPages.Load() }

// Stats implements DiskManager.
func (d *FileDiskManager) Stats() *IOStats { return &d.stats }

// ReadPage implements DiskManager.
func (d *FileDiskManager) ReadPage(id PageID, buf []byte) error {
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read buffer size %d != page size %d", len(buf), d.pageSize)
	}
	if n := d.numPages.Load(); uint32(id) >= n {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, n)
	}
	if _, err := d.f.ReadAt(buf, int64(id)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	d.stats.Reads.Add(1)
	return nil
}

// WritePage implements DiskManager.
func (d *FileDiskManager) WritePage(id PageID, buf []byte) error {
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: write buffer size %d != page size %d", len(buf), d.pageSize)
	}
	if n := d.numPages.Load(); uint32(id) >= n {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, n)
	}
	if _, err := d.f.WriteAt(buf, int64(id)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	d.stats.Writes.Add(1)
	return nil
}

// AllocatePage implements DiskManager.
func (d *FileDiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.numPages.Load())
	zero := make([]byte, d.pageSize)
	if _, err := d.f.WriteAt(zero, int64(id)*int64(d.pageSize)); err != nil {
		return InvalidPageID, fmt.Errorf("storage: extend to page %d: %w", id, err)
	}
	d.numPages.Add(1)
	d.stats.Allocs.Add(1)
	return id, nil
}

// Sync implements DiskManager.
func (d *FileDiskManager) Sync() error { return d.f.Sync() }

// Close implements DiskManager.
func (d *FileDiskManager) Close() error { return d.f.Close() }

// MemDiskManager is an in-memory DiskManager used by tests and by the
// benchmark harness when it wants to exclude the filesystem from
// measurements while keeping page-level accounting.
//
// Page I/O takes the lock shared so concurrent reads (and writes to
// distinct pages) proceed in parallel, mirroring the positional-I/O file
// manager: benches against the mock measure pool behavior, not a mock
// mutex. Exclusion per page is the buffer pool's job — it never issues
// two concurrent I/Os for the same PageID — so only AllocatePage, which
// grows the slice, needs the lock exclusive.
type MemDiskManager struct {
	mu       sync.RWMutex
	pages    [][]byte
	pageSize int
	stats    IOStats
}

// NewMem returns an empty in-memory disk with the given page size.
func NewMem(pageSize int) *MemDiskManager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemDiskManager{pageSize: pageSize}
}

// PageSize implements DiskManager.
func (d *MemDiskManager) PageSize() int { return d.pageSize }

// NumPages implements DiskManager.
func (d *MemDiskManager) NumPages() uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint32(len(d.pages))
}

// Stats implements DiskManager.
func (d *MemDiskManager) Stats() *IOStats { return &d.stats }

// ReadPage implements DiskManager.
func (d *MemDiskManager) ReadPage(id PageID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", id, len(d.pages))
	}
	copy(buf, d.pages[id])
	d.stats.Reads.Add(1)
	return nil
}

// WritePage implements DiskManager.
func (d *MemDiskManager) WritePage(id PageID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d (have %d)", id, len(d.pages))
	}
	copy(d.pages[id], buf)
	d.stats.Writes.Add(1)
	return nil
}

// AllocatePage implements DiskManager.
func (d *MemDiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, d.pageSize))
	d.stats.Allocs.Add(1)
	return PageID(len(d.pages) - 1), nil
}

// Sync implements DiskManager.
func (d *MemDiskManager) Sync() error { return nil }

// Close implements DiskManager.
func (d *MemDiskManager) Close() error { return nil }

// LatencyDiskManager wraps another DiskManager and sleeps for a fixed
// duration on every page read/write. The async-read tests use it to
// model a device with non-trivial access latency: on a fast local
// filesystem (or the in-memory mock) page reads complete in microseconds
// and any concurrency win in the read path drowns in noise, whereas with
// a simulated seek the benefit of overlapping independent misses — the
// whole point of the in-flight table — is directly visible. Sleeping
// rather than spinning means concurrent operations genuinely overlap
// even on a single CPU.
type LatencyDiskManager struct {
	DiskManager
	ReadDelay  time.Duration
	WriteDelay time.Duration
}

// WithLatency wraps dm so reads (writes) take at least readDelay
// (writeDelay) of simulated device time.
func WithLatency(dm DiskManager, readDelay, writeDelay time.Duration) *LatencyDiskManager {
	return &LatencyDiskManager{DiskManager: dm, ReadDelay: readDelay, WriteDelay: writeDelay}
}

// ReadPage implements DiskManager.
func (d *LatencyDiskManager) ReadPage(id PageID, buf []byte) error {
	if d.ReadDelay > 0 {
		time.Sleep(d.ReadDelay)
	}
	return d.DiskManager.ReadPage(id, buf)
}

// WritePage implements DiskManager.
func (d *LatencyDiskManager) WritePage(id PageID, buf []byte) error {
	if d.WriteDelay > 0 {
		time.Sleep(d.WriteDelay)
	}
	return d.DiskManager.WritePage(id, buf)
}
