package storage

import (
	"errors"
	"fmt"
)

// ErrPageCorrupt reports a page whose stored checksum does not match the
// checksum recomputed over its bytes — a torn write, a bit flip, or any
// other corruption between the last successful write and this read. It
// is a terminal verdict about the bytes, not the device: retrying the
// read returns the same bytes, so the retry helpers in the buffer pool
// never retry it.
type ErrPageCorrupt struct {
	File     string // relation file name ("" when the pool has no name attached)
	PageID   PageID
	Expected uint32 // checksum stored in the page header
	Got      uint32 // checksum recomputed over the page bytes
}

func (e *ErrPageCorrupt) Error() string {
	file := e.File
	if file == "" {
		file = "<unnamed>"
	}
	return fmt.Sprintf("storage: page corrupt: file %s page %d: checksum stored %#08x, computed %#08x",
		file, e.PageID, e.Expected, e.Got)
}

// IsPageCorrupt reports whether err is (or wraps) an ErrPageCorrupt.
func IsPageCorrupt(err error) bool {
	var pc *ErrPageCorrupt
	return errors.As(err, &pc)
}

// Sentinel fault classes injected by FaultDiskManager. Real device
// errors arrive as *os.PathError etc.; the retry helpers classify both
// through IsTransient rather than matching these directly.
var (
	// ErrInjectedIO is a transient I/O error: a retry may succeed.
	ErrInjectedIO = errors.New("storage: injected I/O error (transient)")
	// ErrInjectedPermanentIO never clears, no matter how often retried.
	ErrInjectedPermanentIO = errors.New("storage: injected I/O error (permanent)")
	// ErrNoSpace models ENOSPC: the device is full. Writes cannot
	// proceed; the engine should degrade to read-only, not retry.
	ErrNoSpace = errors.New("storage: no space left on device")
	// ErrShortRead models a read that returned fewer bytes than a page.
	ErrShortRead = errors.New("storage: short read")
)

// IsTransient reports whether err is worth retrying: injected transient
// faults and short reads qualify; corruption, ENOSPC, and permanent
// faults do not. Unknown errors (real device errors) are treated as
// transient — a real disk's EIO often clears on retry, and the retry
// cap bounds the cost of being wrong.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInjectedPermanentIO) || errors.Is(err, ErrNoSpace) || IsPageCorrupt(err) {
		return false
	}
	return true
}
