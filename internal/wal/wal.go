// Package wal implements write-ahead logging and redo-based crash
// recovery for the storage substrate. PostgreSQL gives the paper's
// SP-GiST realization durability for free through its storage manager;
// this package supplies the equivalent for our reproduction: an
// append-only segmented log of LSN-addressed records that is forced to
// stable storage before any dirty data page may be written in place
// (WAL-before-data). Records go out in CRC-checksummed frames, one per
// atomic append: a statement's records and its commit marker share one
// frame header, and name each relation file once (record.go has the
// layout).
//
// Two record families exist, mirroring PostgreSQL's full-page writes
// versus ordinary redo records:
//
//   - page-image records carry the after-image of one page less its
//     hole — the free gap of a slotted page, the trailing zeros of any
//     other — as PostgreSQL's full-page writes leave out the gap between
//     pd_lower and pd_upper, deflated when that makes an image of 1 KB or
//     more smaller (PostgreSQL's wal_compression), and are replayed by
//     overwriting the page, the hole zeroed;
//   - logical records describe one operation on a slotted page — a
//     heap tuple or an SP-GiST node put into, patched in, or deleted
//     from, a fixed page/slot — and are replayed through the
//     slotted-page layer, guarded by the pageLSN stamped in the
//     slotted-page header so replay is idempotent.
//
// The log is a sequence of segment files in one directory, each named
// by the LSN of its first record. A checkpoint rotates to a fresh
// segment, logs a checkpoint record, and deletes the older segments
// (every page they cover has been flushed by the caller), which bounds
// both log size and recovery time.
package wal

// LSN is a log sequence number: a monotonically increasing identifier
// assigned to every record when it is appended. LSN 0 is "no record".
type LSN uint64

// SyncMode controls when the Writer forces the log to stable storage.
type SyncMode int

const (
	// SyncCommit makes Commit force (group-committed) the log through
	// the operating system to the disk. This is the durable default.
	SyncCommit SyncMode = iota
	// SyncLazy leaves records buffered until a rotation, checkpoint,
	// explicit Sync, or Close. Faster, but commits made after the last
	// sync are lost on a crash (data pages are still protected: the
	// buffer pool syncs the log before writing any dirty page).
	SyncLazy
)

// RecordType discriminates the log record kinds.
type RecordType uint8

const (
	// RecPageImage is the after-image of one page, a hole of it left
	// out: (HoleOff, HoleLen) name the bytes the image does not carry,
	// and redo writes zeros there. Deflated says the image is compressed.
	RecPageImage RecordType = 1
	// RecHeapInsert is a logical heap-record insert at a fixed slot.
	RecHeapInsert RecordType = 2
	// RecHeapDelete is a logical heap-record delete.
	RecHeapDelete RecordType = 3
	// RecFileCreate records the creation of a table or index file, so
	// recovery can recreate empty files that never flushed a page.
	RecFileCreate RecordType = 4
	// RecCheckpoint marks a point where all data files were flushed
	// and synced; records before it are redundant.
	RecCheckpoint RecordType = 5
	// RecCommit marks a statement boundary: every record of the
	// statement precedes it. Recovery discards the records after the
	// last commit or checkpoint marker, so a log whose tail was torn
	// mid-statement never replays half a statement (heap row without
	// its index entries).
	RecCommit RecordType = 6
	// Type 7 is retired: the batch insert older builds wrote, each tuple
	// carried whole. A log that holds one is refused.
	// RecHeapSetXmax stamps a deleting transaction ID into the xmax
	// field of the versioned tuple at (page, slot) — the log shape of an
	// MVCC DELETE, which leaves the tuple in place for older snapshots.
	RecHeapSetXmax RecordType = 8
	// RecHeapClearXmax zeroes a tuple's xmax — the undo of a SetXmax,
	// written when the deleting transaction rolls back.
	RecHeapClearXmax RecordType = 9
	// RecHeapMarkAborted sets the aborted infomask flag on a tuple whose
	// inserting transaction rolled back, so no snapshot ever sees it.
	RecHeapMarkAborted RecordType = 10
	// RecTxnCommit marks transaction Xid committed. Recovery collects
	// these; versioned tuples whose xmin never reached a RecTxnCommit
	// are flagged aborted after replay (and stamped xmaxes cleared).
	RecTxnCommit RecordType = 11
	// RecTxnAbort records that transaction Xid rolled back. Informational
	// — the compensating ClearXmax/MarkAborted records precede it, and
	// recovery treats any transaction without a commit record as aborted.
	RecTxnAbort RecordType = 12
	// RecSlotPut stores an opaque record at a fixed (page, slot) of a
	// slotted page, replacing whatever the slot held — the log shape of
	// an SP-GiST node written by core.Tree. Same payload as
	// RecHeapInsert, same redo; only the heap's MVCC bookkeeping does
	// not apply, since a node's first bytes are not an xmin.
	RecSlotPut RecordType = 13
	// RecSlotDelete frees the slot at (page, slot) — a node that moved
	// to another page or was dissolved by a split.
	RecSlotDelete RecordType = 14
	// RecSlotPatch rewrites the record at (page, slot) where it lies,
	// carrying only what changed: the new length and the byte ranges of
	// the new record that differ from the old one at the same offsets
	// (storage.AppendSlotPatch builds it, storage.SlotPatch redoes it).
	// It is the log shape of an SP-GiST node rewritten in place — a leaf
	// append, a shrink, an AddNode, a child pointer patched — and is only
	// logged when it is smaller than the RecSlotPut it stands for. Its
	// redo needs the old record, which replay from the file's creation or
	// from a full image of the page provides, like every slot record's.
	RecSlotPatch RecordType = 15
	// RecHeapBatchInsert is a logical insert of a whole page-worth of
	// fresh heap tuples of one transaction at fixed slots — one record
	// per filled page instead of one per tuple, the log shape of a
	// multi-row INSERT. It carries the transaction's xmin once.
	RecHeapBatchInsert RecordType = 16

	// NumRecordTypes bounds the RecordType values in use (0 is not a
	// record, nor is 7); Stats.ByType is indexed up to it.
	NumRecordTypes = 17
)

// String names the record type for stats and debugging output.
func (t RecordType) String() string {
	switch t {
	case RecPageImage:
		return "page-image"
	case RecHeapInsert:
		return "heap-insert"
	case RecHeapDelete:
		return "heap-delete"
	case RecFileCreate:
		return "file-create"
	case RecCheckpoint:
		return "checkpoint"
	case RecCommit:
		return "commit"
	case RecHeapBatchInsert:
		return "heap-batch-insert"
	case RecHeapSetXmax:
		return "heap-set-xmax"
	case RecHeapClearXmax:
		return "heap-clear-xmax"
	case RecHeapMarkAborted:
		return "heap-mark-aborted"
	case RecTxnCommit:
		return "txn-commit"
	case RecTxnAbort:
		return "txn-abort"
	case RecSlotPut:
		return "slot-put"
	case RecSlotDelete:
		return "slot-delete"
	case RecSlotPatch:
		return "slot-patch"
	default:
		return "unknown"
	}
}

// Record is one decoded log record. Which fields are meaningful depends
// on Type: File/Page address a page for images and slot operations
// (heap tuples, index nodes), Slot is the slot operated on, and Data
// holds the image less its hole, the bytes put into the slot, or a slot
// patch. An image's hole is HoleLen bytes at HoleOff, so the page it
// expands to is len(Data)+HoleLen bytes — unless Deflated is set, and
// Data is the image less its hole as a DEFLATE stream (RFC 1951), left
// for redo to inflate. Batch inserts carry parallel Slots/Recs instead of
// Slot/Data.
type Record struct {
	LSN      LSN
	Type     RecordType
	File     string
	Page     uint32
	Slot     uint16
	HoleOff  int
	HoleLen  int
	Deflated bool
	Data     []byte
	// Slots/Recs are the per-tuple slot assignments and record bytes of
	// one RecHeapBatchInsert.
	Slots []uint16
	Recs  [][]byte
	// Xid is the transaction ID of a RecTxnCommit/RecTxnAbort marker, or
	// the deleting transaction stamped by a RecHeapSetXmax.
	Xid uint64
}
