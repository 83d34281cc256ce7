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
//   - logical records describe one operation on a slotted page — an
//     opaque record (a heap tuple, an index node, a meta record) put
//     into, patched in, or deleted from, a fixed page/slot — and are
//     replayed through the slotted-page layer, guarded by the pageLSN
//     stamped in the slotted-page header so replay is idempotent. The
//     log never looks inside a record: what a heap tuple's header means
//     is the heap's business, before and after a crash.
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
	// Types 2 and 3 are retired: the heap's own insert and delete, now
	// slot puts and slot deletes. A log that holds one is refused.
	// RecFileCreate records the creation of a table or index file, so
	// recovery can recreate empty files that never flushed a page.
	RecFileCreate RecordType = 4
	// RecCheckpoint marks a point where all data files were flushed
	// and synced; records before it are redundant. It carries the
	// transaction state of that point (CheckpointState).
	RecCheckpoint RecordType = 5
	// RecCommit marks a statement boundary: every record of the
	// statement precedes it. Recovery discards the records after the
	// last commit or checkpoint marker, so a log whose tail was torn
	// mid-statement never replays half a statement (heap row without
	// its index entries).
	RecCommit RecordType = 6
	// Type 7 is retired: the batch insert older builds wrote, each tuple
	// carried whole. So are 8, 9 and 10, the heap's set-xmax, clear-xmax
	// and mark-aborted, now slot patches, and 12, the transaction-abort
	// record recovery never read. A log that holds one is refused.
	// RecTxnCommit marks transaction Xid committed. Recovery collects
	// these for the owner of versioned records (the heap), which judges
	// after replay which transactions a crash left unresolved.
	RecTxnCommit RecordType = 11
	// RecSlotPut stores an opaque record at a fixed (page, slot) of a
	// slotted page, replacing whatever the slot held — a heap tuple, an
	// index node, a meta record.
	RecSlotPut RecordType = 13
	// RecSlotDelete frees the slot at (page, slot) — a tuple VACUUM
	// reclaimed, a node that moved to another page or was dissolved by a
	// split.
	RecSlotDelete RecordType = 14
	// RecSlotPatch rewrites the record at (page, slot) where it lies,
	// carrying only what changed: the new length and the byte ranges of
	// the new record that differ from the old one at the same offsets
	// (storage.AppendSlotPatch builds it, storage.SlotPatch redoes it).
	// It is the log shape of a record rewritten in place — an SP-GiST
	// leaf append, shrink, AddNode or child pointer, a heap tuple's
	// header stamped — and is only logged when it is smaller than the
	// RecSlotPut it stands for. Its redo needs the old record, which
	// replay from the file's creation or from a full image of the page
	// provides, like every slot record's.
	RecSlotPatch RecordType = 15
	// Type 16 is retired: the heap's batch insert, now RecSlotBatchPut.
	// RecSlotBatchPut stores records at fixed slots of one page in one
	// record — the log shape of a page-worth of a multi-row INSERT's
	// tuples. The records share a prefix, which the record carries once.
	RecSlotBatchPut RecordType = 17

	// NumRecordTypes bounds the RecordType values; Stats.ByType is
	// indexed up to it. 0 is not a record, and the retired types name
	// none.
	NumRecordTypes = 18
)

// String names the record type for stats and debugging output.
func (t RecordType) String() string {
	switch t {
	case RecPageImage:
		return "page-image"
	case RecFileCreate:
		return "file-create"
	case RecCheckpoint:
		return "checkpoint"
	case RecCommit:
		return "commit"
	case RecTxnCommit:
		return "txn-commit"
	case RecSlotPut:
		return "slot-put"
	case RecSlotDelete:
		return "slot-delete"
	case RecSlotPatch:
		return "slot-patch"
	case RecSlotBatchPut:
		return "slot-batch-put"
	default:
		return "unknown"
	}
}

// Record is one decoded log record. Which fields are meaningful depends
// on Type: File/Page address a page for images and slot operations, Slot
// is the slot operated on, and Data holds the image less its hole, the
// bytes put into the slot, or a slot patch. An image's hole is HoleLen
// bytes at HoleOff, so the page it expands to is len(Data)+HoleLen bytes
// — unless Deflated is set, and Data is the image less its hole as a
// DEFLATE stream (RFC 1951), left for redo to inflate. Batch puts carry
// parallel Slots/Recs instead of Slot/Data.
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
	// Slots/Recs are the slots and the whole records, shared prefix
	// included, of one RecSlotBatchPut.
	Slots []uint16
	Recs  [][]byte
	// Xid is the transaction of a RecTxnCommit.
	Xid uint64
	// Checkpoint is the transaction state a RecCheckpoint carries.
	Checkpoint CheckpointState
}

// CheckpointState is the transaction state a checkpoint record carries,
// as PostgreSQL's carries nextXid and the running xids: the first
// transaction ID not yet assigned, and the IDs of the transactions open
// at the checkpoint. A transaction below NextXid and not Running was
// resolved before the checkpoint flushed the data files — committed, or
// rolled back with its changes undone — so recovery need not find its
// commit record in the log the checkpoint leaves behind. Xids start at
// 1, so NextXid 0 is no state: the checkpoint an older build wrote
// carried none.
type CheckpointState struct {
	NextXid uint64
	Running []uint64
}
