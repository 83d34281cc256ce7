package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// DefaultSegmentBytes is the soft size limit of one segment file.
const DefaultSegmentBytes = 4 << 20

// bufFlushThreshold bounds the in-memory append buffer: past this size
// the buffer is handed to the operating system (without an fsync).
const bufFlushThreshold = 1 << 20

// Options configure a Writer.
type Options struct {
	// SegmentBytes is the soft size limit of one segment file;
	// defaults to DefaultSegmentBytes.
	SegmentBytes int64
	// Mode controls Commit durability; defaults to SyncCommit.
	Mode SyncMode
}

// Stats counts Writer activity. GroupCommits counts atomic group
// appends that carried a commit marker, GroupRecords the records they
// contained (GroupRecords/GroupCommits is the mean commit batch size),
// and SyncWaits the committers whose durability was covered by another
// leader's fsync — the group-commit sharing factor. Recycles counts
// segment files deleted by checkpoints. ByType splits Appends and
// AppendedBytes by record type — what the log is made of; its columns
// sum to the two totals (a checkpoint record is counted where Appends
// counts it and, like AppendedBytes, without its 17 bytes).
type Stats struct {
	Appends       int64
	AppendedBytes int64
	Syncs         int64
	SyncWaits     int64
	Rotations     int64
	Checkpoints   int64
	GroupCommits  int64
	GroupRecords  int64
	Recycles      int64
	ByType        [NumRecordTypes]TypeStats
}

// TypeStats counts the appended records of one RecordType and their
// frame bytes.
type TypeStats struct {
	Records int64
	Bytes   int64
}

// Writer is the append side of the log. Appends are buffered in memory
// and assigned LSNs immediately; Sync (and Commit under SyncCommit)
// forces the buffer to stable storage with group commit: concurrent
// committers elect one leader whose single write+fsync covers every
// record appended so far, and the rest wait on its result.
//
// All methods are safe for concurrent use.
type Writer struct {
	mu   sync.Mutex
	cond *sync.Cond

	dir  string
	opts Options

	f          *os.File
	segFirst   LSN   // first LSN of the current segment (its name)
	segWritten int64 // bytes of the current segment handed to the OS

	buf       []byte // encoded frames not yet written
	spare     []byte // the buffer the last sync wrote out, for the next one to swap in
	nextLSN   LSN
	appended  LSN // last LSN appended
	durable   LSN // last LSN known to be on stable storage
	committed LSN // last commit/checkpoint marker appended
	ckpt      LSN // last checkpoint record (0 = log complete since open)
	syncing   bool
	closed    bool
	err       error // sticky I/O error; the log is unusable once set

	stats Stats

	// waits joins group commit to the engine's wait-event layer
	// (AttachObs, once, before the writer is shared; nil when the WAL
	// runs standalone): the leader's write+fsync is charged to
	// wal_fsync, a follower parked on the leader's fsync to
	// wal_commit_wait. Both sites already block — the timestamps cost
	// nothing the group commit had not already paid.
	waits *obs.WaitSet
}

// OpenWriter opens (creating if necessary) the log in dir and positions
// appends after the last valid record, truncating any torn tail left by
// a crash.
func OpenWriter(dir string, opts Options) (*Writer, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	w := &Writer{dir: dir, opts: opts}
	w.cond = sync.NewCond(&w.mu)

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		w.nextLSN = 1
		if err := w.openSegment(w.nextLSN); err != nil {
			return nil, err
		}
		return w, nil
	}
	last := segs[len(segs)-1]
	validEnd, lastLSN, err := scanSegment(last.path, nil)
	if err != nil {
		return nil, err
	}
	// Only a checkpoint ever deletes segments, and the checkpoint record
	// is always the first record of the segment the rotation opened — so
	// the oldest surviving segment starting past LSN 1 names the last
	// checkpoint. An oldest segment at LSN 1 means no checkpoint ever
	// recycled anything: the log is complete since its creation.
	if segs[0].first > 1 {
		w.ckpt = segs[0].first
	}
	if lastLSN == 0 {
		// The segment was created but no record survived.
		w.nextLSN = last.first
	} else {
		w.nextLSN = lastLSN + 1
	}
	if err := os.Truncate(last.path, validEnd); err != nil {
		return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", last.path, err)
	}
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", last.path, err)
	}
	w.f = f
	w.segFirst = last.first
	w.segWritten = validEnd
	w.appended = w.nextLSN - 1
	w.durable = w.appended
	// Records surviving from previous runs are settled (recovery has
	// already judged them); only records appended from here on are
	// gated by the commit-marker discipline.
	w.committed = w.appended
	return w, nil
}

// openSegment creates (or reopens) the segment whose first record is lsn
// and makes it current. Caller holds w.mu (or is in OpenWriter).
func (w *Writer) openSegment(lsn LSN) error {
	path := filepath.Join(w.dir, segmentName(lsn))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	w.f = f
	w.segFirst = lsn
	w.segWritten = 0
	return nil
}

// Mode returns the configured sync mode.
func (w *Writer) Mode() SyncMode { return w.opts.Mode }

// Dir returns the log directory.
func (w *Writer) Dir() string { return w.dir }

// AppendedLSN returns the LSN of the most recently appended record.
func (w *Writer) AppendedLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// DurableLSN returns the highest LSN known to be on stable storage.
func (w *Writer) DurableLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// Err returns the writer's sticky I/O error, if any. Once an append or
// sync fails the log is unusable — every later operation returns this
// same error — and the engine above degrades to read-only.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// InjectFault sets the sticky error directly — the test hook for
// degraded-mode coverage (a full disk or dead log device without a
// real one). nil does not clear an existing error: the sticky contract
// is one-way.
func (w *Writer) InjectFault(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
}

// Stats returns a snapshot of the writer counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// ResetStats zeroes the writer counters (SHOW STATS RESET).
func (w *Writer) ResetStats() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats = Stats{}
}

// AttachObs joins group commit to a wait-event set. Must be called
// before the writer is shared across goroutines.
func (w *Writer) AttachObs(ws *obs.WaitSet) { w.waits = ws }

// Segments returns the number of segment files currently on disk.
func (w *Writer) Segments() int {
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0
	}
	return len(segs)
}

// AppendPageImage logs the after-image of one page, less the holeLen
// bytes at holeOff, and returns its LSN.
func (w *Writer) AppendPageImage(file string, page uint32, pageData []byte, holeOff, holeLen int) (LSN, error) {
	return w.append(RecPageImage, appendPageImage(nil, file, page, pageData, holeOff, holeLen))
}

// Group is a set of records one statement appends atomically: no other
// appender's record (in particular no other statement's commit marker)
// can interleave with a group's records in the log. This is what lets
// statements on different tables run and commit concurrently while
// recovery keeps its positional rule — everything before the last
// marker is committed — because a marker can only ever cover whole
// statements. Build the group during or after statement execution, then
// hand it to AppendGroup or AppendGroupCommit.
//
// The payloads lie end to end in one buffer, and Reset keeps it: a group
// that is reused from statement to statement stages records without
// allocating.
type Group struct {
	types []RecordType
	ends  []int  // ends[i]: where record i's payload ends in buf
	buf   []byte // the payloads, end to end
	lsns  []LSN  // what the last append assigned
}

// maxRetainedGroupBytes bounds the payload buffer a Reset group keeps, so
// that one bulk statement does not pin its size for good.
const maxRetainedGroupBytes = 1 << 20

// NewGroup returns an empty record group.
func NewGroup() *Group { return &Group{} }

// Reset empties the group for reuse, keeping its buffers. The LSN slice
// the last append returned is invalid from here on.
func (g *Group) Reset() {
	g.types, g.ends, g.lsns = g.types[:0], g.ends[:0], g.lsns[:0]
	if cap(g.buf) > maxRetainedGroupBytes {
		g.buf = nil
	}
	g.buf = g.buf[:0]
}

// Len reports the number of records staged in the group.
func (g *Group) Len() int { return len(g.types) }

// payload returns record i's payload.
func (g *Group) payload(i int) []byte {
	start := 0
	if i > 0 {
		start = g.ends[i-1]
	}
	return g.buf[start:g.ends[i]]
}

// add closes the record whose payload the caller has just appended to
// g.buf and returns its index.
func (g *Group) add(typ RecordType) int {
	g.types = append(g.types, typ)
	g.ends = append(g.ends, len(g.buf))
	return len(g.types) - 1
}

// Extend appends every record of o to g in order, returning the index
// o's first record now has in g (record i of o becomes base+i). The
// buffer pool uses it to move the logical records access methods staged
// during a statement into the committer's group.
func (g *Group) Extend(o *Group) (base int) {
	base = len(g.types)
	shift := len(g.buf)
	g.types = append(g.types, o.types...)
	for _, end := range o.ends {
		g.ends = append(g.ends, shift+end)
	}
	g.buf = append(g.buf, o.buf...)
	return base
}

// AddPageImage stages the after-image of one page, less the holeLen bytes
// at holeOff, returning its index into the LSN slice AppendGroup returns.
func (g *Group) AddPageImage(file string, page uint32, pageData []byte, holeOff, holeLen int) int {
	g.buf = appendPageImage(g.buf, file, page, pageData, holeOff, holeLen)
	return g.add(RecPageImage)
}

// heapOp stages a record with the heap-op payload.
func (g *Group) heapOp(typ RecordType, file string, page uint32, slot uint16, rec []byte) int {
	g.buf = appendHeapOp(g.buf, file, page, slot, rec)
	return g.add(typ)
}

// AddHeapInsert stages a logical heap insert.
func (g *Group) AddHeapInsert(file string, page uint32, slot uint16, rec []byte) int {
	return g.heapOp(RecHeapInsert, file, page, slot, rec)
}

// AddHeapDelete stages a logical heap delete.
func (g *Group) AddHeapDelete(file string, page uint32, slot uint16) int {
	return g.heapOp(RecHeapDelete, file, page, slot, nil)
}

// AddSlotPut stages storing rec — an index node — at (page, slot).
func (g *Group) AddSlotPut(file string, page uint32, slot uint16, rec []byte) int {
	return g.heapOp(RecSlotPut, file, page, slot, rec)
}

// AddSlotDelete stages freeing the slot at (page, slot).
func (g *Group) AddSlotDelete(file string, page uint32, slot uint16) int {
	return g.heapOp(RecSlotDelete, file, page, slot, nil)
}

// AddSlotPatch stages rewriting the record at (page, slot) by patch, the
// encoding storage.AppendSlotPatch gives of what changed in it.
func (g *Group) AddSlotPatch(file string, page uint32, slot uint16, patch []byte) int {
	return g.heapOp(RecSlotPatch, file, page, slot, patch)
}

// AddHeapBatchInsert stages a page-worth of heap inserts as one record.
func (g *Group) AddHeapBatchInsert(file string, page uint32, slots []uint16, recs [][]byte) int {
	g.buf = appendHeapBatch(g.buf, file, page, slots, recs)
	return g.add(RecHeapBatchInsert)
}

// AddHeapSetXmax stages stamping xid as the deleting transaction of the
// tuple at (page, slot).
func (g *Group) AddHeapSetXmax(file string, page uint32, slot uint16, xid uint64) int {
	g.buf = binary.LittleEndian.AppendUint64(appendHeapOp(g.buf, file, page, slot, nil), xid)
	return g.add(RecHeapSetXmax)
}

// AddHeapClearXmax stages zeroing the xmax of the tuple at (page, slot).
func (g *Group) AddHeapClearXmax(file string, page uint32, slot uint16) int {
	return g.heapOp(RecHeapClearXmax, file, page, slot, nil)
}

// AddHeapMarkAborted stages setting the aborted flag on the tuple at
// (page, slot).
func (g *Group) AddHeapMarkAborted(file string, page uint32, slot uint16) int {
	return g.heapOp(RecHeapMarkAborted, file, page, slot, nil)
}

// AddTxnCommit stages a transaction-commit record for xid.
func (g *Group) AddTxnCommit(xid uint64) int {
	g.buf = binary.LittleEndian.AppendUint64(g.buf, xid)
	return g.add(RecTxnCommit)
}

// AddTxnAbort stages a transaction-abort record for xid.
func (g *Group) AddTxnAbort(xid uint64) int {
	g.buf = binary.LittleEndian.AppendUint64(g.buf, xid)
	return g.add(RecTxnAbort)
}

// AppendGroup appends every record of g contiguously (no concurrent
// appender interleaves) and returns their LSNs, index-aligned with the
// group's Add* calls; the slice is the group's own, valid until its Reset.
// The records are buffered, not yet durable.
func (w *Writer) AppendGroup(g *Group) ([]LSN, error) {
	lsns, _, err := w.appendGroup(g, false)
	return lsns, err
}

// AppendGroupCommit appends every record of g contiguously, immediately
// followed by a commit marker — one statement's records and its
// boundary as a single atomic log append. It returns the record LSNs
// and the marker's LSN. Durability still requires Commit (or Sync),
// whose group-commit protocol lets any number of concurrently
// committing statements share one fsync.
func (w *Writer) AppendGroupCommit(g *Group) ([]LSN, LSN, error) {
	return w.appendGroup(g, true)
}

func (w *Writer) appendGroup(g *Group, commit bool) ([]LSN, LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, 0, fmt.Errorf("wal: append on closed log")
	}
	if w.err != nil {
		return nil, 0, w.err
	}
	var lsns []LSN
	if g != nil && len(g.types) > 0 {
		g.lsns = g.lsns[:0]
		for i, typ := range g.types {
			lsn, err := w.appendLocked(typ, g.payload(i))
			if err != nil {
				return nil, 0, err
			}
			g.lsns = append(g.lsns, lsn)
		}
		lsns = g.lsns
	}
	var marker LSN
	if commit {
		lsn, err := w.appendLocked(RecCommit, nil)
		if err != nil {
			return nil, 0, err
		}
		marker = lsn
		if lsn > w.committed {
			w.committed = lsn
		}
		w.stats.GroupCommits++
		w.stats.GroupRecords += int64(len(lsns))
	}
	return lsns, marker, nil
}

// AppendFileCreate logs the creation of a data file.
func (w *Writer) AppendFileCreate(file string) (LSN, error) {
	return w.append(RecFileCreate, appendName(nil, file))
}

// AppendCommit logs a statement-boundary marker. Recovery replays only
// up to the last marker, so every record of a statement must be
// appended before its commit marker.
func (w *Writer) AppendCommit() (LSN, error) {
	lsn, err := w.append(RecCommit, nil)
	if err == nil {
		w.mu.Lock()
		if lsn > w.committed {
			w.committed = lsn
		}
		w.mu.Unlock()
	}
	return lsn, err
}

// CheckpointLSN returns the LSN of the last checkpoint record — the
// horizon the surviving log is complete back to. 0 means no checkpoint
// has ever recycled segments, so the log reaches back to its creation.
// The buffer pool uses it for full-page-write decisions: a page's first
// mutation after a checkpoint must log a full image, or a
// write of the page torn at a crash could not be rebuilt (the records
// describing its older contents were recycled with the pre-checkpoint
// segments).
func (w *Writer) CheckpointLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ckpt
}

// CommittedLSN returns the LSN of the last commit or checkpoint marker
// appended (0 when no marker has been appended since open). The buffer
// pool uses it for its no-steal rule: a page whose latest record is
// past this horizon holds uncommitted state and must not be written in
// place.
func (w *Writer) CommittedLSN() LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.committed
}

func (w *Writer) append(typ RecordType, payload []byte) (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if w.err != nil {
		return 0, w.err
	}
	return w.appendLocked(typ, payload)
}

// appendLocked encodes and buffers one record. Caller holds w.mu and
// has checked closed/err.
func (w *Writer) appendLocked(typ RecordType, payload []byte) (LSN, error) {
	frameLen := int64(frameHeaderSize + 1 + len(payload))
	cur := w.segWritten + int64(len(w.buf))
	if cur > 0 && cur+frameLen > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return 0, err
		}
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.buf = appendFrame(w.buf, lsn, typ, payload)
	w.appended = lsn
	w.stats.Appends++
	w.stats.AppendedBytes += frameLen
	w.stats.ByType[typ].Records++
	w.stats.ByType[typ].Bytes += frameLen
	if len(w.buf) >= bufFlushThreshold && !w.syncing {
		if err := w.writeBufLocked(); err != nil {
			w.err = err
			return 0, err
		}
	}
	return lsn, nil
}

// writeBufLocked hands the append buffer to the OS (no fsync). Caller
// holds w.mu and must have checked !w.syncing.
func (w *Writer) writeBufLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.f.Write(w.buf)
	w.segWritten += int64(n)
	if err != nil {
		return fmt.Errorf("wal: write segment: %w", err)
	}
	w.buf = w.buf[:0]
	return nil
}

// rotateLocked syncs and closes the current segment, then starts a new
// one whose name is the next LSN. Caller holds w.mu.
func (w *Writer) rotateLocked() error {
	for w.syncing {
		w.cond.Wait()
	}
	if err := w.writeBufLocked(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync segment: %w", err)
	}
	w.durable = w.appended
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	if err := w.openSegment(w.nextLSN); err != nil {
		return err
	}
	w.stats.Rotations++
	w.cond.Broadcast()
	return nil
}

// Sync makes every record up to target durable. It returns once the
// durable LSN reaches target (clamped to the last appended LSN), either
// because this call led a write+fsync batch or because a concurrent
// leader's batch covered it (group commit).
func (w *Writer) Sync(target LSN) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked(target)
}

func (w *Writer) syncLocked(target LSN) error {
	if target > w.appended {
		target = w.appended
	}
	for w.err == nil && w.durable < target {
		if w.syncing {
			w.stats.SyncWaits++
			// A follower: the leader's in-flight fsync may cover us.
			// The park is charged to wal_commit_wait — the group-commit
			// sharing factor, seen as time instead of a count.
			fm := w.waits.Begin(obs.WaitWALCommitWait)
			w.cond.Wait()
			w.waits.End(fm)
			continue
		}
		w.syncing = true
		upTo := w.appended
		// The leader writes buf out unlocked while appenders fill the
		// buffer the previous sync emptied: two buffers change places, and
		// a commit allocates none.
		buf := w.buf
		w.buf, w.spare = w.spare[:0], nil
		f := w.f
		w.mu.Unlock()
		// The leader's write+fsync covers every record appended so far;
		// its duration is the wal_fsync wait event and — when the leading
		// statement is traced — a wal_fsync span on its timeline.
		lm := w.waits.Begin(obs.WaitWALFsync)
		sp := obs.Current().StartSpan("wal_fsync", "wal")
		var err error
		var n int
		if len(buf) > 0 {
			n, err = f.Write(buf)
		}
		if err == nil {
			err = f.Sync()
		}
		sp.End()
		w.waits.End(lm)
		w.mu.Lock()
		w.syncing = false
		w.spare = buf[:0]
		w.segWritten += int64(n)
		if err != nil {
			w.err = fmt.Errorf("wal: sync: %w", err)
		} else {
			if upTo > w.durable {
				w.durable = upTo
			}
			w.stats.Syncs++
		}
		w.cond.Broadcast()
	}
	return w.err
}

// Commit makes everything appended so far durable under SyncCommit and
// is a no-op under SyncLazy (beyond reporting a sticky error).
func (w *Writer) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.Mode == SyncCommit {
		return w.syncLocked(w.appended)
	}
	return w.err
}

// Checkpoint marks a recovery point: the caller must already have
// flushed and synced every data file. The log rotates to a fresh
// segment whose first record is the checkpoint record, forces it to
// disk, and deletes the older segments. Returns the checkpoint LSN.
func (w *Writer) Checkpoint() (LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: checkpoint on closed log")
	}
	if err := w.syncLocked(w.appended); err != nil {
		return 0, err
	}
	if err := w.rotateLocked(); err != nil {
		w.err = err
		return 0, err
	}
	// Capture the checkpoint segment's identity now: syncLocked below
	// releases the lock during its fsync, and a concurrent appender may
	// rotate to a further segment, advancing w.segFirst past it.
	ckSegFirst := w.segFirst
	lsn := w.nextLSN
	w.nextLSN++
	w.buf = appendFrame(w.buf, lsn, RecCheckpoint, nil)
	w.appended = lsn
	w.committed = lsn
	w.ckpt = lsn
	w.stats.Appends++
	w.stats.ByType[RecCheckpoint].Records++
	if err := w.syncLocked(lsn); err != nil {
		return 0, err
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	for _, s := range segs {
		if s.first < ckSegFirst {
			if err := os.Remove(s.path); err != nil {
				return 0, fmt.Errorf("wal: recycle %s: %w", s.path, err)
			}
			w.stats.Recycles++
		}
	}
	w.stats.Checkpoints++
	return lsn, nil
}

// Close makes the log durable and closes the current segment.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	err := w.syncLocked(w.appended)
	for w.syncing {
		w.cond.Wait()
	}
	w.closed = true
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}
