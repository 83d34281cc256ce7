package wal

import (
	"compress/flate"
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
// segment files deleted by checkpoints. AppendedBytes counts the frames
// appended, headers included, as they were stored: what the segment files
// grow by. FrameRawBytes is what they would have taken had no frame been
// deflated. ByType splits Appends and FrameRawBytes by record type — what
// the log is made of; its columns sum to the two totals. A record is
// charged its own encoded bytes, and a frame's 16-byte header is charged
// to the frame's last record: the commit marker of a statement's group,
// the record itself when it was appended alone. A checkpoint record is
// counted where Appends counts it and, like AppendedBytes, without its
// frame. PageImageRawBytes is what ByType[RecPageImage].Bytes
// would be had no image been stored deflated; the two give the images'
// compression ratio, as FrameRawBytes over AppendedBytes gives the
// frames'.
type Stats struct {
	Appends           int64
	AppendedBytes     int64
	Syncs             int64
	SyncWaits         int64
	Rotations         int64
	Checkpoints       int64
	GroupCommits      int64
	GroupRecords      int64
	Recycles          int64
	ByType            [NumRecordTypes]TypeStats
	PageImageRawBytes int64
	FrameRawBytes     int64
}

// TypeStats counts the appended records of one RecordType and their
// bytes (see Stats for where a frame header is charged).
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
	// imageSaved is what deflating page images has saved the log, in
	// encoded record bytes; Stats adds it to the images' bytes. frameSaved
	// is what deflating frames has saved it; Stats adds it to
	// AppendedBytes.
	imageSaved, frameSaved int64
	// frames codes the frames of minDeflatedFrame record bytes or more
	// (flate.HuffmanOnly, which takes the frequent bytes of SP-GiST and
	// heap records at a fraction of LZ77's cost). Guarded by mu.
	frames deflater

	// waits joins group commit to the engine's wait-event layer
	// (AttachObs, once, before the writer is shared; nil when the WAL
	// runs standalone): the leader's write+fsync is charged to
	// wal_fsync, a follower parked on the leader's fsync to
	// wal_commit_wait. Both sites already block — the timestamps cost
	// nothing the group commit had not already paid.
	waits *obs.WaitSet
}

// OpenWriter opens (creating if necessary) the log in dir to append
// after the last valid frame of its last segment, which it finds, cutting
// off any torn tail a crash left. Recovery opens at the end Replay
// reported instead (OpenWriterAt), without a second read.
func OpenWriter(dir string, opts Options) (*Writer, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var e End
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		e = End{seg: last.first, next: last.first}
		if segs[0].first > 1 {
			e.ckpt = segs[0].first
		}
		if e.off, _, err = scanSegment(last.path, func(first LSN, n int, _ []byte, _ int64) error {
			e.next = first + LSN(n)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return OpenWriterAt(dir, opts, e)
}

// OpenWriterAt cuts the log in dir at e (Cut) and opens it to append
// there, without reading it; the zero End begins a log.
func OpenWriterAt(dir string, opts Options, e End) (*Writer, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	if err := Cut(dir, e); err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts, frames: deflater{level: flate.HuffmanOnly}}
	w.cond = sync.NewCond(&w.mu)
	if err := w.openSegment(max(e.seg, 1)); err != nil {
		return nil, err
	}
	w.segWritten, w.nextLSN, w.ckpt = e.off, max(e.next, 1), e.ckpt
	w.appended = w.nextLSN - 1
	w.durable = w.appended
	// Records surviving from previous runs are settled (recovery has
	// already judged them); only records appended from here on are
	// gated by the commit-marker discipline.
	w.committed = w.appended
	return w, nil
}

// StartAfter makes the first record of a log that holds none take LSN
// lsn+1, when that is past its next LSN: the empty segment is replaced by
// one named for lsn+1. A log begun afresh over data files whose pages
// carry the LSNs of an earlier log must number its records above them,
// since redo passes a record no newer than its page. Such a log does not
// reach back to the files' creation, so CheckpointLSN reports lsn+1, as
// OpenWriter does for a log whose oldest segment starts past LSN 1.
func (w *Writer) StartAfter(lsn LSN) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.appended != 0 || len(w.buf) != 0 || w.segWritten != 0 {
		return fmt.Errorf("wal: StartAfter on a log that holds records")
	}
	if lsn < w.nextLSN {
		return nil
	}
	// The empty segment goes first: a crash between the two steps leaves
	// no segment, a fresh log, rather than two that do not join.
	path := w.f.Name()
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("wal: close %s: %w", path, err)
		return w.err
	}
	if err := os.Remove(path); err != nil {
		w.err = fmt.Errorf("wal: remove %s: %w", path, err)
		return w.err
	}
	if err := w.openSegment(lsn + 1); err != nil {
		w.err = err
		return err
	}
	w.nextLSN = lsn + 1
	w.ckpt = w.nextLSN
	return nil
}

// openSegment creates (or reopens) the segment whose first record is lsn
// and makes it current. Caller holds w.mu (or is in OpenWriterAt).
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
	s := w.stats
	s.PageImageRawBytes = s.ByType[RecPageImage].Bytes + w.imageSaved
	s.FrameRawBytes = s.AppendedBytes + w.frameSaved
	return s
}

// ResetStats zeroes the writer counters (SHOW STATS RESET).
func (w *Writer) ResetStats() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats, w.imageSaved, w.frameSaved = Stats{}, 0, 0
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

// appendGroup appends g as one frame — or, past maxFrameSize, as one
// frame per span its cuts delimit — with the commit marker closing the
// last when commit is set.
func (w *Writer) appendGroup(g *Group, commit bool) ([]LSN, LSN, error) {
	if g == nil {
		g = new(Group)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return nil, 0, err
	}
	n := len(g.types)
	if n == 0 && !commit {
		return nil, 0, nil
	}
	if err := g.checkFrames(); err != nil {
		return nil, 0, err
	}
	g.lsns = g.lsns[:0]
	var marker LSN
	for f, i := 0, 0; i < n || f == 0; f++ {
		j := n
		if f < len(g.cuts) {
			j = g.cuts[f]
		}
		var err error
		if marker, err = w.frameLocked(g, i, j, commit && j == n); err != nil {
			return nil, 0, err
		}
		i = j
	}
	w.imageSaved += int64(g.saved)
	if commit {
		w.stats.GroupCommits++
		w.stats.GroupRecords += int64(n)
	}
	return g.lsns, marker, nil
}

// AppendFileCreate logs the creation of a data file.
func (w *Writer) AppendFileCreate(file string) (LSN, error) {
	var g Group
	g.addRecord(RecFileCreate, file)
	return w.appendOne(&g)
}

// AppendCommit logs a statement-boundary marker. Recovery replays only
// up to the last marker, so every record of a statement must be
// appended before its commit marker.
func (w *Writer) AppendCommit() (LSN, error) {
	var g Group
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return 0, err
	}
	return w.frameLocked(&g, 0, 0, true)
}

// CheckpointLSN returns the LSN of the last checkpoint record — the
// horizon the surviving log is complete back to — or, for a log begun
// past LSN 1 (StartAfter) that has taken no checkpoint yet, its first
// LSN. 0 means the log reaches back to its creation.
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

// usableLocked returns why nothing can be appended, if anything. Caller
// holds w.mu.
func (w *Writer) usableLocked() error {
	if w.closed {
		return fmt.Errorf("wal: append on closed log")
	}
	return w.err
}

// appendOne appends the one record of g as a frame of its own and
// returns its LSN.
func (w *Writer) appendOne(g *Group) (LSN, error) {
	lsns, err := w.AppendGroup(g)
	if err != nil {
		return 0, err
	}
	return lsns[0], nil
}

// frameLocked buffers records [i, j) of g as one frame, followed in it by
// a commit marker when marker is set, and returns the marker's LSN. A
// frame of minDeflatedFrame record bytes or more is stored as their
// DEFLATE stream when that is smaller. The records' LSNs are appended to
// g.lsns. Caller holds w.mu and has checked usableLocked.
func (w *Writer) frameLocked(g *Group, i, j int, marker bool) (LSN, error) {
	recs, tail := g.buf[g.start(i):g.start(j)], []byte(nil)
	if marker {
		tail = commitMarker
	}
	raw := frameHeaderSize + len(recs) + len(tail)
	size, z := raw, []byte(nil)
	if raw-frameHeaderSize >= minDeflatedFrame {
		if z = w.frames.deflate(recs, tail); frameHeaderSize+len(z) < raw {
			size = frameHeaderSize + len(z)
		} else {
			z = nil
		}
	}
	cur := w.segWritten + int64(len(w.buf))
	if cur > 0 && cur+int64(size) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return 0, err
		}
	}
	w.buf = appendFrame(w.buf, w.nextLSN, recs, tail, z)
	var last RecordType
	for k := i; k < j; k++ {
		last = g.types[k]
		g.lsns = append(g.lsns, w.nextLSN)
		w.nextLSN++
		w.stats.ByType[last].Records++
		w.stats.ByType[last].Bytes += int64(g.start(k+1) - g.start(k))
	}
	var m LSN
	if marker {
		m, last = w.nextLSN, RecCommit
		w.nextLSN++
		w.committed = m
		w.stats.ByType[RecCommit].Records++
		w.stats.ByType[RecCommit].Bytes += markerSize
	}
	w.stats.ByType[last].Bytes += frameHeaderSize
	w.stats.Appends += int64(w.nextLSN - 1 - w.appended)
	w.stats.AppendedBytes += int64(size)
	w.frameSaved += int64(raw - size)
	w.appended = w.nextLSN - 1
	if len(w.buf) >= bufFlushThreshold && !w.syncing {
		if err := w.writeBufLocked(); err != nil {
			w.err = err
			return 0, err
		}
	}
	return m, nil
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
// segment whose first record is the checkpoint record, carrying st,
// forces it to disk, and deletes the older segments. Returns the
// checkpoint LSN.
func (w *Writer) Checkpoint(st CheckpointState) (LSN, error) {
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
	w.buf = appendFrame(w.buf, lsn, appendCheckpoint(nil, st), nil, nil)
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
