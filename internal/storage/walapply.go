package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/wal"
)

// RecoveryStats summarizes one redo pass over the write-ahead log.
type RecoveryStats struct {
	wal.ReplayStats
	PageImages    int64 // page-image records applied
	HeapInserts   int64 // logical heap inserts applied (batch rows included)
	HeapDeletes   int64 // logical heap deletes applied
	HeapBatches   int64 // batch-insert records applied
	HeapXmaxOps   int64 // set/clear-xmax and mark-aborted records applied
	SlotPuts      int64 // index-node puts applied
	SlotPatches   int64 // index-node patches applied
	SlotDeletes   int64 // index-node deletes applied
	SkippedByLSN  int64 // logical records skipped because pageLSN was newer
	TailDiscarded int64 // records after the last commit marker, not replayed
	FilesTouched  int   // distinct data files opened by redo
	PagesWritten  int64 // pages redo wrote back: each it dirtied once, plus any evicted and written earlier
	AbortFixups   int64 // tuples of uncommitted transactions flagged aborted
	XmaxFixups    int64 // stamped xmaxes of uncommitted transactions cleared
	TornPages     int64 // pages failing checksum at redo (torn at crash)
	TornRepaired  int64 // torn pages reinitialized and rebuilt from the log
}

// Versioned heap tuples carry an 18-byte [xmin:8][xmax:8][flags:2]
// header (heap.TupleHeader; the constants are mirrored here because heap
// builds on storage, not the reverse). Recovery reads xids out of logged
// tuple bytes to judge, after replay, which tuples belong to
// transactions that never committed.
const (
	tupleHeaderSize  = 18
	flagXminAborted  = 0x1
	tupleXmaxOffset  = 8
	tupleFlagsOffset = 16
)

// fixupKey addresses one heap slot across the replayed log.
type fixupKey struct {
	file string
	page uint32
	slot uint16
}

// txnFixups tracks, across the whole replay, the *last* transactional
// write to every heap slot plus the set of committed transactions. After
// replay, slots whose last writer never committed are repaired in place:
// inserted tuples get the aborted flag, stamped xmaxes are cleared. The
// last-writer-per-slot rule (not per-transaction lists) makes slot reuse
// safe: if aborted transaction X's tuple at (p,s) was vacuumed away and
// transaction Y's tuple now lives there, the map holds Y, not X.
type txnFixups struct {
	lastInsert  map[fixupKey]uint64 // slot -> xmin of last inserted tuple
	lastXmaxSet map[fixupKey]uint64 // slot -> last stamped (uncleared) xmax
	committed   map[uint64]bool     // xids with a RecTxnCommit in the log
}

func newTxnFixups() *txnFixups {
	return &txnFixups{
		lastInsert:  make(map[fixupKey]uint64),
		lastXmaxSet: make(map[fixupKey]uint64),
		committed:   make(map[uint64]bool),
	}
}

// noteInsert records that a tuple with the given raw bytes now occupies
// key. A frozen (xid 0) or unversioned tuple clears the slot's history —
// whatever was there before has been overwritten.
func (fx *txnFixups) noteInsert(key fixupKey, rec []byte) {
	delete(fx.lastXmaxSet, key) // a fresh tuple's xmax is whatever rec carries
	if len(rec) >= tupleHeaderSize {
		if xid := binary.LittleEndian.Uint64(rec); xid != 0 {
			fx.lastInsert[key] = xid
			return
		}
	}
	delete(fx.lastInsert, key)
}

// noteDelete records that key's slot no longer holds a tuple.
func (fx *txnFixups) noteDelete(key fixupKey) {
	delete(fx.lastInsert, key)
	delete(fx.lastXmaxSet, key)
}

// imageInflater inflates the deflated page images of one redo pass into
// the frames of their pages; it keeps the decompressor, and its 32 KB
// window, from image to image.
type imageInflater struct {
	src bytes.Reader
	zr  io.ReadCloser
	one [1]byte
}

// imagePage lays the page image r carries down in buf, a page: the bytes
// around the hole from the record — inflated straight into buf when the
// image is deflated — zeros in it. A deflated image must inflate to
// exactly the page less its hole, and no more of it is inflated than
// that and one byte.
func (z *imageInflater) imagePage(buf []byte, r *wal.Record) error {
	if n := len(r.Data) + r.HoleLen; !r.Deflated && n != len(buf) {
		return fmt.Errorf("storage: recovery: record page size %d != %d", n, len(buf))
	}
	if r.HoleOff > len(buf)-r.HoleLen {
		return fmt.Errorf("storage: recovery: image of page %d of %s: hole [%d, %d) runs past the %d-byte page", r.Page, r.File, r.HoleOff, r.HoleOff+r.HoleLen, len(buf))
	}
	head, tail := buf[:r.HoleOff], buf[r.HoleOff+r.HoleLen:]
	clear(buf[r.HoleOff : r.HoleOff+r.HoleLen])
	if !r.Deflated {
		copy(head, r.Data)
		copy(tail, r.Data[r.HoleOff:])
		return nil
	}
	z.src.Reset(r.Data)
	var err error
	if z.zr == nil {
		z.zr = flate.NewReader(&z.src)
	} else {
		err = z.zr.(flate.Resetter).Reset(&z.src, nil)
	}
	if err == nil {
		_, err = io.ReadFull(z.zr, head)
	}
	if err == nil {
		_, err = io.ReadFull(z.zr, tail)
	}
	if err == nil {
		// The stream must end here, with nothing behind it.
		if k, rerr := z.zr.Read(z.one[:]); k > 0 {
			err = fmt.Errorf("it inflates past the %d bytes around the hole", len(head)+len(tail))
		} else if rerr != io.EOF {
			err = rerr
		} else if z.src.Len() > 0 {
			err = fmt.Errorf("%d bytes follow its end", z.src.Len())
		}
	}
	if err != nil {
		return fmt.Errorf("storage: recovery: deflated image of page %d of %s: %w", r.Page, r.File, err)
	}
	return nil
}

// RecoverDir replays the write-ahead log in walDir into the data files
// of dataDir, bringing every heap and index file up to the end of the
// log. It is the redo pass run on reopen after a crash, one read of the
// log: page-image records overwrite their page (replay is in LSN order,
// so the last image wins), and logical records — heap tuples, index
// nodes and meta records alike, every page being slotted — are
// re-executed through the slotted-page layer unless the page's pageLSN
// shows it already reflects them. The pass is idempotent — replaying an
// already-recovered log is harmless — and a missing or empty log
// directory is a no-op.
//
// Redo runs in a pool of its own, poolPages frames (the database's
// budget), made when the log first names a file: a page is read and
// checksum-verified once, patched in its frame by every record that
// changes it, and written back, stamped, at eviction or by the flush and
// one sync per file that end the pass, before the log's tail is cut.
//
// Records are applied a unit at a time: the records up to and including
// the next commit or checkpoint marker, one statement's group. Records
// after the log's last marker belong to a statement whose tail was lost
// in the crash; they are not replayed, so a heap row never reappears
// without its index entries, and they are cut from the log. A log with
// no marker at all (raw storage-level use) is one unit, replayed in full.
//
// Every page of every file is trusted by one rule: its checksum matches.
// A page a record targets whose checksum does not match was torn at the
// crash; it is blanked and rebuilt by the replay, provided the log holds
// the file's creation ahead of the record, or the record's unit holds a
// full image of the page — otherwise recovery fails with ErrPageCorrupt.
// The pool ships that image in the first group that touches a page after
// a checkpoint, behind the page's records, so the first unit to find a
// page torn carries it.
//
// A file missing on disk whose creation the log does not hold, in a log
// that has lost its beginning, was deleted outside the engine: its
// records would bring back only the pages they touch, so they are passed.
func RecoverDir(dataDir, walDir string, pageSize, poolPages int) (RecoveryStats, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	var st RecoveryStats
	type pageKey struct {
		file string
		page uint32
	}
	var pool *Pool
	defer func() {
		if pool != nil {
			pool.Crash()
		}
	}()
	rels := make(map[string]*BufferPool)
	created := make(map[string]bool)  // files whose creation has been replayed
	vanished := make(map[string]bool) // missing files whose records are passed
	firstLSN := wal.LSN(0)
	// open returns the relation of the file name, nil for a vanished one.
	open := func(name string) (*BufferPool, error) {
		if bp, ok := rels[name]; ok || vanished[name] {
			return bp, nil
		}
		// Record file names are base names chosen by this process; a
		// separator would mean a damaged or hostile log.
		if name == "" || name != filepath.Base(name) || strings.ContainsAny(name, `/\`) {
			return nil, fmt.Errorf("storage: recovery: unsafe file name %q in log", name)
		}
		path := filepath.Join(dataDir, name)
		if _, err := os.Stat(path); os.IsNotExist(err) && !created[name] && firstLSN > 1 {
			vanished[name] = true
			return nil, nil
		}
		dm, err := OpenFile(path, pageSize)
		if err != nil {
			return nil, err
		}
		if pool == nil {
			pool = NewPool(pageSize, poolPages)
		}
		rels[name] = pool.Open(name, dm, obs.WaitNone)
		st.FilesTouched++
		return rels[name], nil
	}

	var images imageInflater
	fx := newTxnFixups()
	unitImage := make(map[pageKey]wal.LSN) // LSN of the unit's last image of a page
	// pin returns r's page pinned. A page past the end of its file is
	// allocated, with every page before it: every page a statement
	// allocates is covered by a record of its own, so a file can trail
	// the log by no more pages than the log has records up to the end of
	// the unit being replayed; an address further out is a damaged log,
	// not a page to allocate four billion zeroed pages up to. A page that
	// fails its checksum was torn at the crash: its pageLSN and slot
	// directory cannot be trusted, so when the log provably holds its
	// whole content — the file's creation record, already replayed, or a
	// full image of the page in this unit — it is blanked on disk and
	// rebuilt by the replay, the reset pageLSN (0) disabling the skip
	// guard. Otherwise blanking it would silently drop every row the
	// recycled segments carried, so recovery fails loudly instead.
	replayed := int64(0)
	pin := func(bp *BufferPool, r *wal.Record) (*Page, error) {
		dm, id := bp.DM(), PageID(r.Page)
		if uint64(r.Page) >= uint64(dm.NumPages())+uint64(replayed) {
			return nil, fmt.Errorf("storage: recovery: page %d is beyond anything the log's %d records could have allocated (file has %d pages)", r.Page, replayed, dm.NumPages())
		}
		for dm.NumPages() <= r.Page {
			p, err := bp.NewPage()
			if err != nil || p.ID == id {
				return p, err
			}
			bp.Unpin(p, false)
		}
		p, err := bp.Fetch(id)
		if !IsPageCorrupt(err) {
			return p, err
		}
		st.TornPages++
		if !created[r.File] && unitImage[pageKey{r.File, r.Page}] == 0 {
			return nil, err
		}
		if err := dm.WritePage(id, make([]byte, pageSize)); err != nil {
			return nil, err
		}
		st.TornRepaired++
		return bp.Fetch(id)
	}
	// redo applies r to buf, its page, reporting whether it changed it.
	redo := func(buf []byte, r *wal.Record) (bool, error) {
		switch {
		case r.Type == wal.RecPageImage:
		case SlotAreaBlank(buf):
			SlotInit(buf)
		case PageLSN(buf) >= uint64(r.LSN):
			st.SkippedByLSN++
			return false, nil
		}
		switch r.Type {
		case wal.RecPageImage:
			// The image was captured before its statement's LSNs were
			// stamped, so its embedded pageLSN is stale. Advance it to the
			// image's own LSN (below): the group records preceding the
			// image are baked into it, and the skip guard should treat
			// them as applied on a re-replay.
			if err := images.imagePage(buf, r); err != nil {
				return false, err
			}
			st.PageImages++
		case wal.RecHeapInsert, wal.RecSlotPut:
			if !SlotInsertAt(buf, int(r.Slot), r.Data) {
				return false, fmt.Errorf("storage: recovery: redo insert does not fit page %d of %s", r.Page, r.File)
			}
			if r.Type == wal.RecSlotPut {
				st.SlotPuts++
			} else {
				st.HeapInserts++
			}
		case wal.RecSlotPatch:
			// A patch needs the record it was taken from. The unit's
			// image of the page, behind it, overwrites whatever this
			// redo would leave, and on a page rebuilt from that image
			// (torn, see pin) the old record is not there to patch:
			// such patches are passed.
			if r.LSN < unitImage[pageKey{r.File, r.Page}] {
				break
			}
			if err := SlotPatch(buf, int(r.Slot), r.Data); err != nil {
				return false, fmt.Errorf("storage: recovery: page %d of %s: %w", r.Page, r.File, err)
			}
			st.SlotPatches++
		case wal.RecHeapBatchInsert:
			// One record redoes a whole page-worth of tuples — the
			// all-or-nothing unit of a multi-row INSERT's redo.
			for i, slot := range r.Slots {
				if !SlotInsertAt(buf, int(slot), r.Recs[i]) {
					return false, fmt.Errorf("storage: recovery: redo batch insert does not fit page %d of %s", r.Page, r.File)
				}
			}
			st.HeapInserts += int64(len(r.Slots))
			st.HeapBatches++
		case wal.RecHeapSetXmax, wal.RecHeapClearXmax, wal.RecHeapMarkAborted:
			// Header rewrites of a tuple already on the page. A
			// missing or short tuple means the log and page disagree
			// in a way replay of later records will repair (or the
			// slot was physically deleted) — skip, like heap.Delete
			// of a non-existent record.
			if rec := SlotRead(buf, int(r.Slot)); rec != nil && len(rec) >= tupleHeaderSize {
				switch r.Type {
				case wal.RecHeapSetXmax:
					binary.LittleEndian.PutUint64(rec[tupleXmaxOffset:], r.Xid)
				case wal.RecHeapClearXmax:
					binary.LittleEndian.PutUint64(rec[tupleXmaxOffset:], 0)
				case wal.RecHeapMarkAborted:
					binary.LittleEndian.PutUint16(rec[tupleFlagsOffset:],
						binary.LittleEndian.Uint16(rec[tupleFlagsOffset:])|flagXminAborted)
				}
			}
			st.HeapXmaxOps++
		default: // RecHeapDelete, RecSlotDelete
			SlotDelete(buf, int(r.Slot))
			if r.Type == wal.RecSlotDelete {
				st.SlotDeletes++
			} else {
				st.HeapDeletes++
			}
		}
		SetPageLSN(buf, uint64(r.LSN))
		return true, nil
	}
	apply := func(r *wal.Record) error {
		// Transaction bookkeeping happens for every surviving record —
		// including ones the pageLSN guard will skip below, because a
		// skipped record's effect is already on the page and still needs
		// judging against the commit set.
		switch r.Type {
		case wal.RecTxnCommit:
			fx.committed[r.Xid] = true
			return nil
		case wal.RecTxnAbort:
			// Informational: the compensating records precede it, and an
			// absent commit record already means aborted.
			return nil
		case wal.RecHeapInsert:
			fx.noteInsert(fixupKey{r.File, r.Page, r.Slot}, r.Data)
		case wal.RecHeapBatchInsert:
			for i, slot := range r.Slots {
				fx.noteInsert(fixupKey{r.File, r.Page, slot}, r.Recs[i])
			}
		case wal.RecHeapDelete:
			fx.noteDelete(fixupKey{r.File, r.Page, r.Slot})
		case wal.RecHeapSetXmax:
			if r.Xid != 0 {
				fx.lastXmaxSet[fixupKey{r.File, r.Page, r.Slot}] = r.Xid
			}
		case wal.RecHeapClearXmax:
			delete(fx.lastXmaxSet, fixupKey{r.File, r.Page, r.Slot})
		}
		switch r.Type {
		case wal.RecCheckpoint, wal.RecCommit:
			return nil
		case wal.RecFileCreate:
			created[r.File] = true
			_, err := open(r.File)
			return err
		case wal.RecPageImage, wal.RecHeapInsert, wal.RecHeapDelete, wal.RecHeapBatchInsert,
			wal.RecHeapSetXmax, wal.RecHeapClearXmax, wal.RecHeapMarkAborted,
			wal.RecSlotPut, wal.RecSlotDelete, wal.RecSlotPatch:
			bp, err := open(r.File)
			if bp == nil {
				return err
			}
			p, err := pin(bp, r)
			if err != nil {
				return err
			}
			dirty, err := redo(p.Data, r)
			bp.Unpin(p, dirty)
			return err
		default:
			return fmt.Errorf("storage: recovery: unexpected record type %v", r.Type)
		}
	}
	var unit []*wal.Record
	applyUnit := func() error {
		replayed += int64(len(unit))
		clear(unitImage)
		for _, r := range unit {
			if r.Type == wal.RecPageImage {
				unitImage[pageKey{r.File, r.Page}] = r.LSN
			}
		}
		for _, r := range unit {
			if err := apply(r); err != nil {
				return err
			}
		}
		clear(unit) // unit keeps its capacity, not the applied records
		unit = unit[:0]
		return nil
	}
	lastMarker := wal.LSN(0)
	rs, err := wal.Replay(walDir, func(r *wal.Record) error {
		if firstLSN == 0 {
			firstLSN = r.LSN
		}
		unit = append(unit, r)
		if r.Type != wal.RecCommit && r.Type != wal.RecCheckpoint {
			return nil
		}
		lastMarker = r.LSN
		return applyUnit()
	})
	st.ReplayStats = rs
	if err == nil && lastMarker == 0 {
		err = applyUnit()
	}
	if err != nil {
		return st, fmt.Errorf("storage: recovery: %w", err)
	}
	st.TailDiscarded = int64(len(unit))
	// Abort fixup: replay restored every surviving record, including the
	// tuples of transactions that never reached a commit record (a crash
	// mid-transaction, or mid-statement between the chunks of an
	// oversized DML). There is no undo log; instead, each such tuple is
	// repaired in place — inserted versions get the aborted flag,
	// stamped xmaxes are cleared — so no snapshot ever sees the
	// transaction's effects. Idempotent: re-recovering reapplies the
	// same repairs onto already-repaired pages.
	fixup := func(key fixupKey, xid uint64, edit func(rec []byte) bool) error {
		bp := rels[key.file]
		if fx.committed[xid] || bp == nil || bp.DM().NumPages() <= key.page {
			return nil
		}
		p, err := bp.Fetch(PageID(key.page))
		if err != nil {
			return fmt.Errorf("storage: recovery: %w", err)
		}
		rec := SlotRead(p.Data, int(key.slot))
		bp.Unpin(p, len(rec) >= tupleHeaderSize && edit(rec))
		return nil
	}
	for key, xid := range fx.lastInsert {
		if err := fixup(key, xid, func(rec []byte) bool {
			flags := binary.LittleEndian.Uint16(rec[tupleFlagsOffset:])
			if flags&flagXminAborted != 0 {
				return false
			}
			binary.LittleEndian.PutUint16(rec[tupleFlagsOffset:], flags|flagXminAborted)
			st.AbortFixups++
			return true
		}); err != nil {
			return st, err
		}
	}
	for key, xid := range fx.lastXmaxSet {
		if err := fixup(key, xid, func(rec []byte) bool {
			if binary.LittleEndian.Uint64(rec[tupleXmaxOffset:]) != xid {
				return false
			}
			binary.LittleEndian.PutUint64(rec[tupleXmaxOffset:], 0)
			st.XmaxFixups++
			return true
		}); err != nil {
			return st, err
		}
	}
	// Write back what redo dirtied and make it durable; the deferred
	// Crash drops the relations.
	if pool != nil {
		if err := pool.FlushAll(); err != nil {
			return st, fmt.Errorf("storage: recovery: %w", err)
		}
		for name, bp := range rels {
			if err := bp.DM().Sync(); err != nil {
				return st, fmt.Errorf("storage: recovery: sync %s: %w", name, err)
			}
			st.PagesWritten += bp.Stats().DirtyWrites
		}
	}
	// The discarded tail must not survive in the log: left in place, its
	// records would sit below the next run's commit markers and be
	// replayed as committed by a later recovery.
	if st.TailDiscarded > 0 {
		if terr := wal.TruncateAfter(walDir, lastMarker); terr != nil {
			return st, fmt.Errorf("storage: recovery: %w", terr)
		}
	}
	return st, nil
}
