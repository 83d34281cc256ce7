package storage

import (
	"bytes"
	"compress/flate"
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
	PageImages   int64 // page-image records applied
	SlotPuts     int64 // slot puts applied (heap tuples and index nodes, batch records included)
	SlotBatches  int64 // batch-put records applied
	SlotPatches  int64 // slot patches applied
	SlotDeletes  int64 // slot deletes applied
	SkippedByLSN int64 // logical records skipped because pageLSN was newer
	FilesTouched int   // distinct data files opened by redo
	PagesWritten int64 // pages redo wrote back: each it dirtied once, plus any evicted and written earlier
	TornPages    int64 // pages failing checksum at redo (torn at crash)
	TornRepaired int64 // torn pages reinitialized and rebuilt from the log
	// Committed holds the transactions the replayed log has a commit
	// record for, and LastCheckpoint the state its last checkpoint record
	// carries (zero when the log holds none): what the owner of versioned
	// records judges a crash's unresolved transactions by. Redo itself
	// applies every record alike.
	Committed      map[uint64]bool
	LastCheckpoint wal.CheckpointState
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
// wal.Replay decides which records are kept and where the kept log ends
// (RecoveryStats.End), and the log is left cut there for the writer.
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
//
// Redo knows no transactions: the records of one that never committed are
// applied like any other. It hands back the transactions the log commits
// and the state of its last checkpoint (RecoveryStats.Committed,
// LastCheckpoint), by which the owner of versioned records hides what the
// others wrote once the files are up to date.
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
	st.Committed = make(map[uint64]bool)
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
		case wal.RecSlotPut:
			if !SlotInsertAt(buf, int(r.Slot), r.Data) {
				return false, fmt.Errorf("storage: recovery: redo put does not fit page %d of %s", r.Page, r.File)
			}
			st.SlotPuts++
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
		case wal.RecSlotBatchPut:
			// One record redoes a whole page-worth of records — the
			// all-or-nothing unit of a multi-row INSERT's redo.
			for i, slot := range r.Slots {
				if !SlotInsertAt(buf, int(slot), r.Recs[i]) {
					return false, fmt.Errorf("storage: recovery: redo batch put does not fit page %d of %s", r.Page, r.File)
				}
			}
			st.SlotPuts += int64(len(r.Slots))
			st.SlotBatches++
		default: // RecSlotDelete
			SlotDelete(buf, int(r.Slot))
			st.SlotDeletes++
		}
		SetPageLSN(buf, uint64(r.LSN))
		return true, nil
	}
	apply := func(r *wal.Record) error {
		switch r.Type {
		case wal.RecTxnCommit:
			st.Committed[r.Xid] = true
			return nil
		case wal.RecCheckpoint:
			st.LastCheckpoint = r.Checkpoint
			return nil
		case wal.RecCommit:
			return nil
		case wal.RecFileCreate:
			created[r.File] = true
			_, err := open(r.File)
			return err
		case wal.RecPageImage, wal.RecSlotPut, wal.RecSlotDelete, wal.RecSlotPatch, wal.RecSlotBatchPut:
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
	rs, err := wal.Replay(walDir, func(r *wal.Record) error {
		if firstLSN == 0 {
			firstLSN = r.LSN
		}
		unit = append(unit, r)
		if r.Type != wal.RecCommit && r.Type != wal.RecCheckpoint {
			return nil
		}
		return applyUnit()
	})
	st.ReplayStats = rs
	if err == nil && rs.TailDiscarded == 0 {
		err = applyUnit()
	}
	if err != nil {
		return st, fmt.Errorf("storage: recovery: %w", err)
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
	// replayed as committed by a later recovery. A torn frame goes with
	// it, in one cut.
	if err := wal.Cut(walDir, rs.End); err != nil {
		return st, fmt.Errorf("storage: recovery: %w", err)
	}
	return st, nil
}
