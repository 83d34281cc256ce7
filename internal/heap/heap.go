// Package heap implements heap files: unordered collections of
// variable-length records stored in slotted pages, addressed by record
// identifiers (RIDs). Heap files play the role of PostgreSQL heap tables
// in this reproduction — every table's tuples live in one, indexes store
// RIDs pointing into it, and the sequential-scan baseline of the paper's
// suffix-tree experiment (Figure 16) is a full scan of one.
package heap

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
	"repro/internal/wal"
)

// RID identifies a record inside a heap file: a page number and a slot
// within the page. The zero value is not a valid RID (page 0 is the heap
// metadata page).
type RID struct {
	Page storage.PageID
	Slot uint16
}

// InvalidRID is the sentinel "no record" value.
var InvalidRID = RID{Page: storage.InvalidPageID}

// Valid reports whether r could reference a record.
func (r RID) Valid() bool { return r.Page != storage.InvalidPageID && r.Page != 0 }

func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Bytes encodes the RID in 6 bytes (page:4, slot:2), little-endian.
func (r RID) Bytes() [6]byte {
	var b [6]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(r.Page))
	binary.LittleEndian.PutUint16(b[4:], r.Slot)
	return b
}

// RIDFromBytes decodes a RID written by Bytes.
func RIDFromBytes(b []byte) RID {
	return RID{
		Page: storage.PageID(binary.LittleEndian.Uint32(b[0:])),
		Slot: binary.LittleEndian.Uint16(b[4:]),
	}
}

// RIDSize is the encoded size of a RID.
const RIDSize = 6

// Every heap record is prefixed by a fixed MVCC version header, the
// xmin/xmax/infomask triple of a PostgreSQL heap tuple:
//
//	+--------+--------+---------+----------- - -
//	| xmin:8 | xmax:8 | flags:2 | payload ...
//	+--------+--------+---------+----------- - -
//
// xmin is the inserting transaction, xmax the deleting one (0 = not
// deleted). xmin 0 is the frozen transaction: such tuples predate the
// MVCC machinery (system-catalog records, stored by Insert) and are
// visible to every snapshot.
const (
	// TupleHeaderSize is the fixed per-record MVCC header size.
	TupleHeaderSize = 18
	// FlagXminAborted marks a tuple whose inserting transaction rolled
	// back (or was judged aborted by crash recovery): invisible to every
	// snapshot, reclaimable by VACUUM.
	FlagXminAborted uint16 = 0x1
)

// TupleHeader is the decoded MVCC version header of one heap record.
type TupleHeader struct {
	Xmin  uint64
	Xmax  uint64
	Flags uint16
}

// EncodeTuple prepends h to payload, producing the on-page record bytes.
func EncodeTuple(h TupleHeader, payload []byte) []byte {
	rec := make([]byte, TupleHeaderSize+len(payload))
	h.put(rec)
	copy(rec[TupleHeaderSize:], payload)
	return rec
}

// put writes h over the first TupleHeaderSize bytes of rec.
func (h TupleHeader) put(rec []byte) {
	binary.LittleEndian.PutUint64(rec[0:], h.Xmin)
	binary.LittleEndian.PutUint64(rec[8:], h.Xmax)
	binary.LittleEndian.PutUint16(rec[16:], h.Flags)
}

// ParseTuple splits on-page record bytes into the version header and the
// payload (aliasing rec, not copying). Records shorter than the header —
// impossible through this package's insert paths — parse as frozen with
// the whole record as payload.
func ParseTuple(rec []byte) (TupleHeader, []byte) {
	if len(rec) < TupleHeaderSize {
		return TupleHeader{}, rec
	}
	return TupleHeader{
		Xmin:  binary.LittleEndian.Uint64(rec[0:]),
		Xmax:  binary.LittleEndian.Uint64(rec[8:]),
		Flags: binary.LittleEndian.Uint16(rec[16:]),
	}, rec[TupleHeaderSize:]
}

// Heap file meta page: the magic, and the body storage frames on page 0 —
// [target page u32 (hint)][live records u64].
const (
	MetaMagic    = 0x48454150 // "HEAP"
	MetaBodySize = 12
)

// File is a heap file over a buffer pool. Methods are not safe for
// concurrent mutation; the executor layer serializes access per table.
type File struct {
	bp *storage.BufferPool
	// target is the page the last insert went to and the first the next
	// one tries.
	target storage.PageID
	count  int64
	// free maps the pages deletes freed space on. An insert that does not
	// fit the target page goes to the lowest of them with room before the
	// file grows. It lives in memory only: after a reopen it is empty until
	// VACUUM's deletes fill it again.
	free *storage.FreeSpace
	// scratch holds the tuple setHeader rewrites.
	scratch []byte
}

// freeFloor is the least free space that lists a page in the free-space
// map. Most pages VACUUM visits under churn get back only a few hundred
// bytes, so the floor is far below a page: a typical tuple still fits.
const freeFloor = 128

func (f *File) metaBody() (body [MetaBodySize]byte) {
	binary.LittleEndian.PutUint32(body[0:], uint32(f.target))
	binary.LittleEndian.PutUint64(body[4:], uint64(f.count))
	return body
}

// Create initializes a new heap file on an empty buffer pool / disk.
func Create(bp *storage.BufferPool) (*File, error) {
	f := &File{bp: bp, target: storage.InvalidPageID, free: storage.NewFreeSpace(freeFloor)}
	body := f.metaBody()
	if err := bp.CreateMeta(MetaMagic, body[:]); err != nil {
		return nil, err
	}
	return f, nil
}

// Open attaches to an existing heap file.
func Open(bp *storage.BufferPool) (*File, error) {
	var body [MetaBodySize]byte
	if err := bp.ReadMeta(MetaMagic, body[:]); err != nil {
		return nil, err
	}
	return &File{
		bp:     bp,
		target: storage.PageID(binary.LittleEndian.Uint32(body[0:])),
		count:  int64(binary.LittleEndian.Uint64(body[4:])),
		free:   storage.NewFreeSpace(freeFloor),
	}, nil
}

// Pool returns the underlying buffer pool (for statistics).
func (f *File) Pool() *storage.BufferPool { return f.bp }

// Count returns the number of live records.
func (f *File) Count() int64 { return f.count }

// FreeBytes returns the free bytes of the pages in the free-space map.
func (f *File) FreeBytes() int64 { return f.free.Total() }

// NumPages returns the number of pages in the file (including metadata).
func (f *File) NumPages() uint32 { return f.bp.DM().NumPages() }

// SaveMeta writes the target-page hint and the record count into the meta
// page, dirtying it (and so logging the change with the next record group)
// only when one of them changed. Inserts and deletes do not call it: both
// fields are counters of what the data pages hold, not pointers anything
// is found through, so the owner saves them once at its commit point —
// a statement inside a transaction logs its tuples and nothing else. After
// a crash they read as of the last commit; Recount brings them up to what
// recovery replayed.
func (f *File) SaveMeta() error {
	body := f.metaBody()
	return f.bp.WriteMeta(body[:])
}

// Fixups counts the tuple headers a Recount repaired.
type Fixups struct {
	Aborted     int64 // tuples of unresolved transactions flagged aborted
	XmaxCleared int64 // xmaxes of unresolved transactions cleared
}

// Unresolved returns the rule by which a crash leaves transaction xid
// unresolved: the surviving log holds no commit record for it
// (committed), and it was not resolved before the log's last checkpoint
// (ckpt) — it was assigned after it, or was open at it. Such a
// transaction never committed, and a rollback that was under way may not
// have reached the disk. The frozen xid 0 is never unresolved.
func Unresolved(committed map[uint64]bool, ckpt wal.CheckpointState) func(xid uint64) bool {
	running := make(map[uint64]bool, len(ckpt.Running))
	for _, x := range ckpt.Running {
		running[x] = true
	}
	return func(xid uint64) bool {
		return xid != 0 && !committed[xid] && (xid >= ckpt.NextXid || running[xid])
	}
}

// Recount is the heap's pass after crash recovery. It sets the record
// count from the data pages themselves, and the target page to the last
// of them: redo replays the tuples of statements whose commit point — and
// with it their SaveMeta — never came. It also repairs, where each
// tuple's header lies, what transactions the crash left unresolved wrote
// (there is no undo log): a tuple whose xmin is unresolved is flagged
// aborted, and an xmax that is unresolved is cleared. The repairs go
// through the logged header writes, MarkAborted and ClearXmax, and flush
// is called after every chunk pages repaired and after the last, so that
// the owner can append them before they pin more of the pool than it
// holds. A slot a later tuple reuses shows that tuple, so only the
// current one is judged. Run again on the repaired file, it repairs
// nothing.
func (f *File) Recount(unresolved func(xid uint64) bool, chunk int, flush func() error) (Fixups, error) {
	var fx Fixups
	var aborted, cleared []uint16
	repaired := 0
	n := f.NumPages()
	f.count, f.target = 0, storage.InvalidPageID
	for pid := storage.PageID(1); uint32(pid) < n; pid++ {
		p, err := f.bp.Fetch(pid)
		if err != nil {
			return fx, err
		}
		f.count += int64(storage.SlotLive(p.Data))
		aborted, cleared = aborted[:0], cleared[:0]
		storage.SlotForEach(p.Data, func(slot int, rec []byte) bool {
			h, _ := ParseTuple(rec)
			if h.Flags&FlagXminAborted == 0 && unresolved(h.Xmin) {
				aborted = append(aborted, uint16(slot))
			}
			if unresolved(h.Xmax) {
				cleared = append(cleared, uint16(slot))
			}
			return true
		})
		f.bp.Unpin(p, false)
		f.target = pid
		if len(aborted)+len(cleared) == 0 {
			continue
		}
		for _, slot := range aborted {
			if err := f.MarkAborted(RID{Page: pid, Slot: slot}); err != nil {
				return fx, err
			}
		}
		for _, slot := range cleared {
			if err := f.ClearXmax(RID{Page: pid, Slot: slot}); err != nil {
				return fx, err
			}
		}
		fx.Aborted += int64(len(aborted))
		fx.XmaxCleared += int64(len(cleared))
		if repaired++; repaired%chunk == 0 {
			if err := flush(); err != nil {
				return fx, err
			}
		}
	}
	if repaired%chunk != 0 {
		return fx, flush()
	}
	return fx, nil
}

// Insert stores payload as a frozen tuple (xmin 0, visible to every
// snapshot) on the page place picks, and returns its RID: the system
// catalog's rows. A table's rows go in through InsertBatchTx.
func (f *File) Insert(payload []byte) (RID, error) {
	rec := EncodeTuple(TupleHeader{}, payload)
	if len(rec) > storage.SlotCapacity(f.bp.DM().PageSize()) {
		return InvalidRID, fmt.Errorf("heap: record of %d bytes exceeds page capacity", len(rec))
	}
	p, slot, err := f.place(rec)
	if err != nil {
		return InvalidRID, err
	}
	f.bp.UnpinPut(p, slot, rec)
	f.count++
	return RID{Page: p.ID, Slot: uint16(slot)}, nil
}

// place stores rec on the first page that takes it — the target page, then
// the lowest-numbered page the free-space map has room on, then a new page
// at the end of the file, PostgreSQL's target-block, FSM, extend order —
// and returns that page, still pinned, with the record's slot. The page
// becomes the target.
func (f *File) place(rec []byte) (*storage.Page, int, error) {
	if p, slot, err := f.tryPage(f.target, rec); p != nil || err != nil {
		return p, slot, err
	}
	for tried := storage.PageID(0); ; {
		pid := f.free.Lowest(len(rec), tried, f.target)
		if pid == storage.InvalidPageID {
			break
		}
		if p, slot, err := f.tryPage(pid, rec); p != nil || err != nil {
			if p != nil {
				f.target = pid
			}
			return p, slot, err
		}
		tried = pid
	}
	p, err := f.bp.NewPage()
	if err != nil {
		return nil, 0, err
	}
	storage.SlotInit(p.Data)
	slot, ok := storage.SlotInsert(p.Data, rec)
	if !ok {
		f.bp.Unpin(p, false)
		return nil, 0, fmt.Errorf("heap: record of %d bytes does not fit an empty page", len(rec))
	}
	f.target = p.ID
	return p, slot, nil
}

// tryPage stores rec on page pid if it fits, returning the page pinned and
// the slot, or a nil page. A page the free-space map knows is not fetched
// when the map says rec does not fit, and its figure follows the insert.
func (f *File) tryPage(pid storage.PageID, rec []byte) (*storage.Page, int, error) {
	if pid == storage.InvalidPageID {
		return nil, 0, nil
	}
	free, known := f.free.Free(pid)
	if known && free < len(rec) {
		return nil, 0, nil
	}
	p, err := f.bp.Fetch(pid)
	if err != nil {
		return nil, 0, err
	}
	slot, ok := f.insertNoted(p, rec)
	if !ok {
		f.bp.Unpin(p, false)
		return nil, 0, nil
	}
	return p, slot, nil
}

// insertNoted is storage.SlotInsert on the pinned page p that keeps the
// free-space map's figure for p, if it has one, exact.
func (f *File) insertNoted(p *storage.Page, rec []byte) (int, bool) {
	if _, known := f.free.Free(p.ID); !known {
		return storage.SlotInsert(p.Data, rec)
	}
	dir := storage.SlotDirCost(p.Data)
	slot, ok := storage.SlotInsert(p.Data, rec)
	if ok {
		f.free.Note(p, dir, len(rec))
	}
	return slot, ok
}

// InsertBatchTx stores every payload as a new tuple version created by
// transaction xmin, placing each page's first record as Insert does and
// the records after it on the same page while they fit, so each filled
// page is pinned once and covered by one batch-put log record rather than
// one record per tuple. The returned RIDs parallel payloads. The encoded
// records are fresh allocations, so callers may reuse their payload
// slices.
func (f *File) InsertBatchTx(payloads [][]byte, xmin uint64) ([]RID, error) {
	capacity := storage.SlotCapacity(f.bp.DM().PageSize())
	recs := make([][]byte, len(payloads))
	for i, payload := range payloads {
		recs[i] = EncodeTuple(TupleHeader{Xmin: xmin}, payload)
		if len(recs[i]) > capacity {
			return nil, fmt.Errorf("heap: record of %d bytes exceeds page capacity", len(recs[i]))
		}
	}
	var hdr [TupleHeaderSize]byte
	TupleHeader{Xmin: xmin}.put(hdr[:])
	rids := make([]RID, 0, len(recs))
	for i := 0; i < len(recs); {
		p, slot, err := f.place(recs[i])
		if err != nil {
			return rids, err
		}
		// Fill this page with as many of the remaining records as fit.
		slots := []uint16{uint16(slot)}
		placed := [][]byte{payloads[i]}
		rids = append(rids, RID{Page: p.ID, Slot: uint16(slot)})
		for i++; i < len(recs); i++ {
			slot, ok := f.insertNoted(p, recs[i])
			if !ok {
				break
			}
			rids = append(rids, RID{Page: p.ID, Slot: uint16(slot)})
			slots = append(slots, uint16(slot))
			placed = append(placed, payloads[i])
		}
		f.count += int64(len(slots))
		// One batch put covers the whole page-worth of tuples. They
		// share one fresh header, the record's prefix, which it carries
		// as xmin alone: xmax and flags are zeros.
		f.bp.UnpinDeferred(p, func(g *wal.Group, file string) int {
			return g.AddSlotBatchPut(file, uint32(p.ID), slots, hdr[:], placed)
		})
	}
	return rids, nil
}

// Get returns a copy of the record payload at rid (version header
// stripped), or nil if no record exists there. Version-blind: callers
// that honor snapshots use GetVersion.
func (f *File) Get(rid RID) (out []byte, err error) {
	err = f.GetVersion(rid, func(_ TupleHeader, payload []byte) error {
		out = make([]byte, len(payload))
		copy(out, payload)
		return nil
	})
	return out, err
}

// GetVersion calls read with the version header and the payload of the
// record at rid while its page is pinned: payload lies in the page and is
// valid only during the call, so a reader that skips the version copies
// nothing and one that wants it decodes straight from the page. read is not
// called if no record exists at rid; its error is returned.
func (f *File) GetVersion(rid RID, read func(h TupleHeader, payload []byte) error) error {
	if !rid.Valid() || uint32(rid.Page) >= f.NumPages() {
		return nil
	}
	p, err := f.bp.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer f.bp.Unpin(p, false)
	rec := storage.SlotRead(p.Data, int(rid.Slot))
	if rec == nil {
		return nil
	}
	return read(ParseTuple(rec))
}

// setHeader rewrites the version header of the record at rid in place
// by edit, logged as a slot patch of the bytes that changed. Mutating a
// non-existent record is a no-op, like Delete.
func (f *File) setHeader(rid RID, edit func(h *TupleHeader)) error {
	if !rid.Valid() || uint32(rid.Page) >= f.NumPages() {
		return nil
	}
	p, err := f.bp.Fetch(rid.Page)
	if err != nil {
		return err
	}
	rec := storage.SlotRead(p.Data, int(rid.Slot))
	if len(rec) < TupleHeaderSize {
		f.bp.Unpin(p, false)
		return nil
	}
	h, _ := ParseTuple(rec)
	edit(&h)
	f.scratch = append(f.scratch[:0], rec...)
	h.put(f.scratch)
	return f.bp.UnpinRewrite(p, int(rid.Slot), f.scratch)
}

// SetXmax stamps xid as the deleting transaction of the tuple at rid —
// the MVCC delete: the version stays in place for snapshots that predate
// the deleter.
func (f *File) SetXmax(rid RID, xid uint64) error {
	return f.setHeader(rid, func(h *TupleHeader) { h.Xmax = xid })
}

// ClearXmax zeroes the xmax of the tuple at rid — the undo of SetXmax,
// applied when the deleting transaction rolls back.
func (f *File) ClearXmax(rid RID) error {
	return f.setHeader(rid, func(h *TupleHeader) { h.Xmax = 0 })
}

// MarkAborted sets the aborted flag on the tuple at rid, hiding it from
// every snapshot — the undo of an insert whose transaction rolled back.
func (f *File) MarkAborted(rid RID) error {
	return f.setHeader(rid, func(h *TupleHeader) { h.Flags |= FlagXminAborted })
}

// Delete removes the record at rid and notes the page's free space in the
// free-space map, so later inserts fill it. Deleting a non-existent record
// is a no-op.
func (f *File) Delete(rid RID) error {
	if !rid.Valid() || uint32(rid.Page) >= f.NumPages() {
		return nil
	}
	p, err := f.bp.Fetch(rid.Page)
	if err != nil {
		return err
	}
	rec := storage.SlotRead(p.Data, int(rid.Slot))
	if rec == nil {
		f.bp.Unpin(p, false)
		return nil
	}
	dir := storage.SlotDirCost(p.Data)
	storage.SlotDelete(p.Data, int(rid.Slot))
	f.free.Note(p, dir, -len(rec))
	f.bp.UnpinDelete(p, int(rid.Slot))
	f.count--
	return nil
}

// ScanPageVersions calls fn for every live record of one data page — the
// unit of ANALYZE's block sampling — with its decoded version header.
// The payload slice is only valid during the call. Scanning a page
// outside the file is a no-op.
func (f *File) ScanPageVersions(pid storage.PageID, fn func(rid RID, h TupleHeader, payload []byte) bool) error {
	if uint32(pid) == 0 || uint32(pid) >= f.NumPages() {
		return nil
	}
	p, err := f.bp.Fetch(pid)
	if err != nil {
		return err
	}
	storage.SlotForEach(p.Data, func(slot int, rec []byte) bool {
		h, payload := ParseTuple(rec)
		return fn(RID{Page: pid, Slot: uint16(slot)}, h, payload)
	})
	f.bp.Unpin(p, false)
	return nil
}

// Scan calls fn for every live record in file order with the version
// header stripped. The rec slice is only valid during the call. Scanning
// stops early if fn returns false. Version-blind: snapshot readers use
// ScanVersions.
func (f *File) Scan(fn func(rid RID, rec []byte) bool) error {
	return f.ScanVersions(func(rid RID, _ TupleHeader, payload []byte) bool {
		return fn(rid, payload)
	})
}

// ScanVersions calls fn for every live record in file order with its
// decoded version header. The payload slice is only valid during the
// call. Scanning stops early if fn returns false.
func (f *File) ScanVersions(fn func(rid RID, h TupleHeader, payload []byte) bool) error {
	n := f.NumPages()
	for pid := storage.PageID(1); uint32(pid) < n; pid++ {
		p, err := f.bp.Fetch(pid)
		if err != nil {
			return err
		}
		stop := false
		storage.SlotForEach(p.Data, func(slot int, rec []byte) bool {
			h, payload := ParseTuple(rec)
			if !fn(RID{Page: pid, Slot: uint16(slot)}, h, payload) {
				stop = true
				return false
			}
			return true
		})
		f.bp.Unpin(p, false)
		if stop {
			return nil
		}
	}
	return nil
}
