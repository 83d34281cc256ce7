package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Page header. Every page of every relation file — heap, SP-GiST, B+-tree,
// R-tree, page 0 included — opens with the same 24 bytes, so the buffer
// pool, recovery, SCRUB and the page inspector treat all of them alike:
//
//	+--------+--------+--------+--------+----------------+----------+----------+--- - -
//	| nslots | freeLo | freeHi | nlive  | pageLSN (8B)   | cksum 4B | rsvd 4B  | body ...
//	+--------+--------+--------+--------+----------------+----------+----------+--- - -
//
// pageLSN is the uint64 LSN of the last write-ahead-log record applied
// to the page — the role of pd_lsn in a PostgreSQL page header; it lets
// redo skip records the page already reflects. cksum is a
// CRC32-Castagnoli over the whole page with the field itself read as
// zero (pd_checksum's role, see checksum.go). The trailing 4 bytes are
// reserved.
//
// The first four fields, uint16 little-endian, belong to the slotted
// layout below and stay zero on pages that keep one node (B+-tree,
// R-tree) or a meta body (page 0, see meta.go) after the header. On a
// slotted page — heap tuples, SP-GiST nodes — the body is a line-pointer
// directory growing up and records growing down, addressed by stable
// slot numbers, so tree nodes can hold (page, slot) child pointers while
// records move during compaction:
//
//	| header | slot dir ... ->    ... free space ...    <- records |
//
// The directory ends at 24 + 4·nslots and the record heap starts at
// freeHi; between them lies the contiguous gap. A record is placed at the
// top of the gap, so the gap alone decides most fits: free space counts
// the gap plus every dead byte, and the directory is walked (to sum the
// live lengths) only when the gap is too small to answer. A growing
// record that does not fit the gap but whose growth does is widened where
// it lies: the records between the gap and it shift down by the growth,
// as PostgreSQL's PageIndexTupleOverwrite does. The whole page is
// compacted only to reuse space that deletes and shrinking updates freed.
//
// The uint16 fields limit a slotted page to 65535 bytes (the default
// 8 KB page qualifies).
const (
	// PageHeaderSize is the size of the header every page starts with.
	PageHeaderSize = 24

	slotSize           = 4
	deadOffset         = 0xFFFF
	pageLSNOffset      = 8
	pageChecksumOffset = 16
)

func get16(b []byte, off int) uint16    { return binary.LittleEndian.Uint16(b[off:]) }
func put16(b []byte, off int, v uint16) { binary.LittleEndian.PutUint16(b[off:], v) }

// SlotInit initializes an empty slotted area in data.
func SlotInit(data []byte) {
	if len(data) > 0xFFFF {
		panic("storage: slotted area larger than 64KB")
	}
	put16(data, 0, 0)                 // nslots
	put16(data, 2, PageHeaderSize)    // freeLo: end of slot directory
	put16(data, 4, uint16(len(data))) // freeHi: start of record heap
	put16(data, 6, 0)                 // nlive
	SetPageLSN(data, 0)
	binary.LittleEndian.PutUint64(data[pageChecksumOffset:], 0) // checksum (stamped at write-back) and reserved
}

// PageLSN returns the LSN of the last WAL record applied to the area.
func PageLSN(data []byte) uint64 {
	return binary.LittleEndian.Uint64(data[pageLSNOffset:])
}

// SetPageLSN stamps the LSN of the last WAL record applied to the area.
func SetPageLSN(data []byte, lsn uint64) {
	binary.LittleEndian.PutUint64(data[pageLSNOffset:], lsn)
}

// SlotAreaBlank reports whether the area has never been initialized by
// SlotInit (an all-zero header: a freshly allocated page). Recovery uses
// it to decide whether a redo target needs SlotInit first.
func SlotAreaBlank(data []byte) bool {
	return get16(data, 4) == 0 // freeHi is at least the header size once initialized
}

// SlotCapacity returns the largest record an empty slotted area of
// areaLen bytes can hold: the area minus the header and one directory
// entry. Callers sizing records to a page must use this rather than
// hardcoding the overhead.
func SlotCapacity(areaLen int) int { return areaLen - PageHeaderSize - slotSize }

// SlotUsable returns the bytes of an empty slotted area available for
// records plus their directory entries: the area minus the header. A set
// of records fits one area iff the sum of each record's length plus
// SlotEntrySize stays within SlotUsable.
func SlotUsable(areaLen int) int { return areaLen - PageHeaderSize }

// SlotEntrySize is the directory cost of one record.
const SlotEntrySize = slotSize

// SlotCount returns the number of slots ever created (live and dead).
// A corrupt nslots larger than the directory could physically occupy is
// clamped so iteration never reads past the area.
func SlotCount(data []byte) int {
	if len(data) < PageHeaderSize {
		return 0
	}
	n := int(get16(data, 0))
	if maxSlots := (len(data) - PageHeaderSize) / slotSize; n > maxSlots {
		return maxSlots
	}
	return n
}

// SlotLive returns the number of live records.
func SlotLive(data []byte) int { return int(get16(data, 6)) }

func slotEntry(data []byte, slot int) (off, length uint16) {
	e := binary.LittleEndian.Uint32(data[PageHeaderSize+slot*slotSize:])
	return uint16(e), uint16(e >> 16)
}

func setSlotEntry(data []byte, slot int, off, length uint16) {
	binary.LittleEndian.PutUint32(data[PageHeaderSize+slot*slotSize:], uint32(off)|uint32(length)<<16)
}

// SlotEntry exposes one raw line-pointer for inspection tools: the
// record's byte offset and length within the area, and whether the slot
// is dead. Out-of-range slots report dead with zero offset and length.
func SlotEntry(data []byte, slot int) (off, length uint16, dead bool) {
	if slot < 0 || slot >= SlotCount(data) {
		return 0, 0, true
	}
	off, length = slotEntry(data, slot)
	return off, length, off == deadOffset
}

// SlotFreeSpace returns the number of payload bytes available for one new
// record, accounting for the slot-directory entry the record may need and
// assuming compaction. A record of size <= SlotFreeSpace(data) is
// guaranteed to be insertable.
func SlotFreeSpace(data []byte) int {
	nslots := SlotCount(data)
	used := 0
	reusable := false
	for s := 0; s < nslots; s++ {
		off, length := slotEntry(data, s)
		if off != deadOffset {
			used += int(length)
		} else {
			reusable = true
		}
	}
	free := len(data) - PageHeaderSize - nslots*slotSize - used
	if !reusable {
		free -= slotSize // a new slot entry would be needed
	}
	if free < 0 {
		return 0
	}
	return free
}

// SlotDirCost is the part of an area SlotFreeSpace charges to the slot
// directory: its entries, plus the entry a new record would need while no
// dead one is there to reuse (the live count is in the header, so this
// reads two fields and walks nothing). Callers that keep their own
// free-space figure for an area take it before an operation: see
// SlotFreeSpaceAfter.
func SlotDirCost(data []byte) int {
	return SlotCount(data)*slotSize + slotReserve(data)
}

// slotReserve is the directory entry a new record would need: none while a
// dead slot is there to reuse — the header's live count below its slot
// count says one is — and one otherwise.
func slotReserve(data []byte) int {
	if SlotCount(data) > SlotLive(data) {
		return 0
	}
	return slotSize
}

// slotGap returns the contiguous free bytes between the end of the slot
// directory and the start of the record heap. A header whose record heap
// starts outside the area or inside the directory — corrupt bytes — has no
// gap.
func slotGap(data []byte) int {
	freeLo := PageHeaderSize + SlotCount(data)*slotSize
	freeHi := int(get16(data, 4))
	if freeHi > len(data) || freeHi < freeLo {
		return 0
	}
	return freeHi - freeLo
}

// slotFits reports whether n <= SlotFreeSpace(data), reading the gap
// first: free space is the gap, less the entry a new record may need, plus
// every dead byte, so a gap that holds n and that entry answers alone, and
// only a smaller one has the directory walked.
func slotFits(data []byte, n int) bool {
	return n+slotReserve(data) <= slotGap(data) || n <= SlotFreeSpace(data)
}

// SlotFreeSpaceAfter is SlotFreeSpace(data) for a caller that knows what it
// was before its last operation on the area: before is that figure,
// dirBefore the SlotDirCost taken with it, grew the bytes the operation
// added to live records (negative when it removed some). Free space moves
// by exactly what the operation put in, so nothing is walked — unless
// before is 0, which may be a clamped deficit: then the directory is
// walked after all.
func SlotFreeSpaceAfter(data []byte, before, dirBefore, grew int) int {
	if before <= 0 {
		return SlotFreeSpace(data)
	}
	return max(before-grew-(SlotDirCost(data)-dirBefore), 0)
}

// SlotInsert stores rec and returns its slot number, or ok=false if the
// area cannot hold it even after compaction.
func SlotInsert(data []byte, rec []byte) (slot int, ok bool) {
	if !slotFits(data, len(rec)) {
		return 0, false
	}
	nslots := SlotCount(data)
	// Reuse a dead slot if any, else append one. Only a live count below
	// the slot count says there is one to look for.
	slot = -1
	if slotReserve(data) == 0 {
		for s := 0; s < nslots; s++ {
			if off, _ := slotEntry(data, s); off == deadOffset {
				slot = s
				break
			}
		}
	}
	if slot < 0 {
		// Extending the directory must not overwrite record bytes: if the
		// new entry would cross freeHi, compact first to push records to
		// the high end (the SlotFreeSpace check above guarantees room).
		if PageHeaderSize+(nslots+1)*slotSize > int(get16(data, 4)) {
			slotCompact(data)
		}
		slot = nslots
		put16(data, 0, uint16(nslots+1))
		// Mark the fresh slot dead until the record is placed so that a
		// compaction triggered below does not read stale directory bytes.
		setSlotEntry(data, slot, deadOffset, 0)
	}
	if !slotPlace(data, slot, rec) {
		// Unreachable: the SlotFreeSpace check above guarantees fit.
		return 0, false
	}
	return slot, true
}

// slotPlace copies rec into the record heap and points slot at it,
// compacting first when the contiguous gap is too small. The slot entry
// must already exist (dead or about to be overwritten). Returns false
// if the record does not fit even after compaction.
func slotPlace(data []byte, slot int, rec []byte) bool {
	freeLo := PageHeaderSize + SlotCount(data)*slotSize
	freeHi := int(get16(data, 4))
	if freeHi-freeLo < len(rec) {
		slotCompact(data)
		freeHi = int(get16(data, 4))
		if freeHi-freeLo < len(rec) {
			return false
		}
	}
	off := freeHi - len(rec)
	copy(data[off:], rec)
	put16(data, 4, uint16(off))
	setSlotEntry(data, slot, uint16(off), uint16(len(rec)))
	put16(data, 6, get16(data, 6)+1)
	return true
}

// SlotRead returns the record stored in slot, or nil if the slot is dead
// or out of range. The returned slice aliases data. A line pointer whose
// offset or length escapes the area — corrupt on-disk bytes, not a state
// this package ever writes — also reads as nil rather than panicking.
func SlotRead(data []byte, slot int) []byte {
	if slot < 0 || slot >= SlotCount(data) {
		return nil
	}
	off, length := slotEntry(data, slot)
	if off == deadOffset {
		return nil
	}
	if int(off) < PageHeaderSize || int(off)+int(length) > len(data) {
		return nil
	}
	return data[off : int(off)+int(length)]
}

// SlotDelete removes the record in slot. Space is reclaimed lazily by
// compaction.
func SlotDelete(data []byte, slot int) {
	if SlotRead(data, slot) == nil {
		return
	}
	setSlotEntry(data, slot, deadOffset, 0)
	put16(data, 6, get16(data, 6)-1)
	// Trim trailing dead slots so their directory space is reusable.
	n := SlotCount(data)
	for n > 0 {
		if off, _ := slotEntry(data, n-1); off != deadOffset {
			break
		}
		n--
	}
	put16(data, 0, uint16(n))
}

// SlotUpdate replaces the record in slot with rec, keeping the slot number
// stable. Returns false if the area cannot hold the new record (the old
// record is preserved in that case).
func SlotUpdate(data []byte, slot int, rec []byte) bool {
	old := SlotRead(data, slot)
	if old == nil {
		return false
	}
	if len(rec) <= len(old) {
		off, _ := slotEntry(data, slot)
		copy(data[off:], rec)
		setSlotEntry(data, slot, off, uint16(len(rec)))
		return true
	}
	// Would the record fit once the old copy is dropped? (Conservative:
	// the update never needs a new slot entry, but SlotFreeSpace may have
	// reserved one.)
	grow := len(rec) - len(old)
	if !slotFits(data, grow) {
		return false
	}
	// The longer record goes into the contiguous gap when it fits there,
	// leaving the old bytes for a later compaction to reclaim. Else, when
	// the gap holds the growth, the record widens where it lies. Only
	// otherwise is the slot killed (without trimming) and the area
	// compacted first. Which of the three happens moves bytes, never
	// answers: SlotFreeSpace counts live lengths, not the gap.
	gap, freeHi := slotGap(data), int(get16(data, 4))
	if len(rec) > gap {
		if off, _ := slotEntry(data, slot); grow <= gap && int(off) >= freeHi {
			slotGrowInPlace(data, slot, int(off), rec)
			return true
		}
		setSlotEntry(data, slot, deadOffset, 0)
		slotCompact(data)
		freeHi = int(get16(data, 4))
		if freeHi-len(rec) < PageHeaderSize+SlotCount(data)*slotSize {
			// The space check above guarantees fit on any page this
			// package wrote; only corrupt on-disk bytes (inconsistent line
			// pointers inflating SlotFreeSpace) get here. The old record is
			// already compacted away — report failure instead of panicking.
			return false
		}
	}
	off := freeHi - len(rec)
	copy(data[off:], rec)
	put16(data, 4, uint16(off))
	setSlotEntry(data, slot, uint16(off), uint16(len(rec)))
	return true
}

// slotGrowInPlace widens the record of slot, stored at off, to rec where it
// lies: the bytes between the gap and the record — other records, and
// whatever dead bytes lie among them — shift down by the growth, the line
// pointers of the records among them follow, and rec takes the widened
// place. The caller has checked that the gap holds the growth.
func slotGrowInPlace(data []byte, slot, off int, rec []byte) {
	_, oldLen := slotEntry(data, slot)
	grow := len(rec) - int(oldLen)
	freeHi := int(get16(data, 4))
	copy(data[freeHi-grow:], data[freeHi:off])
	for s, n := 0, SlotCount(data); s < n; s++ {
		if o, l := slotEntry(data, s); o != deadOffset && int(o) < off {
			setSlotEntry(data, s, o-uint16(grow), l)
		}
	}
	copy(data[off-grow:], rec)
	put16(data, 4, uint16(freeHi-grow))
	setSlotEntry(data, slot, uint16(off-grow), uint16(len(rec)))
}

// SlotInsertAt places rec into a specific slot, growing the directory
// with dead entries as needed. It exists for WAL redo, which must
// reproduce the exact slot assignment recorded at run time. The call is
// idempotent: if the slot already holds rec it is a no-op, and if it
// holds different bytes the record is replaced. Returns false only if
// the area cannot hold the record (impossible when replaying a log of
// operations that fit originally).
func SlotInsertAt(data []byte, slot int, rec []byte) bool {
	if old := SlotRead(data, slot); old != nil {
		if bytes.Equal(old, rec) {
			return true
		}
		return SlotUpdate(data, slot, rec)
	}
	nslots := SlotCount(data)
	// Grow the directory so the target slot exists, dead until filled.
	for nslots <= slot {
		if PageHeaderSize+(nslots+1)*slotSize > int(get16(data, 4)) {
			slotCompact(data)
			if PageHeaderSize+(nslots+1)*slotSize > int(get16(data, 4)) {
				return false
			}
		}
		setSlotEntry(data, nslots, deadOffset, 0)
		nslots++
		put16(data, 0, uint16(nslots))
	}
	return slotPlace(data, slot, rec)
}

// Slot patches. A record rewritten where it lies — most of it unchanged —
// is logged as what changed, PostgreSQL's generic-WAL delta in miniature:
//
//	newLen:2 { off:2 len:2 bytes }*
//
// Redo cuts the old record to newLen, or extends it with zeros, and copies
// each fragment's bytes over it at off. The fragments are the runs of the
// new record that differ from the old one at the same offsets, the bytes
// past the old record's end included; runs no more than a fragment header
// apart travel as one fragment, since the equal bytes between them cost no
// more than a second header would.
const (
	patchLenSize    = 2
	patchFragHeader = 4
)

// AppendSlotPatch appends to dst the patch that turns the record old into
// rec and reports whether it is smaller than rec — the one case in which
// logging it in place of the whole record pays. When it is not, dst comes
// back at its old length (the diff stops as soon as it knows).
func AppendSlotPatch(dst, old, rec []byte) ([]byte, bool) {
	base := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec)))
	n := min(len(old), len(rec))
	start, end := -1, -1 // the fragment being gathered: rec[start:end]
	flush := func() {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(start))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(end-start))
		dst = append(dst, rec[start:end]...)
	}
	// add takes in the changed run rec[d:e] and reports whether the patch
	// can still come out smaller than rec.
	add := func(d, e int) bool {
		if start >= 0 && d-end <= patchFragHeader {
			end = e
			return true
		}
		if start >= 0 {
			flush()
		}
		start, end = d, e
		return len(dst)-base < len(rec)
	}
	for i := 0; ; {
		d := i + firstDiff(old[i:n], rec[i:n])
		if d == n {
			break
		}
		e := d + 1
		for e < n && old[e] != rec[e] {
			e++
		}
		if !add(d, e) {
			return dst[:base], false
		}
		i = e
	}
	if len(rec) > n && !add(n, len(rec)) {
		return dst[:base], false
	}
	if start >= 0 {
		flush()
	}
	if len(dst)-base >= len(rec) {
		return dst[:base], false
	}
	return dst, true
}

// firstDiff returns the first index at which a and b, of equal length,
// differ, or their length; it compares a word at a time.
func firstDiff(a, b []byte) int {
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < len(a) && a[i] == b[i] {
		i++
	}
	return i
}

// SlotPatch rewrites the record in slot by patch, AppendSlotPatch's
// encoding — the redo of a slot-patch record. It returns an error when the
// slot is dead, the patch is malformed, a fragment runs past the new
// length, or the new record does not fit the area.
func SlotPatch(data []byte, slot int, patch []byte) error {
	old := SlotRead(data, slot)
	if old == nil {
		return fmt.Errorf("storage: patch of slot %d: the slot is dead", slot)
	}
	if len(patch) < patchLenSize {
		return fmt.Errorf("storage: patch of slot %d: truncated length", slot)
	}
	newLen := int(get16(patch, 0))
	sp := compactScratch.Get().(*[]byte)
	defer compactScratch.Put(sp)
	rec := append((*sp)[:0], old[:min(len(old), newLen)]...)
	rec = append(rec, make([]byte, newLen-len(rec))...)
	*sp = rec
	for frags := patch[patchLenSize:]; len(frags) > 0; {
		if len(frags) < patchFragHeader {
			return fmt.Errorf("storage: patch of slot %d: truncated fragment header", slot)
		}
		off, n := int(get16(frags, 0)), int(get16(frags, 2))
		if off+n > newLen {
			return fmt.Errorf("storage: patch of slot %d: fragment [%d, %d) runs past the new length %d", slot, off, off+n, newLen)
		}
		if len(frags) < patchFragHeader+n {
			return fmt.Errorf("storage: patch of slot %d: truncated fragment", slot)
		}
		copy(rec[off:], frags[patchFragHeader:patchFragHeader+n])
		frags = frags[patchFragHeader+n:]
	}
	if !SlotUpdate(data, slot, rec) {
		return fmt.Errorf("storage: patch of slot %d: the new length %d does not fit the page", slot, newLen)
	}
	return nil
}

// pageHole returns the bytes of a page that an image of it leaves out, as
// an offset and a length: the gap between the slot directory and the
// records, whatever it holds. Redo writes zeros there, so a page rebuilt
// from an image can differ from the page imaged only in the gap's bytes,
// which no slot reads. A header that names no gap — a page never
// initialized, or corrupt — leaves nothing out.
func pageHole(data []byte) (off, n int) {
	freeLo := PageHeaderSize + SlotCount(data)*slotSize
	if freeHi := int(get16(data, 4)); freeLo <= freeHi && freeHi <= len(data) {
		return freeLo, freeHi - freeLo
	}
	return 0, 0
}

// compactScratch lends slotCompact the copy of the area it reads records
// from, so that a compaction — most growing updates of a well-filled page
// need one — allocates nothing.
var compactScratch = sync.Pool{New: func() any { return new([]byte) }}

// slotCompact rewrites all live records contiguously at the high end of
// the area, in slot order from the top down, leaving slot numbers
// unchanged. Records are read from a borrowed copy of the area: slot
// order is not offset order, so a record's new place may overlap the old
// place of one not yet moved.
func slotCompact(data []byte) {
	sp := compactScratch.Get().(*[]byte)
	old := append((*sp)[:0], data...)
	// Records that already lie one right below the other in slot order —
	// most of them, on a page compacted before — keep lying so: they move
	// as one block, old[from:to] to data[hi:].
	hi, from, to := len(data), 0, 0
	for s, nslots := 0, SlotCount(old); s < nslots; s++ {
		off, l := slotEntry(old, s)
		if off == deadOffset || int(off) < PageHeaderSize || int(off)+int(l) > len(old) {
			continue // SlotRead's checks, on the entry read once
		}
		if int(off)+int(l) != from {
			copy(data[hi:], old[from:to])
			to = int(off) + int(l)
		}
		from = int(off)
		hi -= int(l)
		setSlotEntry(data, s, uint16(hi), l)
	}
	copy(data[hi:], old[from:to])
	put16(data, 4, uint16(hi))
	*sp = old
	compactScratch.Put(sp)
}

// SlotForEach calls fn for every live record in slot order. fn must not
// mutate the area. Iteration stops early if fn returns false.
func SlotForEach(data []byte, fn func(slot int, rec []byte) bool) {
	n := SlotCount(data)
	for s := 0; s < n; s++ {
		if r := SlotRead(data, s); r != nil {
			if !fn(s, r) {
				return
			}
		}
	}
}
