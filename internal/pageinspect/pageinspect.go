// Package pageinspect decodes raw pages of this repository's on-disk
// structures straight from the file — no executor, no buffer pool, no
// recovery — the way PostgreSQL's pageinspect extension (and tools like
// pg_filedump) read relation files. Every page of every file is a slotted
// page: the same header (storage.PageHeaderSize bytes: pageLSN and a
// checksum that is verified against a recomputation, mismatches flagged)
// and line pointers, printed the same way for all of them, and records
// that only a formatter of the file kind decodes. Page 0 holds one record,
// storage's meta framing (magic, format version, the access method's
// body); the data pages hold
//
//	heap files    (rel<oid>.tbl, magic "HEAP"): tuples; each opens with
//	              the 18-byte MVCC header [xmin:8][xmax:8][infomask:2].
//	              Records shorter than the header decode as frozen tuples
//	B+-tree files (rel<oid>.idx, magic "BTRE"): one node record per page
//	SP-GiST files (rel<oid>.idx, magic "SPGS"): node records
//	R-tree files  (rel<oid>.idx, magic "RTRE"): one node record per page
//
// The file kind is detected from the page-0 magic, so callers only name
// a file, a page number, and a page size. Because pages are read from
// disk, the dump reflects the last flushed state: pages still dirty in a
// live engine's buffer pool, or WAL records not yet replayed into the
// file, are not visible.
package pageinspect

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// FileKind identifies which structure owns a page file.
type FileKind int

// File kinds, detected from the page-0 magic.
const (
	KindUnknown FileKind = iota
	KindHeap
	KindBTree
	KindSPGiST
	KindRTree
)

func (k FileKind) String() string {
	switch k {
	case KindHeap:
		return "heap"
	case KindBTree:
		return "btree"
	case KindSPGiST:
		return "spgist"
	case KindRTree:
		return "rtree"
	default:
		return "unknown"
	}
}

// The page-0 magics of every structure, mirrored from their packages
// (heap, btree, core, rtree). All are big-endian ASCII read as a
// little-endian uint32.
const (
	magicHeap   = 0x48454150 // "HEAP"
	magicBTree  = 0x42545245 // "BTRE"
	magicSPGiST = 0x53504753 // "SPGS"
	magicRTree  = 0x52545245 // "RTRE"
)

// DetectKind classifies a page file from its metadata page (page 0).
func DetectKind(page0 []byte) FileKind {
	switch magic, _, _ := storage.ParseMeta(page0); magic {
	case magicHeap:
		return KindHeap
	case magicBTree:
		return KindBTree
	case magicSPGiST:
		return KindSPGiST
	case magicRTree:
		return KindRTree
	default:
		return KindUnknown
	}
}

// Describe opens the page file at path directly from disk and writes a
// decoded dump of page pageNo to w: file kind, page header, line
// pointers, and per-record contents. pageSize <= 0 means the engine's
// default. The file must already exist — a closed database directory
// qualifies; a live one too, up to buffer-pool staleness.
func Describe(w io.Writer, path string, pageNo uint32, pageSize int) error {
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("pageinspect: %w", err)
	}
	dm, err := storage.OpenFile(path, pageSize)
	if err != nil {
		return err
	}
	defer dm.Close()
	if n := dm.NumPages(); pageNo >= n {
		return fmt.Errorf("pageinspect: page %d out of range (%s has %d pages)", pageNo, path, n)
	}
	page0 := make([]byte, pageSize)
	if err := dm.ReadPage(0, page0); err != nil {
		return err
	}
	kind := DetectKind(page0)
	page := page0
	if pageNo != 0 {
		page = make([]byte, pageSize)
		if err := dm.ReadPage(storage.PageID(pageNo), page); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%s: %s file, %d pages of %d bytes\n", path, kind, dm.NumPages(), pageSize)
	describePage(w, kind, pageNo, page)
	return nil
}

// describePage dumps one page of a file of the given kind: the header and
// line pointers every page has, then each live record through the kind's
// formatter — page 0's meta record, or the kind's data records.
func describePage(w io.Writer, kind FileKind, pageNo uint32, page []byte) {
	fmt.Fprintf(w, "page %d:\n", pageNo)
	if len(page) < storage.PageHeaderSize {
		fmt.Fprintf(w, "  page of %d bytes is smaller than the page header\n", len(page))
		return
	}
	fmt.Fprintf(w, "  page header: lsn=%d cksum=%s\n", storage.PageLSN(page), describeChecksum(page))
	describeSlotted(w, page, recordFormatter(kind, pageNo))
}

// recordFormatter returns the decoder of the records of page pageNo of a
// file of the given kind.
func recordFormatter(kind FileKind, pageNo uint32) func(w io.Writer, rec []byte) {
	if pageNo == 0 {
		return func(w io.Writer, rec []byte) { describeMeta(w, kind, rec) }
	}
	switch kind {
	case KindHeap:
		return describeHeapTuple
	case KindSPGiST:
		return describeSPGiSTNode
	case KindBTree:
		return describeBTreeNode
	case KindRTree:
		return describeRTreeNode
	}
	return func(w io.Writer, rec []byte) {
		fmt.Fprintf(w, "    unknown file kind; raw bytes:\n")
		hexdump(w, "    ", rec)
	}
}

// metaBodySize is the meta body of each file kind, mirrored from its
// package: the bytes describeMeta reads.
var metaBodySize = map[FileKind]int{KindHeap: 12, KindBTree: 8, KindSPGiST: 6, KindRTree: 8}

// describeMeta renders page 0's meta record: storage's framing
// [magic u32][format u32], then the body, whose field offsets mirror each
// structure's documented layout.
func describeMeta(w io.Writer, kind FileKind, rec []byte) {
	if kind == KindUnknown || len(rec) < 8+metaBodySize[kind] {
		fmt.Fprintf(w, "    meta: unrecognized record; raw bytes:\n")
		hexdump(w, "    ", rec)
		return
	}
	format, body := binary.LittleEndian.Uint32(rec[4:]), rec[8:]
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(body[off:]) }
	switch kind {
	case KindHeap:
		fmt.Fprintf(w, "    meta: magic=\"HEAP\" format=%d target=%s count=%d\n",
			format, pageIDString(u32(0)), binary.LittleEndian.Uint64(body[4:]))
	case KindBTree:
		fmt.Fprintf(w, "    meta: magic=\"BTRE\" format=%d root=%s height=%d\n",
			format, pageIDString(u32(0)), u32(4))
	case KindSPGiST:
		fmt.Fprintf(w, "    meta: magic=\"SPGS\" format=%d root=(%s,%d)\n",
			format, pageIDString(u32(0)), binary.LittleEndian.Uint16(body[4:]))
	case KindRTree:
		fmt.Fprintf(w, "    meta: magic=\"RTRE\" format=%d root=%s height=%d\n",
			format, pageIDString(u32(0)), u32(4))
	}
}

// pageIDString renders a page number, showing the InvalidPageID
// sentinel by name.
func pageIDString(id uint32) string {
	if storage.PageID(id) == storage.InvalidPageID {
		return "invalid"
	}
	return fmt.Sprintf("%d", id)
}

// describeSlotted dumps the rest of a page — the slotted fields of the
// header, the line pointer directory, and each live record through the
// per-kind decoder.
func describeSlotted(w io.Writer, p []byte, rec func(w io.Writer, rec []byte)) {
	nslots := storage.SlotCount(p)
	fmt.Fprintf(w, "  slotted header: nslots=%d nlive=%d free=[%d,%d)\n",
		nslots, storage.SlotLive(p),
		binary.LittleEndian.Uint16(p[2:]), binary.LittleEndian.Uint16(p[4:]))
	for s := 0; s < nslots; s++ {
		off, length, dead := storage.SlotEntry(p, s)
		if dead {
			fmt.Fprintf(w, "  slot %d: dead\n", s)
			continue
		}
		r := storage.SlotRead(p, s)
		if r == nil {
			fmt.Fprintf(w, "  slot %d: off=%d len=%d CORRUPT (line pointer leaves the page)\n", s, off, length)
			continue
		}
		fmt.Fprintf(w, "  slot %d: off=%d len=%d\n", s, off, length)
		rec(w, r)
	}
}

// describeChecksum renders the header's checksum field, verified against
// a recomputation over the page: a match prints "ok", a mismatch is
// flagged loudly with both values — the same condition SCRUB reports.
// Only a page that was allocated and never written holds 0.
func describeChecksum(p []byte) string {
	stored, computed, ok := storage.VerifyPageChecksum(p)
	switch {
	case ok && stored == 0:
		return "0 (page never written)"
	case ok:
		return fmt.Sprintf("%#08x (ok)", stored)
	default:
		return fmt.Sprintf("%#08x (MISMATCH: computed %#08x)", stored, computed)
	}
}

// describeHeapTuple renders one heap record: the MVCC version header
// ([xmin u64][xmax u64][flags u16] since the tuple-versioning change),
// the raw bytes, and — since tuple payloads are self-describing — the
// decoded datums. Versions no snapshot can ever see again are flagged
// DEAD the way they would be to VACUUM.
func describeHeapTuple(w io.Writer, rec []byte) {
	h, payload := heap.ParseTuple(rec)
	xmin := "frozen"
	if h.Xmin != 0 {
		xmin = fmt.Sprintf("%d", h.Xmin)
	}
	dead := ""
	if h.Flags&heap.FlagXminAborted != 0 {
		dead = " DEAD (insert aborted)"
	} else if h.Xmax != 0 {
		dead = " DEAD (deleted)"
	}
	fmt.Fprintf(w, "    header: xmin=%s xmax=%d infomask=%#04x%s\n", xmin, h.Xmax, h.Flags, dead)
	hexdump(w, "    ", rec)
	if tup, err := catalog.DecodeTuple(payload); err == nil {
		vals := make([]string, len(tup))
		for i, d := range tup {
			vals[i] = d.String()
		}
		fmt.Fprintf(w, "    tuple: (%s)\n", strings.Join(vals, ", "))
	} else {
		fmt.Fprintf(w, "    tuple: undecodable: %v\n", err)
	}
}

// describeSPGiSTNode renders an SP-GiST node record as core's view reads
// it: an inner node's predicate, then every partition's label and child;
// a data (leaf) node's overflow link, then every item's key and RID.
func describeSPGiSTNode(w io.Writer, rec []byte) {
	v, err := core.NewView(rec)
	if err != nil {
		describeMalformed(w, err, rec)
		return
	}
	ref := func(r core.NodeRef) string {
		if r.Page == storage.InvalidPageID {
			return "invalid"
		}
		return fmt.Sprintf("(%d,%d)", r.Page, r.Slot)
	}
	if v.Leaf() {
		fmt.Fprintf(w, "    leaf node: items=%d next=%s\n", v.Len(), ref(v.Next()))
		for i := 0; i < v.Len(); i++ {
			fmt.Fprintf(w, "      key=%q rid=%s\n", v.Key(i), v.RID(i))
		}
		return
	}
	fmt.Fprintf(w, "    inner node: pred=%q partitions=%d\n", v.Pred(), v.Len())
	for i := 0; i < v.Len(); i++ {
		fmt.Fprintf(w, "      label=%q child=%s\n", v.Label(i), ref(v.Child(i)))
	}
}

// describeBTreeNode renders a B+-tree node record as btree's view reads
// it: kind, key count and right sibling (leaf) or leftmost child (inner),
// then every key with its RID or child page.
func describeBTreeNode(w io.Writer, rec []byte) {
	v, err := btree.NewView(rec, nil)
	if err != nil {
		describeMalformed(w, err, rec)
		return
	}
	if v.Leaf() {
		fmt.Fprintf(w, "    btree leaf: nkeys=%d next=%s\n", v.Len(), pageIDString(uint32(v.Link())))
		for i := 0; i < v.Len(); i++ {
			fmt.Fprintf(w, "      key=%q rid=%s\n", v.Key(i), v.RID(i))
		}
		return
	}
	fmt.Fprintf(w, "    btree inner: nkeys=%d child0=%s\n", v.Len(), pageIDString(uint32(v.Link())))
	for i := 0; i < v.Len(); i++ {
		fmt.Fprintf(w, "      key=%q child=%s\n", v.Key(i), pageIDString(uint32(v.Child(i))))
	}
}

// describeRTreeNode renders an R-tree node record as rtree's view reads
// it: kind and entry count, then every entry's rectangle with its RID
// (leaf) or child page (inner).
func describeRTreeNode(w io.Writer, rec []byte) {
	v, err := rtree.NewView(rec)
	if err != nil {
		describeMalformed(w, err, rec)
		return
	}
	kind := "inner"
	if v.Leaf() {
		kind = "leaf"
	}
	fmt.Fprintf(w, "    rtree %s: entries=%d\n", kind, v.Len())
	for i := 0; i < v.Len(); i++ {
		r := v.Rect(i)
		rect := fmt.Sprintf("[%g,%g]x[%g,%g]", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
		if v.Leaf() {
			fmt.Fprintf(w, "      rect=%s rid=%s\n", rect, v.RID(i))
		} else {
			fmt.Fprintf(w, "      rect=%s child=%s\n", rect, pageIDString(uint32(v.Child(i))))
		}
	}
}

// describeMalformed prints why a node record failed its view, then its
// first bytes.
func describeMalformed(w io.Writer, err error, rec []byte) {
	fmt.Fprintf(w, "    %v; raw bytes:\n", err)
	hexdump(w, "    ", rec[:min(len(rec), 64)])
}

// hexdump writes b in canonical 16-bytes-per-line hex with an ASCII
// gutter, capped at 256 bytes (a full record fits; a page-sized raw
// dump would drown the rest of the output).
func hexdump(w io.Writer, indent string, b []byte) {
	const maxBytes = 256
	truncated := false
	if len(b) > maxBytes {
		b, truncated = b[:maxBytes], true
	}
	for off := 0; off < len(b); off += 16 {
		end := min(off+16, len(b))
		var hexCol, ascCol strings.Builder
		for i := off; i < end; i++ {
			fmt.Fprintf(&hexCol, "%02x ", b[i])
			if b[i] >= 0x20 && b[i] < 0x7f {
				ascCol.WriteByte(b[i])
			} else {
				ascCol.WriteByte('.')
			}
		}
		fmt.Fprintf(w, "%s%04x  %-48s %s\n", indent, off, hexCol.String(), ascCol.String())
	}
	if truncated {
		fmt.Fprintf(w, "%s... (%d more bytes)\n", indent, maxBytes)
	}
}
