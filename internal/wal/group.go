package wal

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Group is a set of records one statement appends atomically: no other
// appender's record (in particular no other statement's commit marker)
// can interleave with a group's records in the log. This is what lets
// statements on different tables run and commit concurrently while
// recovery keeps its positional rule — everything before the last
// marker is committed — because a marker can only ever cover whole
// statements. Build the group during or after statement execution, then
// hand it to AppendGroup or AppendGroupCommit.
//
// The records are encoded as a frame holds them (see record.go), end to
// end in one buffer, so that an append copies the buffer behind one frame
// header; Reset keeps the buffer, and a group that is reused from
// statement to statement stages records without allocating. A group
// larger than maxFrameSize goes out as consecutive frames: it is cut
// where a record would carry the frame past the limit, and the record
// after a cut names its relation afresh.
type Group struct {
	types []RecordType
	ends  []int  // ends[i]: where record i ends in buf
	buf   []byte // the records, encoded
	cuts  []int  // the records past the first that open a frame
	span  int    // where the last frame's records begin in buf
	// rel is the file of the last frame's last page-level record, the
	// one a rel of 0 names; hasRel is false until that frame has one.
	rel    string
	hasRel bool
	lsns   []LSN // what the last append assigned
	// saved is how many bytes deflating the group's page images saved:
	// the records' encoded size had they been stored raw, less their size.
	saved int
}

// maxRetainedGroupBytes bounds the record buffer a Reset group keeps, so
// that one bulk statement does not pin its size for good.
const maxRetainedGroupBytes = 1 << 20

// NewGroup returns an empty record group.
func NewGroup() *Group { return &Group{} }

// Reset empties the group for reuse, keeping its buffers. The LSN slice
// the last append returned is invalid from here on.
func (g *Group) Reset() {
	g.types, g.ends, g.cuts, g.lsns = g.types[:0], g.ends[:0], g.cuts[:0], g.lsns[:0]
	if cap(g.buf) > maxRetainedGroupBytes {
		g.buf = nil
	}
	g.buf = g.buf[:0]
	g.span, g.rel, g.hasRel, g.saved = 0, "", false, 0
}

// Len reports the number of records staged in the group.
func (g *Group) Len() int { return len(g.types) }

// start returns where record i begins in buf (len(buf) for i = Len()).
func (g *Group) start(i int) int {
	if i == 0 {
		return 0
	}
	return g.ends[i-1]
}

// recordSize is the encoded size of a record with an n-byte body.
func recordSize(n int) int { return 1 + uvarintLen(uint64(n)) + n }

// cut opens a new frame at the next record when a record of size bytes
// would carry the current one, with room left for a commit marker, past
// maxFrameSize. It reports whether it did.
func (g *Group) cut(size int) bool {
	if len(g.buf) == g.span || len(g.buf)-g.span+size+markerSize <= maxFrameSize {
		return false
	}
	g.cuts = append(g.cuts, len(g.types))
	g.span, g.rel, g.hasRel = len(g.buf), "", false
	return true
}

// open begins a record of type typ with an n-byte body.
func (g *Group) open(typ RecordType, n int) {
	g.buf = append(g.buf, byte(typ))
	g.buf = binary.AppendUvarint(g.buf, uint64(n))
}

// add closes the record the caller has just encoded into g.buf and
// returns its index.
func (g *Group) add(typ RecordType) int {
	g.types = append(g.types, typ)
	g.ends = append(g.ends, len(g.buf))
	return len(g.types) - 1
}

// begin opens a record of type typ with an n-byte body that names no
// relation.
func (g *Group) begin(typ RecordType, n int) {
	g.cut(recordSize(n))
	g.open(typ, n)
}

// addRecord stages a record whose body is body.
func (g *Group) addRecord(typ RecordType, body string) int {
	g.begin(typ, len(body))
	g.buf = append(g.buf, body...)
	return g.add(typ)
}

// head opens a page-level record of type typ addressing page of file,
// whose body goes on for rest bytes past its head, and returns the body's
// length. The relation is 0 when the frame's previous page-level record
// named file, and the name otherwise — after a cut too, the new frame
// having named nothing yet.
func (g *Group) head(typ RecordType, file string, page uint32, rest int) int {
	same := g.hasRel && file == g.rel
	n := uvarintLen(uint64(page)) + rest
	name := uvarintLen(uint64(len(file))+1) + len(file)
	if same && !g.cut(recordSize(n+1)) {
		n++
		g.open(typ, n)
		g.buf = append(g.buf, 0)
	} else {
		if !same {
			g.cut(recordSize(n + name))
		}
		n += name
		g.open(typ, n)
		g.buf = binary.AppendUvarint(g.buf, uint64(len(file))+1)
		g.buf = append(g.buf, file...)
		g.rel, g.hasRel = file, true
	}
	g.buf = binary.AppendUvarint(g.buf, uint64(page))
	return n
}

// checkFrames reports a record too large for a frame of its own — the
// one size a cut cannot help — before anything of g is appended.
func (g *Group) checkFrames() error {
	for f, i := 0, 0; i < len(g.types); f++ {
		j := len(g.types)
		if f < len(g.cuts) {
			j = g.cuts[f]
		}
		if size := g.start(j) - g.start(i) + markerSize; size > maxFrameSize {
			return fmt.Errorf("wal: a %v record of %d bytes does not fit a frame", g.types[i], size-markerSize)
		}
		i = j
	}
	return nil
}

// Extend appends every record of o to g in order, returning the index
// o's first record now has in g (record i of o becomes base+i). The
// buffer pool uses it to move the logical records access methods staged
// during a statement into the committer's group. o's first page-level
// record names its relation, so o's records read the same behind g's.
func (g *Group) Extend(o *Group) (base int) {
	base, shift := len(g.types), len(g.buf)
	if len(o.types) == 0 {
		return base
	}
	head := len(o.buf) // the bytes of o's first frame
	if len(o.cuts) > 0 {
		head = o.start(o.cuts[0])
	}
	if shift > g.span && shift-g.span+head+markerSize > maxFrameSize {
		g.cuts = append(g.cuts, base)
		g.span, g.hasRel = shift, false
	}
	g.types = append(g.types, o.types...)
	for _, end := range o.ends {
		g.ends = append(g.ends, shift+end)
	}
	for _, c := range o.cuts {
		g.cuts = append(g.cuts, base+c)
	}
	g.buf = append(g.buf, o.buf...)
	g.saved += o.saved
	if len(o.cuts) > 0 {
		g.span, g.rel, g.hasRel = shift+o.span, o.rel, o.hasRel
	} else if o.hasRel {
		g.rel, g.hasRel = o.rel, true
	}
	return base
}

// AddPageImage stages the after-image of one page, less the holeLen bytes
// at holeOff, returning its index into the LSN slice AppendGroup returns.
// The page's size is the image's length plus the hole's. An image of at
// least minDeflatedImage bytes is stored DEFLATE-compressed when that
// makes it smaller, which the high bit of its holeLen field says; every
// other image is stored as it is. A hole the fields cannot describe — from
// 32 KB long, or past 64 KB into the page — is not left out.
func (g *Group) AddPageImage(file string, page uint32, pageData []byte, holeOff, holeLen int) int {
	if holeOff > math.MaxUint16 || holeLen >= imageDeflated {
		holeOff, holeLen = 0, 0
	}
	head, tail := pageData[:holeOff], pageData[holeOff+holeLen:]
	raw := len(head) + len(tail)
	if raw >= minDeflatedImage {
		imageDeflater.Lock()
		defer imageDeflater.Unlock()
		if z := imageDeflater.deflate(head, tail); len(z) < raw {
			n := g.imageHead(file, page, holeOff, holeLen|imageDeflated, len(z))
			g.buf = append(g.buf, z...)
			g.saved += recordSize(n-len(z)+raw) - recordSize(n)
			return g.add(RecPageImage)
		}
	}
	g.imageHead(file, page, holeOff, holeLen, raw)
	g.buf = append(g.buf, head...)
	g.buf = append(g.buf, tail...)
	return g.add(RecPageImage)
}

// imageHead opens a page-image record whose image is n bytes long and
// returns the record body's length.
func (g *Group) imageHead(file string, page uint32, holeOff, holeLen, n int) int {
	body := g.head(RecPageImage, file, page, 4+n)
	g.buf = binary.LittleEndian.AppendUint16(g.buf, uint16(holeOff))
	g.buf = binary.LittleEndian.AppendUint16(g.buf, uint16(holeLen))
	return body
}

const (
	// imageDeflated is the bit of a page image's holeLen field that says
	// the image is stored deflated. No hole of a page of less than 32 KB
	// sets it.
	imageDeflated = 1 << 15
	// minDeflatedImage is the smallest image AddPageImage tries to
	// deflate. Smaller ones are the meta pages' few dozen bytes, which do
	// not shrink, and trying would cost a few µs on every commit.
	minDeflatedImage = 1 << 10
)

// imageDeflater is the one compressor every page image goes through,
// process-wide: flate.NewWriter allocates 1.2 MB and takes about as long
// as deflating a page, so the writer is made once and reset for each
// image. A sync.Pool would drop it at every garbage collection. Images are
// coded with LZ77 matches (BestSpeed); frames, by each log Writer's own
// deflater, with Huffman codes alone.
var imageDeflater = struct {
	sync.Mutex
	deflater
}{deflater: deflater{level: flate.BestSpeed}}

// deflater is a DEFLATE compressor of one level, made on first use and
// reset for each stream.
type deflater struct {
	level int
	zw    *flate.Writer
	out   bytes.Buffer
}

// deflate returns the DEFLATE stream of head followed by tail. The slice
// is d's own, valid until d's next use.
func (d *deflater) deflate(head, tail []byte) []byte {
	d.out.Reset()
	if d.zw == nil {
		// The error is for a bad level alone.
		d.zw, _ = flate.NewWriter(&d.out, d.level)
	} else {
		d.zw.Reset(&d.out)
	}
	// A flate.Writer fails only when what it writes to does, and a
	// bytes.Buffer does not.
	_, _ = d.zw.Write(head)
	_, _ = d.zw.Write(tail)
	_ = d.zw.Close()
	return d.out.Bytes()
}

// slotOp stages a record addressing (page, slot) whose body ends in rec.
func (g *Group) slotOp(typ RecordType, file string, page uint32, slot uint16, rec []byte) int {
	g.head(typ, file, page, uvarintLen(uint64(slot))+len(rec))
	g.buf = binary.AppendUvarint(g.buf, uint64(slot))
	g.buf = append(g.buf, rec...)
	return g.add(typ)
}

// AddHeapInsert is AddSlotPut, kept under its older name for callers
// outside this module.
func (g *Group) AddHeapInsert(file string, page uint32, slot uint16, rec []byte) int {
	return g.AddSlotPut(file, page, slot, rec)
}

// AddSlotPut stages storing rec — a heap tuple, an index node — at
// (page, slot).
func (g *Group) AddSlotPut(file string, page uint32, slot uint16, rec []byte) int {
	return g.slotOp(RecSlotPut, file, page, slot, rec)
}

// AddSlotDelete stages freeing the slot at (page, slot).
func (g *Group) AddSlotDelete(file string, page uint32, slot uint16) int {
	return g.slotOp(RecSlotDelete, file, page, slot, nil)
}

// AddSlotPatch stages rewriting the record at (page, slot) by patch, the
// encoding storage.AppendSlotPatch gives of what changed in it.
func (g *Group) AddSlotPatch(file string, page uint32, slot uint16, patch []byte) int {
	return g.slotOp(RecSlotPatch, file, page, slot, patch)
}

// AddSlotBatchPut stages storing records at slots of page in one record:
// record i is prefix followed by suffixes[i], going to slots[i]. The
// record carries prefix once, less its trailing zeros, which redo puts
// back. The prefix is a header of at most 32 bytes (maxBatchPrefix); a
// longer one is a caller's bug and panics, as the log could not read it.
func (g *Group) AddSlotBatchPut(file string, page uint32, slots []uint16, prefix []byte, suffixes [][]byte) int {
	if len(prefix) > maxBatchPrefix {
		panic(fmt.Sprintf("wal: batch put prefix of %d bytes, past %d", len(prefix), maxBatchPrefix))
	}
	kept := len(prefix)
	for kept > 0 && prefix[kept-1] == 0 {
		kept--
	}
	n := uvarintLen(uint64(len(slots))) + uvarintLen(uint64(len(prefix))) + uvarintLen(uint64(kept)) + kept
	prev := uint16(math.MaxUint16)
	for i, p := range suffixes {
		n += uvarintLen(uint64(slots[i]-prev-1)) + uvarintLen(uint64(len(p))) + len(p)
		prev = slots[i]
	}
	g.head(RecSlotBatchPut, file, page, n)
	g.buf = binary.AppendUvarint(g.buf, uint64(len(slots)))
	g.buf = binary.AppendUvarint(g.buf, uint64(len(prefix)))
	g.buf = binary.AppendUvarint(g.buf, uint64(kept))
	g.buf = append(g.buf, prefix[:kept]...)
	prev = math.MaxUint16
	for i, p := range suffixes {
		g.buf = binary.AppendUvarint(g.buf, uint64(slots[i]-prev-1))
		g.buf = binary.AppendUvarint(g.buf, uint64(len(p)))
		g.buf = append(g.buf, p...)
		prev = slots[i]
	}
	return g.add(RecSlotBatchPut)
}

// AddTxnCommit stages a transaction-commit record for xid.
func (g *Group) AddTxnCommit(xid uint64) int {
	g.begin(RecTxnCommit, 8)
	g.buf = binary.LittleEndian.AppendUint64(g.buf, xid)
	return g.add(RecTxnCommit)
}
