package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// On-disk layout, little-endian. The log is a sequence of frames. A frame
// is one atomic append — a statement's record group with its commit
// marker, or one record appended alone — and holds its records back to
// back:
//
//	+---------+---------+------------+----------+----------+- - -
//	| size:4  | crc:4   | firstLSN:8 | record 0 | record 1 | ...
//	+---------+---------+------------+----------+----------+- - -
//
// size counts the bytes after the header; crc is CRC-32C over firstLSN
// and those bytes, so a frame cannot be accepted at the wrong position.
// Record i of a frame has LSN firstLSN+i. A frame whose records, commit
// marker included, reach minDeflatedFrame bytes is stored as one DEFLATE
// stream of them (RFC 1951, Huffman codes alone) when that is smaller;
// bit 31 of size says so, and size counts the stream. No frame reaches
// 2^24 bytes, so a raw frame never sets the bit. A frame is all or
// nothing: a size of zero, a checksum mismatch, a stream that does not
// inflate to at most maxFrameSize bytes ending exactly at the frame's end,
// or records that do not exactly fill the frame mark the torn tail of the
// log (or corruption) and stop replay.
//
// A record is
//
//	type:1 len:uvarint body
//
// where len counts the body. The body of a page-level record opens with
// the relation file and the page it addresses,
//
//	rel:uvarint [name] page:uvarint
//
// rel 0 meaning the file of the frame's previous page-level record, any
// other value the name's length + 1, the name following. So a statement's
// records name each file they touch about once, as PostgreSQL's block
// references leave out a relation that repeats (BKPBLOCK_SAME_REL). The
// bodies, the page-level head written "head":
//
//	page image:  head holeOff:2 holeLen:2 image...
//	             (holeLen's bit 15 set: image is a DEFLATE stream)
//	heap insert, slot put:    head slot:uvarint rec...
//	slot patch:  head slot:uvarint patch...
//	heap delete, slot delete: head slot:uvarint
//	clear xmax, mark aborted: head slot:uvarint
//	set xmax:    head slot:uvarint xid:8
//	batch insert: head n:uvarint xmin:uvarint { delta:uvarint len:uvarint payload }*n
//	txn commit/abort: xid:8
//	file create: name
//	commit, checkpoint: (empty)
//
// A batch insert's tuple i goes to slot s(i) = s(i-1) + 1 + delta, modulo
// 2^16, with s(-1) = 2^16 - 1: a page filled in order spends a byte on
// each slot. Every tuple is a fresh heap version of transaction xmin; the
// record carries its payload alone and the decoder puts back the 18-byte
// header (xmin, xmax 0, no flags), as PostgreSQL's xl_multi_insert_tuple
// leaves out what the record's xid implies.
const (
	frameHeaderSize = 16
	// maxFrameSize bounds the records of one frame, inflated; larger
	// sizes are treated as corruption during replay, and a group past it
	// is split into consecutive frames (Group.cuts).
	maxFrameSize = 1 << 24
	// frameDeflated is the bit of a frame's size word that says the frame
	// holds a DEFLATE stream of its records.
	frameDeflated = 1 << 31
	// minDeflatedFrame is the smallest frame, in record bytes with the
	// commit marker, that is offered to the deflater. The window
	// statements of a read workload stay under it and are never coded.
	minDeflatedFrame = 1 << 10
	// markerSize is the encoded size of a commit or checkpoint record:
	// its type byte and a zero len.
	markerSize = 2
	// tupleHeaderSize is the heap's tuple header (heap.TupleHeaderSize:
	// xmin:8 xmax:8 flags:2), which a batch insert carries as its xmin.
	tupleHeaderSize = 18
	// maxBatchTuples bounds the tuples of one batch insert, what a page's
	// uint16 slot numbers can address; a larger count is corruption,
	// refused before anything is allocated for it.
	maxBatchTuples = 1 << 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pageLevel reports whether records of type t open with a relation and
// a page.
func (t RecordType) pageLevel() bool {
	switch t {
	case RecPageImage, RecHeapInsert, RecHeapDelete, RecHeapBatchInsert,
		RecHeapSetXmax, RecHeapClearXmax, RecHeapMarkAborted,
		RecSlotPut, RecSlotDelete, RecSlotPatch:
		return true
	}
	return false
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendFrame appends to dst a frame whose first record has LSN first:
// z, a DEFLATE stream of recs followed by marker, when z is not nil, and
// recs followed by marker when it is.
func appendFrame(dst []byte, first LSN, recs, marker, z []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // size, crc: closeFrame
	dst = binary.LittleEndian.AppendUint64(dst, uint64(first))
	if z != nil {
		dst = append(dst, z...)
	} else {
		dst = append(append(dst, recs...), marker...)
	}
	closeFrame(dst, start, z != nil)
	return dst
}

// closeFrame fills in the size and checksum of the frame that starts at
// b[start:] and runs to the end of b; deflated says it holds a DEFLATE
// stream.
func closeFrame(b []byte, start int, deflated bool) {
	size := uint32(len(b) - start - frameHeaderSize)
	if deflated {
		size |= frameDeflated
	}
	binary.LittleEndian.PutUint32(b[start:], size)
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(b[start+8:], crcTable))
}

// The encoded commit and checkpoint markers: a record's type byte and a
// zero len.
var (
	commitMarker     = []byte{byte(RecCommit), 0}
	checkpointMarker = []byte{byte(RecCheckpoint), 0}
)

// nextRecord splits the record at the head of recs into its type and
// body; ok is false when recs does not start with a whole record.
func nextRecord(recs []byte) (typ RecordType, body, rest []byte, ok bool) {
	if len(recs) < 2 {
		return 0, nil, nil, false
	}
	n, k := binary.Uvarint(recs[1:])
	if k <= 0 || n > uint64(len(recs)-1-k) {
		return 0, nil, nil, false
	}
	end := 1 + k + int(n)
	return RecordType(recs[0]), recs[1+k : end], recs[end:], true
}

// countRecords returns how many records exactly fill recs; ok is false
// when they do not.
func countRecords(recs []byte) (n int, ok bool) {
	for len(recs) > 0 {
		if _, _, recs, ok = nextRecord(recs); !ok {
			return 0, false
		}
		n++
	}
	return n, true
}

// recordDecoder decodes the records of one frame in order, carrying the
// relation a rel of 0 names. A File string is allocated once per name the
// frame spells out and shared by the records that refer back to it.
type recordDecoder struct {
	rel    string
	hasRel bool
}

// decodeFrame decodes the records of a frame whose first record has LSN
// first, calling fn for each in order. Data slices are copied, so the
// caller may reuse recs.
func decodeFrame(first LSN, recs []byte, fn func(*Record) error) error {
	var d recordDecoder
	for lsn := first; len(recs) > 0; lsn++ {
		typ, body, rest, ok := nextRecord(recs)
		if !ok {
			return fmt.Errorf("wal: truncated record at LSN %d", lsn)
		}
		r, err := d.decode(lsn, typ, body)
		if err != nil {
			return err
		}
		if err := fn(r); err != nil {
			return err
		}
		recs = rest
	}
	return nil
}

// head parses the relation and page a page-level body opens with.
func (d *recordDecoder) head(b []byte) (file string, page uint32, rest []byte, err error) {
	rel, k := binary.Uvarint(b)
	if k <= 0 {
		return "", 0, nil, fmt.Errorf("wal: truncated relation")
	}
	b = b[k:]
	if rel == 0 {
		if !d.hasRel {
			return "", 0, nil, fmt.Errorf("wal: record refers to a previous relation, and the frame has named none")
		}
		file = d.rel
	} else {
		if rel-1 > uint64(len(b)) {
			return "", 0, nil, fmt.Errorf("wal: truncated relation name")
		}
		file, b = string(b[:rel-1]), b[rel-1:]
		d.rel, d.hasRel = file, true
	}
	p, k := binary.Uvarint(b)
	if k <= 0 || p > math.MaxUint32 {
		return "", 0, nil, fmt.Errorf("wal: bad page number")
	}
	return file, uint32(p), b[k:], nil
}

// parseSlot parses the slot a slot-level body carries after its head.
func parseSlot(b []byte) (uint16, []byte, error) {
	s, k := binary.Uvarint(b)
	if k <= 0 || s > math.MaxUint16 {
		return 0, nil, fmt.Errorf("wal: bad slot number")
	}
	return uint16(s), b[k:], nil
}

// decode parses the body of one record of type typ into a Record.
func (d *recordDecoder) decode(lsn LSN, typ RecordType, body []byte) (*Record, error) {
	r := &Record{LSN: lsn, Type: typ}
	var err error
	switch typ {
	case RecCheckpoint, RecCommit:
		return r, exact(r, body, 0)
	case RecFileCreate:
		r.File = string(body)
		return r, nil
	case RecTxnCommit, RecTxnAbort:
		if err := exact(r, body, 8); err != nil {
			return nil, err
		}
		r.Xid = binary.LittleEndian.Uint64(body)
		return r, nil
	}
	if !typ.pageLevel() {
		return nil, fmt.Errorf("wal: unknown record type %d", typ)
	}
	if r.File, r.Page, body, err = d.head(body); err != nil {
		return nil, err
	}
	switch typ {
	case RecPageImage:
		if len(body) < 4 {
			return nil, fmt.Errorf("wal: truncated page-image header")
		}
		hole := binary.LittleEndian.Uint16(body[2:])
		r.HoleOff = int(binary.LittleEndian.Uint16(body))
		r.HoleLen = int(hole &^ imageDeflated)
		r.Deflated = hole&imageDeflated != 0
		r.Data = append([]byte(nil), body[4:]...)
		return r, nil
	case RecHeapBatchInsert:
		return r, decodeBatch(r, body)
	}
	if r.Slot, body, err = parseSlot(body); err != nil {
		return nil, err
	}
	switch typ {
	case RecHeapInsert, RecSlotPut, RecSlotPatch:
		r.Data = append([]byte(nil), body...)
		return r, nil
	case RecHeapSetXmax:
		if err := exact(r, body, 8); err != nil {
			return nil, err
		}
		r.Xid = binary.LittleEndian.Uint64(body)
		return r, nil
	default: // heap delete, slot delete, clear xmax, mark aborted
		return r, exact(r, body, 0)
	}
}

// exact checks that what is left of r's body is n bytes long.
func exact(r *Record, rest []byte, n int) error {
	if len(rest) != n {
		return fmt.Errorf("wal: %v record at LSN %d has %d bytes where %d belong", r.Type, r.LSN, len(rest), n)
	}
	return nil
}

// decodeBatch parses the tuples of a batch insert into r, each tuple's
// header put back in front of its payload. The tuples share one
// allocation.
func decodeBatch(r *Record, b []byte) error {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return fmt.Errorf("wal: truncated heap-batch header")
	}
	b = b[k:]
	xmin, k := binary.Uvarint(b)
	if k <= 0 {
		return fmt.Errorf("wal: truncated heap-batch xmin")
	}
	b = b[k:]
	// A tuple takes at least two bytes, its delta and its len.
	if n > maxBatchTuples || n > uint64(len(b)/2) {
		return fmt.Errorf("wal: heap-batch of %d tuples in %d bytes", n, len(b))
	}
	r.Slots = make([]uint16, 0, n)
	r.Recs = make([][]byte, 0, n)
	tuples := make([]byte, 0, len(b)+tupleHeaderSize*int(n))
	slot := uint16(math.MaxUint16)
	for i := uint64(0); i < n; i++ {
		delta, k := binary.Uvarint(b)
		if k <= 0 || delta > math.MaxUint16 {
			return fmt.Errorf("wal: bad heap-batch slot")
		}
		b = b[k:]
		pl, k := binary.Uvarint(b)
		if k <= 0 || pl > uint64(len(b)-k) {
			return fmt.Errorf("wal: truncated heap-batch tuple")
		}
		b = b[k:]
		slot += 1 + uint16(delta)
		start := len(tuples)
		tuples = binary.LittleEndian.AppendUint64(tuples, xmin)
		tuples = append(tuples, make([]byte, tupleHeaderSize-8)...)
		tuples = append(tuples, b[:pl]...)
		b = b[pl:]
		r.Slots = append(r.Slots, slot)
		r.Recs = append(r.Recs, tuples[start:len(tuples):len(tuples)])
	}
	return exact(r, b, 0)
}
