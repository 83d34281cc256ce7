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
//	slot put:    head slot:uvarint rec...
//	slot patch:  head slot:uvarint patch...
//	slot delete: head slot:uvarint
//	batch put:   head n:uvarint plen:uvarint kept:uvarint prefix[:kept]
//	             { delta:uvarint len:uvarint suffix }*n
//	txn commit:  xid:8
//	checkpoint:  nextXid:uvarint n:uvarint { xid:uvarint }*n
//	file create: name
//	commit:      (empty)
//
// A batch put's record i goes to slot s(i) = s(i-1) + 1 + delta, modulo
// 2^16, with s(-1) = 2^16 - 1: a page filled in order spends a byte on
// each slot. Every record of the batch is the plen-byte prefix followed by
// its suffix; the record carries the prefix once, and of it only the
// first kept bytes — the rest are zeros, which the decoder puts back, as
// PostgreSQL's xl_multi_insert_tuple leaves out what the record's xid
// implies: a heap batch's prefix is the header its tuples share, zeros
// past the inserting transaction. A checkpoint carries its
// CheckpointState: the next xid and the n transactions running.
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
	// markerSize is the encoded size of a commit record: its type byte
	// and a zero len.
	markerSize = 2
	// maxBatchRecords bounds the records of one batch put, what a page's
	// uint16 slot numbers can address; a larger count is corruption,
	// refused before anything is allocated for it.
	maxBatchRecords = 1 << 16
	// maxBatchPrefix bounds the prefix a batch put's records share, its
	// implied zeros included: a header, such as the heap's 18-byte tuple
	// header, not a payload. The bound keeps what decoding a batch put
	// allocates within its bytes plus maxBatchPrefix per record, each
	// record taking at least two bytes, so a short record cannot make it
	// allocate a frame's worth of implied zeros.
	maxBatchPrefix = 32
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pageLevel reports whether records of type t open with a relation and
// a page.
func (t RecordType) pageLevel() bool {
	switch t {
	case RecPageImage, RecSlotPut, RecSlotDelete, RecSlotPatch, RecSlotBatchPut:
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

// commitMarker is the encoded commit record: its type byte and a zero
// len.
var commitMarker = []byte{byte(RecCommit), 0}

// appendCheckpoint appends the encoded checkpoint record carrying st.
func appendCheckpoint(dst []byte, st CheckpointState) []byte {
	n := uvarintLen(st.NextXid) + uvarintLen(uint64(len(st.Running)))
	for _, x := range st.Running {
		n += uvarintLen(x)
	}
	dst = append(dst, byte(RecCheckpoint))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, st.NextXid)
	dst = binary.AppendUvarint(dst, uint64(len(st.Running)))
	for _, x := range st.Running {
		dst = binary.AppendUvarint(dst, x)
	}
	return dst
}

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
	case RecCommit:
		return r, exact(r, body, 0)
	case RecCheckpoint:
		return r, decodeCheckpoint(r, body)
	case RecFileCreate:
		r.File = string(body)
		return r, nil
	case RecTxnCommit:
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
	case RecSlotBatchPut:
		return r, decodeBatch(r, body)
	}
	if r.Slot, body, err = parseSlot(body); err != nil {
		return nil, err
	}
	if typ == RecSlotDelete {
		return r, exact(r, body, 0)
	}
	r.Data = append([]byte(nil), body...) // slot put, slot patch
	return r, nil
}

// exact checks that what is left of r's body is n bytes long.
func exact(r *Record, rest []byte, n int) error {
	if len(rest) != n {
		return fmt.Errorf("wal: %v record at LSN %d has %d bytes where %d belong", r.Type, r.LSN, len(rest), n)
	}
	return nil
}

// uvarints parses len(dst) uvarints off the head of b into dst and
// returns what follows them; ok is false when b runs out first.
func uvarints(b []byte, dst ...*uint64) (rest []byte, ok bool) {
	for _, d := range dst {
		x, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, false
		}
		*d, b = x, b[k:]
	}
	return b, true
}

// decodeCheckpoint parses the transaction state of a checkpoint record
// into r. An empty body is an older build's checkpoint, which carried no
// state: it reads as the zero state.
func decodeCheckpoint(r *Record, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	var n uint64
	b, ok := uvarints(b, &r.Checkpoint.NextXid, &n)
	// An xid takes at least a byte.
	if !ok || n > uint64(len(b)) {
		return fmt.Errorf("wal: checkpoint record at LSN %d: truncated transaction state", r.LSN)
	}
	r.Checkpoint.Running = make([]uint64, n)
	for i := range r.Checkpoint.Running {
		if b, ok = uvarints(b, &r.Checkpoint.Running[i]); !ok {
			return fmt.Errorf("wal: checkpoint record at LSN %d: truncated running xid", r.LSN)
		}
	}
	return exact(r, b, 0)
}

// decodeBatch parses the records of a batch put into r, each its shared
// prefix, the implied zeros put back, followed by its suffix. The records
// share one allocation.
func decodeBatch(r *Record, b []byte) error {
	var n, plen, kept uint64
	b, ok := uvarints(b, &n, &plen, &kept)
	if !ok || kept > plen || kept > uint64(len(b)) {
		return fmt.Errorf("wal: truncated batch-put header")
	}
	prefix := b[:kept]
	b = b[kept:]
	// A record takes at least two bytes, its delta and its len.
	if n > maxBatchRecords || n > uint64(len(b)/2) || plen > maxBatchPrefix {
		return fmt.Errorf("wal: batch put of %d records of a %d-byte prefix in %d bytes", n, plen, len(b))
	}
	r.Slots = make([]uint16, 0, n)
	r.Recs = make([][]byte, 0, n)
	recs := make([]byte, 0, len(b)+int(n*plen))
	slot := uint16(math.MaxUint16)
	for i := uint64(0); i < n; i++ {
		var delta, sl uint64
		if b, ok = uvarints(b, &delta, &sl); !ok || delta > math.MaxUint16 || sl > uint64(len(b)) {
			return fmt.Errorf("wal: truncated batch-put record")
		}
		slot += 1 + uint16(delta)
		start := len(recs)
		recs = append(recs, prefix...)
		recs = append(recs, make([]byte, plen-kept)...)
		recs = append(recs, b[:sl]...)
		b = b[sl:]
		r.Slots = append(r.Slots, slot)
		r.Recs = append(r.Recs, recs[start:len(recs):len(recs)])
	}
	return exact(r, b, 0)
}
