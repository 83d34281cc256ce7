package wal

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// everyType stages one record of every type the log can hold, each by
// one function. Staged in order into one group, the page-level records of
// a file follow one another, so most refer back to the relation the
// record before them named.
var everyType = []func(g *Group){
	func(g *Group) {
		page := append([]byte("page image"), make([]byte, 54)...)
		copy(page[60:], "tail")
		g.AddPageImage("rel1.tbl", 3, page, 10, 50)
	},
	func(g *Group) { // an image of 1 KB or more, stored deflated
		page := bytes.Repeat([]byte("a page image that deflates "), 160)
		g.AddPageImage("rel1.tbl", 4, page, 100, 300)
	},
	func(g *Group) { g.AddSlotPut("rel1.tbl", 1, 7, tuple(42, "a heap tuple")) },
	func(g *Group) { g.AddSlotDelete("rel1.tbl", 1, 7) },
	func(g *Group) { g.addRecord(RecFileCreate, "rel2.idx") },
	func(g *Group) { // the transaction state of a checkpoint
		_, body, _, _ := nextRecord(appendCheckpoint(nil, CheckpointState{NextXid: 4097, Running: []uint64{300, 4096}}))
		g.addRecord(RecCheckpoint, string(body))
	},
	func(g *Group) { g.addRecord(RecCommit, "") },
	func(g *Group) { // a heap batch: the tuples' header the shared prefix
		g.AddSlotBatchPut("rel1.tbl", 3, []uint16{4, 2, 3}, tuple(77, ""), [][]byte{[]byte("four"), {}, []byte("three")})
	},
	func(g *Group) { g.AddSlotPatch("rel1.tbl", 1, 7, []byte{30, 0, 8, 0, 1, 0, 42}) }, // an xmax stamped
	func(g *Group) { g.AddTxnCommit(42) },
	func(g *Group) { g.AddSlotPut("rel2.idx", 400, 9, []byte("an index node")) },
	func(g *Group) { g.AddSlotDelete("rel2.idx", 400, 9) },
	func(g *Group) { g.AddSlotPatch("rel2.idx", 400, 300, []byte{15, 0, 3, 0, 2, 0, 'n', 'o'}) },
}

// retiredTypes are the record types older builds wrote and this one
// refuses: 2 and 3 the heap's insert and delete, 7 and 16 its batch
// inserts, 8, 9 and 10 its set-xmax, clear-xmax and mark-aborted, 12 the
// transaction abort.
var retiredTypes = []RecordType{2, 3, 7, 8, 9, 10, 12, 16}

// retiredFrame is a raw frame holding one record of type typ, its body
// shaped as an older build's: a tuple put (2), a slot (3, 9, 10), a slot
// and an xid (8), an xid (12) or a batch of one tuple (7, 16).
func retiredFrame(typ RecordType) []byte {
	var body []byte
	switch typ {
	case 12:
		body = binary.LittleEndian.AppendUint64(nil, 43)
	default:
		body = append(body, byte(len("rel1.tbl")+1))
		body = append(body, "rel1.tbl"...)
		body = append(body, 1) // page
		switch typ {
		case 2:
			body = append(append(body, 7), tuple(42, "a heap tuple")...)
		case 3, 9, 10:
			body = append(body, 7)
		case 8:
			body = binary.LittleEndian.AppendUint64(append(body, 7), 42)
		case 7:
			body = binary.LittleEndian.AppendUint16(body, 1)
			body = binary.LittleEndian.AppendUint16(body, 0)
			body = binary.LittleEndian.AppendUint32(body, uint32(len(tuple(5, "one"))))
			body = append(body, tuple(5, "one")...)
		case 16:
			body = append(body, 1, 5, 0, 3)
			body = append(body, "one"...)
		}
	}
	rec := append([]byte{byte(typ)}, binary.AppendUvarint(nil, uint64(len(body)))...)
	return appendFrame(nil, 100, append(rec, body...), commitMarker, nil)
}

// retiredBatchFrame is a frame an older build wrote: a batch insert of
// record type 7, since retired, each tuple carried whole
// (n:2 {slot:2 len:4 tuple}*n), then a transaction's commit record and a
// commit marker.
const retiredBatchFrame = "6c000000fb005f5d0300000000000000075e0972656c312e74626c0103000000170000" +
	"00050000000000000000000000000000000000616c70686101001200000005000000000000000000000000" +
	"000000000002001700000005000000000000000000000000000000000067616d6d610b0805000000000000" +
	"000600"

// tuple returns what the heap stores for a fresh version of transaction
// xmin: an 18-byte header (xmin, xmax 0, no flags), then payload.
func tuple(xmin uint64, payload string) []byte {
	t := binary.LittleEndian.AppendUint64(nil, xmin)
	return append(append(t, make([]byte, 10)...), payload...)
}

// frameOf encodes records [i, j) of g as a raw frame whose first LSN is
// first.
func frameOf(g *Group, i, j int, first LSN) []byte {
	return appendFrame(nil, first, g.buf[g.start(i):g.start(j)], nil, nil)
}

// deflatedFrameOf encodes the records of g and a commit marker as the
// writer does, as one frame whose first LSN is first, and fails t unless
// the frame is stored deflated.
func deflatedFrameOf(t testing.TB, g *Group, first LSN) []byte {
	t.Helper()
	d := deflater{level: flate.HuffmanOnly}
	z := d.deflate(g.buf, commitMarker)
	if len(g.buf)+markerSize < minDeflatedFrame || len(z) >= len(g.buf)+markerSize || len(g.cuts) > 0 {
		t.Fatalf("a frame of %d record bytes is not deflated", len(g.buf))
	}
	return appendFrame(nil, first, g.buf, commitMarker, z)
}

// deflateBytes returns the DEFLATE stream of b.
func deflateBytes(b []byte) []byte {
	var out bytes.Buffer
	zw, _ := flate.NewWriter(&out, flate.BestSpeed)
	zw.Write(b)
	zw.Close()
	return out.Bytes()
}

// reseal returns a copy of frame f whose size and checksum match its
// bytes, its size word saying what f's says of deflation.
func reseal(f []byte) []byte {
	sealed := append([]byte(nil), f...)
	closeFrame(sealed, 0, binary.LittleEndian.Uint32(f)&frameDeflated != 0)
	return sealed
}

// varintOffsets returns where the len varint of every record of the frame
// f lies, and the rel and page varints of every page-level one.
func varintOffsets(f []byte) []int {
	var offs []int
	recs := f[frameHeaderSize:]
	for off := frameHeaderSize; len(recs) > 0; {
		typ, body, rest, _ := nextRecord(recs)
		bodyOff := off + len(recs) - len(rest) - len(body)
		for o := off + 1; o < bodyOff; o++ {
			offs = append(offs, o)
		}
		if typ.pageLevel() {
			rel, k := binary.Uvarint(body)
			for o := 0; o < k; o++ {
				offs = append(offs, bodyOff+o)
			}
			pageOff := k
			if rel > 0 {
				pageOff += int(rel - 1)
			}
			_, pk := binary.Uvarint(body[pageOff:])
			for o := 0; o < pk; o++ {
				offs = append(offs, bodyOff+pageOff+o)
			}
		}
		off += len(recs) - len(rest)
		recs = rest
	}
	return offs
}

// FuzzDecodeRecord: whatever bytes the log hands back — a torn tail, a
// flipped bit, a hostile file — the frame parser and the record decoder
// return records or an error; they never panic, a deflated frame never
// inflates into more than maxFrameSize bytes, and the records decoded
// from a frame hold no more bytes than the frame's records, inflated,
// save the shared prefix, of at most maxBatchPrefix bytes, a batch put
// carries once for all its records (the decoder copies payloads, so a
// length field must not be able to size an allocation past that, and a
// name referred back to is shared, not copied). The seed corpus is a
// one-record frame of every record type — page images raw and deflated,
// a heap batch, a checkpoint's transaction state, a tuple's xmax stamped
// by a slot patch — and every truncation of it, a frame holding one
// record of every type and every truncation of that, that frame with
// each bit of its len, rel and page varints flipped under a checksum made
// to match, and a deflated frame of the same records with more index
// nodes, its truncations, each bit of its stream flipped under a matching
// checksum, the stream with a byte past its end, a stream that inflates
// past maxFrameSize, and a frame of every record type retired, which the
// decoder refuses, with its truncations and each bit of its records
// flipped under a matching checksum — the batch frame an older build
// wrote among them. `go test` runs the corpus, `go test -fuzz` explores.
func FuzzDecodeRecord(f *testing.F) {
	g := NewGroup()
	seen := map[RecordType]bool{}
	for _, add := range everyType {
		add(g)
		one := NewGroup()
		add(one)
		typ := one.types[0]
		seen[typ] = true
		frame := frameOf(one, 0, 1, 100)
		checkSeed(f, frame, one.types)
		for cut := 0; cut <= len(frame); cut++ {
			f.Add(frame[:cut])
		}
	}
	for typ := RecordType(1); typ < NumRecordTypes; typ++ {
		if !seen[typ] && typ.String() != "unknown" { // a retired type
			f.Fatalf("no seed record of type %v: a new type must join everyType", typ)
		}
	}
	all := frameOf(g, 0, g.Len(), 100)
	checkSeed(f, all, g.types)
	deflated := 0
	if err := decodeFrame(100, all[frameHeaderSize:], func(r *Record) error {
		if r.Deflated {
			deflated++
		}
		return nil
	}); err != nil || deflated != 1 {
		f.Fatalf("the seed frame holds %d deflated images (%v), want 1", deflated, err)
	}
	for cut := 0; cut <= len(all); cut++ {
		f.Add(all[:cut])
	}
	for _, off := range varintOffsets(all) {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), all...)
			flipped[off] ^= 1 << bit
			f.Add(reseal(flipped))
		}
	}
	for i := 0; i < 40; i++ {
		g.AddSlotPut("rel2.idx", 401, uint16(i), []byte(fmt.Sprintf("an index node, number %d of a page", i)))
	}
	packed := deflatedFrameOf(f, g, 100)
	checkSeed(f, packed, append(g.types, RecCommit))
	for cut := 0; cut <= len(packed); cut++ {
		f.Add(packed[:cut])
	}
	for off := frameHeaderSize; off < len(packed); off++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), packed...)
			flipped[off] ^= 1 << bit
			f.Add(reseal(flipped))
		}
	}
	// Streams whose checksum matches but which are no frame: one with a
	// byte past its end, one that inflates past maxFrameSize.
	for _, bad := range [][]byte{
		reseal(append(packed, 0)),
		appendFrame(nil, 100, nil, nil, deflateBytes(make([]byte, maxFrameSize+1))),
	} {
		var fr frameReader
		if _, _, _, _, ok := fr.parseFrame(bad); ok || cap(fr.buf) > maxFrameSize {
			f.Fatalf("a corrupt deflated frame of %d bytes parses (buffer %d)", len(bad), cap(fr.buf))
		}
		f.Add(bad)
	}
	older, err := hex.DecodeString(retiredBatchFrame)
	if err != nil {
		f.Fatal(err)
	}
	frames := [][]byte{older}
	for _, typ := range retiredTypes {
		frames = append(frames, retiredFrame(typ))
	}
	for _, retired := range frames {
		var fr frameReader
		first, _, recs, _, ok := fr.parseFrame(retired)
		if !ok {
			f.Fatal("a frame of a retired record type does not parse")
		}
		if err := decodeFrame(first, recs, func(*Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "unknown record type") {
			f.Fatalf("a frame of retired record type %d decodes to %v, want the unknown-record-type error", recs[0], err)
		}
		for cut := 0; cut <= len(retired); cut++ {
			f.Add(retired[:cut])
		}
		for off := frameHeaderSize; off < len(retired); off++ {
			for bit := 0; bit < 8; bit++ {
				flipped := append([]byte(nil), retired...)
				flipped[off] ^= 1 << bit
				f.Add(reseal(flipped))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// As it is — which a mutation rarely survives, the checksum sees to
		// that — and resealed, its size and checksum made to match, which
		// takes every mutation to the inflater and the record decoder.
		checkFrame(t, data)
		if len(data) >= frameHeaderSize {
			checkFrame(t, reseal(data))
		}
	})
}

// checkSeed fails f unless frame parses whole and decodes to records of
// types want.
func checkSeed(f *testing.F, frame []byte, want []RecordType) {
	f.Helper()
	var fr frameReader
	first, n, recs, size, ok := fr.parseFrame(frame)
	if !ok || size != len(frame) || n != len(want) {
		f.Fatalf("seed frame of %v does not parse", want)
	}
	var got []RecordType
	if err := decodeFrame(first, recs, func(r *Record) error {
		got = append(got, r.Type)
		return nil
	}); err != nil || len(got) != len(want) {
		f.Fatalf("seed frame of %v decodes to %v, %v", want, got, err)
	}
	for i, typ := range want {
		if got[i] != typ {
			f.Fatalf("seed frame of %v decodes to %v", want, got)
		}
	}
}

func checkFrame(t *testing.T, data []byte) {
	var fr frameReader
	first, n, recs, size, ok := fr.parseFrame(data)
	if !ok {
		return
	}
	raw := binary.LittleEndian.Uint32(data)&frameDeflated == 0
	if size > len(data) || len(recs) > maxFrameSize || cap(fr.buf) > maxFrameSize || (raw && len(recs) > size) {
		t.Fatalf("frame of %d bytes parsed to length %d, records %d (buffer %d)", len(data), size, len(recs), cap(fr.buf))
	}
	held, got, tuples := 0, 0, 0
	var prev string
	err := decodeFrame(first, recs, func(r *Record) error {
		if r.LSN != first+LSN(got) {
			t.Fatalf("record %d of a frame at LSN %d has LSN %d", got, first, r.LSN)
		}
		got++
		if len(r.File) > 0 && (len(prev) == 0 || unsafe.StringData(r.File) != unsafe.StringData(prev)) {
			held += len(r.File)
		}
		if r.Type.pageLevel() {
			prev = r.File
		}
		held += len(r.Data) + 2*len(r.Slots)
		for _, rec := range r.Recs {
			held += len(rec)
		}
		tuples += len(r.Recs)
		if len(r.Recs) != len(r.Slots) {
			t.Fatalf("%d slots, %d tuples", len(r.Slots), len(r.Recs))
		}
		return nil
	})
	if held > len(recs)+maxBatchPrefix*tuples {
		t.Fatalf("%d bytes of records decoded to %d bytes, %d of them batch records", len(recs), held, tuples)
	}
	if err == nil && got != n {
		t.Fatalf("frame of %d records decoded to %d", n, got)
	}
}
