package wal

import (
	"bytes"
	"encoding/binary"
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
	func(g *Group) { g.AddHeapInsert("rel1.tbl", 1, 7, []byte("a heap tuple")) },
	func(g *Group) { g.AddHeapDelete("rel1.tbl", 1, 7) },
	func(g *Group) { g.addRecord(RecFileCreate, "rel2.idx") },
	func(g *Group) { g.addRecord(RecCheckpoint, "") },
	func(g *Group) { g.addRecord(RecCommit, "") },
	func(g *Group) {
		g.AddHeapBatchInsert("rel1.tbl", 2, []uint16{0, 1, 5}, [][]byte{[]byte("one"), []byte("two"), []byte("three")})
	},
	func(g *Group) { g.AddHeapSetXmax("rel1.tbl", 1, 7, 42) },
	func(g *Group) { g.AddHeapClearXmax("rel1.tbl", 1, 7) },
	func(g *Group) { g.AddHeapMarkAborted("rel1.tbl", 1, 7) },
	func(g *Group) { g.AddTxnCommit(42) },
	func(g *Group) { g.AddTxnAbort(43) },
	func(g *Group) { g.AddSlotPut("rel2.idx", 400, 9, []byte("an index node")) },
	func(g *Group) { g.AddSlotDelete("rel2.idx", 400, 9) },
	func(g *Group) { g.AddSlotPatch("rel2.idx", 400, 300, []byte{15, 0, 3, 0, 2, 0, 'n', 'o'}) },
}

// frameOf encodes records [i, j) of g as a frame whose first LSN is first.
func frameOf(g *Group, i, j int, first LSN) []byte {
	b := append(openFrame(nil, first), g.buf[g.start(i):g.start(j)]...)
	closeFrame(b, 0)
	return b
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
// return records or an error; they never panic, and the records decoded
// from a frame hold no more bytes than the frame (the decoder copies
// payloads, so a length field must not be able to size an allocation,
// and a name referred back to is shared, not copied). The seed corpus is
// a one-record frame of every record type — page images raw and deflated —
// and every truncation of it,
// a frame holding one record of every type and every truncation of that,
// and that frame with each bit of its len, rel and page varints flipped
// under a checksum made to match. `go test` runs the corpus, `go test
// -fuzz` explores.
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
		if !seen[typ] {
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
			closeFrame(flipped, 0)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// As it is — which a mutation rarely survives, the checksum sees to
		// that — and resealed, its size and checksum made to match, which
		// takes every mutation to the record decoder.
		checkFrame(t, data)
		if len(data) >= frameHeaderSize {
			sealed := append([]byte(nil), data...)
			closeFrame(sealed, 0)
			checkFrame(t, sealed)
		}
	})
}

// checkSeed fails f unless frame parses whole and decodes to records of
// types want.
func checkSeed(f *testing.F, frame []byte, want []RecordType) {
	f.Helper()
	first, n, recs, size, ok := parseFrame(frame)
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
	for i := range want {
		if got[i] != want[i] {
			f.Fatalf("seed frame of %v decodes to %v", want, got)
		}
	}
}

func checkFrame(t *testing.T, data []byte) {
	first, n, recs, size, ok := parseFrame(data)
	if !ok {
		return
	}
	if size > len(data) || len(recs) > size {
		t.Fatalf("frame of %d bytes parsed to length %d, records %d", len(data), size, len(recs))
	}
	held, got := 0, 0
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
		if len(r.Recs) != len(r.Slots) {
			t.Fatalf("%d slots, %d tuples", len(r.Slots), len(r.Recs))
		}
		return nil
	})
	if held > len(recs) {
		t.Fatalf("%d bytes of records decoded to %d bytes", len(recs), held)
	}
	if err == nil && got != n {
		t.Fatalf("frame of %d records decoded to %d", n, got)
	}
}
