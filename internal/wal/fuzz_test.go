package wal

import (
	"testing"
)

// validFrames returns one well-formed frame of every record type the log
// can hold, by type.
func validFrames() map[RecordType][]byte {
	g := NewGroup()
	page := append([]byte("page image"), make([]byte, 54)...)
	copy(page[60:], "tail")
	g.AddPageImage("rel1.tbl", 3, page, 10, 50)
	g.AddHeapInsert("rel1.tbl", 1, 7, []byte("a heap tuple"))
	g.AddHeapDelete("rel1.tbl", 1, 7)
	g.buf = appendName(g.buf, "rel2.idx")
	g.add(RecFileCreate)
	g.add(RecCheckpoint)
	g.add(RecCommit)
	g.AddHeapBatchInsert("rel1.tbl", 2, []uint16{0, 1, 5}, [][]byte{[]byte("one"), []byte("two"), []byte("three")})
	g.AddHeapSetXmax("rel1.tbl", 1, 7, 42)
	g.AddHeapClearXmax("rel1.tbl", 1, 7)
	g.AddHeapMarkAborted("rel1.tbl", 1, 7)
	g.AddTxnCommit(42)
	g.AddTxnAbort(43)
	g.AddSlotPut("rel2.idx", 4, 9, []byte("an index node"))
	g.AddSlotDelete("rel2.idx", 4, 9)
	g.AddSlotPatch("rel2.idx", 4, 9, []byte{15, 0, 3, 0, 2, 0, 'n', 'o'})
	frames := make(map[RecordType][]byte, len(g.types))
	for i, typ := range g.types {
		frames[typ] = appendFrame(nil, LSN(100+i), typ, g.payload(i))
	}
	return frames
}

// FuzzDecodeRecord: whatever bytes the log hands back — a torn tail, a
// flipped bit, a hostile file — the frame parser and the record decoder
// return a record or an error; they never panic, and a decoded record
// holds no more bytes than the frame that carried it (the decoder copies
// payloads, so a length field must not be able to size an allocation).
// The seed corpus is one valid frame of every record type plus every
// truncation of it; `go test` runs the corpus, `go test -fuzz` explores.
func FuzzDecodeRecord(f *testing.F) {
	frames := validFrames()
	for typ := RecordType(1); typ < NumRecordTypes; typ++ {
		frame, ok := frames[typ]
		if !ok {
			f.Fatalf("no seed frame for record type %v: a new type must join validFrames", typ)
		}
		lsn, body, n, ok := parseFrame(frame)
		if !ok || n != len(frame) {
			f.Fatalf("seed frame of %v does not parse", typ)
		}
		if rec, err := decodeRecord(lsn, body); err != nil || rec.Type != typ {
			f.Fatalf("seed frame of %v decodes to %+v, %v", typ, rec, err)
		}
		for cut := 0; cut <= len(frame); cut++ {
			f.Add(frame[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a frame — which a mutation rarely survives, the checksum
		// sees to that — and as a bare body, which reaches the decoder.
		if lsn, body, n, ok := parseFrame(data); ok {
			if n > len(data) || len(body) > n {
				t.Fatalf("frame of %d bytes parsed to length %d, body %d", len(data), n, len(body))
			}
			checkDecoded(t, lsn, body)
		}
		checkDecoded(t, 1, data)
	})
}

func checkDecoded(t *testing.T, lsn LSN, body []byte) {
	rec, err := decodeRecord(lsn, body)
	if err != nil {
		return
	}
	held := len(rec.File) + len(rec.Data) + 2*len(rec.Slots)
	for _, r := range rec.Recs {
		held += len(r)
	}
	if held > len(body) || len(rec.Recs) != len(rec.Slots) {
		t.Fatalf("%d-byte body decoded to %d bytes of record (%d slots, %d tuples)", len(body), held, len(rec.Slots), len(rec.Recs))
	}
}
