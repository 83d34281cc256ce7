package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// frameSpan is one frame of a segment as scanSegment sees it.
type frameSpan struct {
	first LSN
	n     int
	end   int64 // offset just past the frame
}

func frameSpans(t *testing.T, path string) []frameSpan {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []frameSpan
	var fr frameReader
	for off := 0; ; {
		first, n, _, size, ok := fr.parseFrame(b[off:])
		if !ok {
			return spans
		}
		off += size
		spans = append(spans, frameSpan{first, n, int64(off)})
	}
}

// statement stages the records of statement s: several, over two
// relations.
func statement(s int) *Group {
	g := NewGroup()
	g.AddHeapInsert("rel1.tbl", uint32(s+1), 0, bytes.Repeat([]byte{byte(s)}, 20+s))
	g.AddSlotPut("rel2.idx", uint32(s+1), 1, []byte("node"))
	g.AddSlotPatch("rel2.idx", uint32(s+1), 1, []byte{4, 0, 0, 0, 1, 0, 'N'})
	g.AddSlotPatch("rel1.tbl", uint32(s+1), 0, []byte{byte(20 + s), 0, 8, 0, 1, 0, byte(s)})
	if s%2 == 1 {
		g.AddTxnCommit(uint64(s))
	}
	return g
}

// writeStatements appends groups statements, each closed by its commit
// marker, and returns the markers' LSNs.
func writeStatements(t *testing.T, w *Writer, groups int) []LSN {
	t.Helper()
	var markers []LSN
	for s := 0; s < groups; s++ {
		if _, m, err := w.AppendGroupCommit(statement(s)); err != nil {
			t.Fatal(err)
		} else {
			markers = append(markers, m)
		}
	}
	return markers
}

// TestFrameIsAllOrNothing cuts a segment of multi-record groups at every
// byte offset. Replay returns the frames wholly before the cut and
// nothing of the one it tears — never a prefix of a group — and
// OpenWriter cuts the torn tail back to that frame boundary.
func TestFrameIsAllOrNothing(t *testing.T) {
	src := t.TempDir()
	w, err := OpenWriter(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeStatements(t, w, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(src)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	whole, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	spans := frameSpans(t, segs[0].path)
	if len(spans) != 6 || spans[len(spans)-1].end != int64(len(whole)) {
		t.Fatalf("frames %+v of a %d-byte segment, want 6 filling it", spans, len(whole))
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, filepath.Base(segs[0].path))
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var boundary int64
		var records int
		for _, s := range spans {
			if s.end <= int64(cut) {
				boundary, records = s.end, records+s.n
			}
		}
		recs, st := replayAll(t, dir)
		if len(recs) != records || st.TornTail != (int64(cut) != boundary) {
			t.Fatalf("cut at %d: replayed %d records (torn %v), want %d, torn %v", cut, len(recs), st.TornTail, records, int64(cut) != boundary)
		}
		if records > 0 && recs[len(recs)-1].Type != RecCommit {
			t.Fatalf("cut at %d: replay ends in a %v, not a statement's marker", cut, recs[len(recs)-1].Type)
		}
		w, err := OpenWriter(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if size, _ := fileSize(seg); size != boundary {
			t.Fatalf("cut at %d: OpenWriter left %d bytes, want the frame boundary %d", cut, size, boundary)
		}
		lsn, err := w.AppendCommit()
		if err != nil {
			t.Fatal(err)
		}
		if lsn != LSN(records+1) {
			t.Fatalf("cut at %d: next LSN %d, want %d", cut, lsn, records+1)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentBytes returns the bytes of each segment in dir, by file name.
func segmentBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	m := map[string][]byte{}
	segs, _ := listSegments(dir)
	for _, s := range segs {
		b, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		m[filepath.Base(s.path)] = b
	}
	return m
}

// TestCutKeepsWholeFrames: the end Replay reports for a log whose last
// statements lost their markers lies just past the last marker's frame,
// and the cut there leaves the log ending on that frame, across segment
// rotations. No end falls inside a frame: Replay refuses a log whose
// marker does not close its frame, the one way a statement could end
// inside one, and Cut refuses an end the log on disk does not reach,
// leaving the log as it was.
func TestCutKeepsWholeFrames(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	markers := writeStatements(t, w, 5)
	if err := w.Sync(markers[4]); err != nil {
		t.Fatal(err)
	}
	kept := len(segmentBytes(t, dir))
	tail := int64(0)
	for s := 5; s < 8; s++ {
		g := statement(s)
		tail += int64(g.Len())
		if _, err := w.AppendGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); kept < 2 || len(segs) <= kept {
		t.Fatalf("%d segments to the last marker, %d with the tail: want the tail past a rotation", kept, len(segs))
	}
	_, st := replayAll(t, dir)
	if st.TailDiscarded != tail || st.End.next != markers[4]+1 {
		t.Fatalf("replay discards %d records and ends before LSN %d, want %d and %d", st.TailDiscarded, st.End.next, tail, markers[4]+1)
	}

	before := segmentBytes(t, dir)
	size := int64(len(before[segmentName(st.End.seg)]))
	for _, e := range []End{
		{seg: st.End.seg, off: size + 1, next: st.End.next},
		{seg: st.End.seg + 1, next: st.End.next},
	} {
		if err := Cut(dir, e); err == nil {
			t.Fatalf("Cut(%+v) past the log succeeded", e)
		}
		if after := segmentBytes(t, dir); !maps.EqualFunc(after, before, bytes.Equal) {
			t.Fatalf("a refused Cut(%+v) changed the log", e)
		}
	}

	if err := Cut(dir, st.End); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1].path
	spans := frameSpans(t, last)
	if size, _ := fileSize(last); len(segs) != kept || len(spans) == 0 || spans[len(spans)-1].end != size {
		t.Fatalf("%d segments, the last %d bytes with frames %+v: not cut on the marker's frame", len(segs), size, spans)
	}
	recs, again := replayAll(t, dir)
	if again.TornTail || again.LastLSN != markers[4] || recs[len(recs)-1].Type != RecCommit {
		t.Fatalf("after the cut: last LSN %d, torn %v", again.LastLSN, again.TornTail)
	}
	if again.End != st.End || again.TailDiscarded != 0 {
		t.Fatalf("a cut log ends at %+v, discarding %d; want the cut %+v, discarding none", again.End, again.TailDiscarded, st.End)
	}

	// A frame holding a slot delete behind its commit marker.
	bad := t.TempDir()
	g := NewGroup()
	g.AddSlotDelete("r", 1, 0)
	frame := appendFrame(nil, 1, commitMarker, g.buf, nil)
	if err := os.WriteFile(filepath.Join(bad, segmentName(1)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bad, func(*Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "inside the frame") {
		t.Fatalf("replay of a marker inside its frame: %v, want it refused", err)
	}
}

// TestAppendedBytesCountTheDisk: AppendedBytes, the counter behind the
// benchmark's write bytes, is what the segment files hold — headers
// included, deflated frames as stored — less the checkpoint frames it has
// always left out, across groups, single-record appends and rotations.
// ByType sums to FrameRawBytes, what the frames would have taken raw, a
// statement's frame header charged to its commit marker.
func TestAppendedBytesCountTheDisk(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Checkpoint(CheckpointState{}); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	g := NewGroup()
	g.AddHeapInsert("rel1.tbl", 1, 0, []byte("row"))
	g.AddSlotPut("rel2.idx", 1, 0, []byte("node"))
	if _, _, err := w.AppendGroupCommit(g); err != nil {
		t.Fatal(err)
	}
	one := w.Stats()
	if d := one.ByType[RecCommit].Bytes - before.ByType[RecCommit].Bytes; d != frameHeaderSize+markerSize {
		t.Errorf("a statement's marker is charged %d bytes, want its frame header and itself, %d", d, frameHeaderSize+markerSize)
	}
	if d := one.ByType[RecSlotPut].Bytes; d != int64(len(g.buf)) {
		t.Errorf("the statement's records are charged %d bytes, want their %d encoded bytes", d, len(g.buf))
	}

	writeStatements(t, w, 10)
	if _, _, err := w.AppendGroupCommit(bigStatement(0)); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 256)
	copy(page, "image")
	for i := 0; i < 4; i++ {
		if _, err := appendGroupOf(w, func(g *Group) { g.AddPageImage("rel2.idx", uint32(i), page, 5, 200) }); err != nil {
			t.Fatal(err)
		}
		if _, err := w.AppendFileCreate("rel9.idx"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.AppendCommit(); err != nil {
			t.Fatal(err)
		}
		g.Reset()
		g.AddSlotDelete("rel1.tbl", 1, 0)
		if _, err := w.AppendGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Rotations < 3 {
		t.Fatalf("%d rotations, want the log spread over several segments", st.Rotations)
	}
	segs, _ := listSegments(dir)
	var disk int64
	for _, s := range segs {
		size, err := fileSize(s.path)
		if err != nil {
			t.Fatal(err)
		}
		disk += size
	}
	checkpointFrame := int64(frameHeaderSize + len(appendCheckpoint(nil, CheckpointState{})))
	if disk != st.AppendedBytes+checkpointFrame {
		t.Errorf("segments hold %d bytes, AppendedBytes %d + one %d-byte checkpoint frame = %d", disk, st.AppendedBytes, checkpointFrame, st.AppendedBytes+checkpointFrame)
	}
	var recs, bytes int64
	for _, by := range st.ByType {
		recs += by.Records
		bytes += by.Bytes
	}
	if recs != st.Appends || bytes != st.FrameRawBytes || st.FrameRawBytes <= st.AppendedBytes {
		t.Errorf("ByType sums to %d records / %d B, the totals are %d / %d raw, %d stored", recs, bytes, st.Appends, st.FrameRawBytes, st.AppendedBytes)
	}
}

// TestOversizeGroupSplitsIntoFrames: a group past maxFrameSize goes out as
// consecutive frames, whether it grew past the limit record by record or
// by Extend, and only the last frame carries the marker. The record that
// opens a frame names its relation, which the group had left implicit.
func TestOversizeGroupSplitsIntoFrames(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	node := make([]byte, 1<<20)
	const recs = maxFrameSize/(1<<20) + 1
	direct := NewGroup()
	for i := 0; i < recs; i++ {
		direct.AddSlotPut("rel2.idx", uint32(i+1), 0, node)
	}
	half, extended := NewGroup(), NewGroup()
	for i := 0; i < recs/2+1; i++ {
		extended.AddSlotPut("rel3.idx", uint32(i+1), 0, node)
		half.AddSlotPut("rel3.idx", uint32(recs+i+1), 0, node)
	}
	extended.Extend(half)
	if len(direct.cuts) != 1 || len(extended.cuts) != 1 || extended.cuts[0] != recs/2+1 {
		t.Fatalf("cuts %v and %v, want one each, the second where Extend joined", direct.cuts, extended.cuts)
	}
	var markers [2]LSN
	for i, g := range []*Group{direct, extended} {
		if _, markers[i], err = w.AppendGroupCommit(g); err != nil {
			t.Fatal(err)
		}
	}
	direct, half, extended = nil, nil, nil

	// A cut made by a record that names no relation: the slot put behind
	// it must name its own.
	byTxn := NewGroup()
	for i := 0; i < recs-2; i++ {
		byTxn.AddSlotPut("rel3.idx", 1, 0, node)
	}
	room := func() int { return maxFrameSize - markerSize - (len(byTxn.buf) - byTxn.span) }
	// A put of n bytes in the frame's relation takes n + 7 (type, a
	// 3-byte len, rel 0, page, slot): leave 5 bytes, too few for a
	// transaction record's 10.
	byTxn.AddSlotPut("rel3.idx", 1, 0, make([]byte, room()-12))
	if room() != 5 || len(byTxn.cuts) != 0 {
		t.Fatalf("%d bytes left in the frame after %d cuts, want 5 after none", room(), len(byTxn.cuts))
	}
	byTxn.AddTxnCommit(7)
	byTxn.AddSlotPut("rel3.idx", 2, 0, []byte("node"))
	if len(byTxn.cuts) != 1 || byTxn.cuts[0] != recs-1 {
		t.Fatalf("cuts %v, want one before the transaction record", byTxn.cuts)
	}
	if _, _, err := w.AppendGroupCommit(byTxn); err != nil {
		t.Fatal(err)
	}
	byTxn = nil
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := listSegments(dir)
	var ends []RecordType // the type of each frame's last record
	for _, s := range segs {
		if _, _, err := scanSegment(s.path, func(_ LSN, _ int, recs []byte, _ int64) error {
			var typ RecordType
			for len(recs) > 0 {
				typ, _, recs, _ = nextRecord(recs)
			}
			ends = append(ends, typ)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if want := []RecordType{RecSlotPut, RecCommit, RecSlotPut, RecCommit, RecSlotPut, RecCommit}; !slices.Equal(ends, want) {
		t.Fatalf("frames end in %v, want %v", ends, want)
	}
	n := 0
	if _, err := Replay(dir, func(r *Record) error {
		if r.Type != RecSlotPut {
			return nil
		}
		want := "rel3.idx"
		if r.LSN < markers[0] {
			want = "rel2.idx"
		}
		if r.File != want {
			t.Fatalf("LSN %d: a put into %s page %d, want %s", r.LSN, r.File, r.Page, want)
		}
		if r.LSN < markers[1] {
			n++
			if len(r.Data) != len(node) {
				t.Fatalf("LSN %d: a put of %d bytes, want %d", r.LSN, len(r.Data), len(node))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != recs+2*(recs/2+1) {
		t.Fatalf("replayed %d node records, want %d", n, recs+2*(recs/2+1))
	}
}

// TestMalformedFrameEndsTheLog: a frame whose checksum matches but whose
// records do not exactly fill it is no frame — replay stops before it as
// at a torn tail, and OpenWriter cuts it off.
func TestMalformedFrameEndsTheLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeStatements(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	good, _ := fileSize(segs[0].path)
	// A slot delete whose len claims one byte more than the frame holds.
	bad := appendFrame(nil, 12, []byte{byte(RecSlotDelete), 4, 0, 1, 0}, nil, nil)
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bad); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, st := replayAll(t, dir)
	if len(recs) != 11 || !st.TornTail {
		t.Fatalf("replayed %d records (torn %v), want the 11 before the malformed frame and a torn tail", len(recs), st.TornTail)
	}
	if w, err = OpenWriter(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if size, _ := fileSize(segs[0].path); size != good {
		t.Fatalf("OpenWriter left %d bytes, want %d", size, good)
	}
}

// TestRecordsShareTheirRelationName: the records of a frame that refer
// back to a relation carry the File string decoded for the record that
// named it, not a copy each.
func TestRecordsShareTheirRelationName(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeStatements(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	names := map[string]map[*byte]bool{}
	for _, r := range recs {
		if r.File == "" {
			continue
		}
		if names[r.File] == nil {
			names[r.File] = map[*byte]bool{}
		}
		names[r.File][unsafe.StringData(r.File)] = true
	}
	// Each statement names rel1.tbl twice (heap insert, then set xmax
	// after the index records) and rel2.idx once.
	if len(names["rel1.tbl"]) != 4 || len(names["rel2.idx"]) != 2 {
		t.Fatalf("distinct name strings: rel1.tbl %d, rel2.idx %d; want 4 and 2", len(names["rel1.tbl"]), len(names["rel2.idx"]))
	}
}

// bigStatement stages a statement of 60 index nodes, over 1 KB: its
// frame goes out deflated.
func bigStatement(s int) *Group {
	g := NewGroup()
	for i := 0; i < 60; i++ {
		g.AddSlotPut("rel2.idx", uint32(s+1), uint16(i), []byte(fmt.Sprintf("node %d of statement %d", i, s)))
	}
	return g
}

// TestTornDeflatedFrame: a torn tail inside a deflated frame stops replay
// at the frame before it, deflated or not, and OpenWriter cuts the log
// back to that frame's end; the cut at the end replay finds when a
// deflated frame's statement lost its marker keeps the deflated frame
// before it whole.
func TestTornDeflatedFrame(t *testing.T) {
	src := t.TempDir()
	w, err := OpenWriter(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	markers := writeStatements(t, w, 2)
	_, m, err := w.AppendGroupCommit(bigStatement(0))
	if err != nil {
		t.Fatal(err)
	}
	markers = append(markers, m)
	if _, err := w.AppendGroup(bigStatement(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(src)
	whole, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	spans := frameSpans(t, segs[0].path)
	if len(spans) != 4 || spans[3].end != int64(len(whole)) {
		t.Fatalf("frames %+v of a %d-byte segment, want 4 filling it", spans, len(whole))
	}
	for k, s := range spans {
		start := int64(0)
		if k > 0 {
			start = spans[k-1].end
		}
		deflated := binary.LittleEndian.Uint32(whole[start:])&frameDeflated != 0
		if deflated != (k >= 2) {
			t.Fatalf("frame %d (%d records) deflated: %v, want %v", k, s.n, deflated, k >= 2)
		}
	}

	dir := t.TempDir()
	seg := filepath.Join(dir, filepath.Base(segs[0].path))
	for cut := spans[1].end + 1; cut < spans[3].end; cut++ {
		if cut == spans[2].end {
			continue
		}
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		kept := 1
		if cut > spans[2].end {
			kept = 2
		}
		records := 0
		for _, s := range spans[:kept+1] {
			records += s.n
		}
		recs, st := replayAll(t, dir)
		if len(recs) != records || !st.TornTail || st.LastLSN != markers[kept] {
			t.Fatalf("cut at %d: replayed %d records to LSN %d (torn %v), want %d to the marker %d, torn",
				cut, len(recs), st.LastLSN, st.TornTail, records, markers[kept])
		}
		w, err := OpenWriter(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if size, _ := fileSize(seg); size != spans[kept].end {
			t.Fatalf("cut at %d: OpenWriter left %d bytes, want the frame boundary %d", cut, size, spans[kept].end)
		}
	}

	if err := os.WriteFile(seg, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	_, st := replayAll(t, dir)
	if st.TailDiscarded != int64(spans[3].n) {
		t.Fatalf("replay discards %d records, want the %d of the unmarked frame", st.TailDiscarded, spans[3].n)
	}
	if err := Cut(dir, st.End); err != nil {
		t.Fatal(err)
	}
	if size, _ := fileSize(seg); size != spans[2].end {
		t.Fatalf("the cut left %d bytes, want the deflated frame's end %d", size, spans[2].end)
	}
	recs, st := replayAll(t, dir)
	if st.TornTail || st.LastLSN != markers[2] {
		t.Fatalf("after the cut: last LSN %d, torn %v, want the marker %d", st.LastLSN, st.TornTail, markers[2])
	}
	node := recs[len(recs)-2]
	if node.Type != RecSlotPut || node.Slot != 59 || string(node.Data) != "node 59 of statement 0" {
		t.Fatalf("the deflated frame's last node replays as %v slot %d %q", node.Type, node.Slot, node.Data)
	}
}

// TestDeflatedFrameBounds: a deflated frame is read only when its stream
// inflates to at most maxFrameSize bytes — a frame's whole records, one
// record of exactly that size included — and ends exactly at the frame's
// end; anything else is no frame, and inflating it stops at maxFrameSize.
func TestDeflatedFrameBounds(t *testing.T) {
	// putOf returns one slot put of size bytes: its type, a 4-byte len,
	// then rel 2 "r", page 1, slot 0 and zeros.
	putOf := func(size int) []byte {
		rec := binary.AppendUvarint([]byte{byte(RecSlotPut)}, uint64(size-5))
		rec = append(rec, 2, 'r', 1, 0)
		return append(rec, make([]byte, size-len(rec))...)
	}
	full, short := putOf(maxFrameSize), putOf(maxFrameSize-1)
	for _, c := range []struct {
		name string
		z    []byte
		ok   bool
	}{
		{"maxFrameSize bytes", deflateBytes(full), true},
		{"past maxFrameSize", deflateBytes(append(full, 0)), false},
		{"a byte past the stream", append(deflateBytes(short), 0), false},
		{"a stream cut short", func() []byte { z := deflateBytes(short); return z[:len(z)-1] }(), false},
		{"no records", deflateBytes(nil), false},
	} {
		var fr frameReader
		_, n, recs, _, ok := fr.parseFrame(appendFrame(nil, 1, nil, nil, c.z))
		if ok != c.ok || (ok && (n != 1 || !bytes.Equal(recs, full))) || cap(fr.buf) > maxFrameSize {
			t.Errorf("%s: parsed %v to %d records of %d bytes (buffer %d), want %v",
				c.name, ok, n, len(recs), cap(fr.buf), c.ok)
		}
	}
}

// TestBatchTupleCountBound: a batch put may count as many records as a
// page's uint16 slot numbers address and no more. A deflated frame of
// some 16 KB that holds one batch counting 2^16 + 1 empty records
// — enough bytes for each, so only the bound refuses it — is corruption,
// refused before the decoder allocates for the records; 2^16 decode.
func TestBatchTupleCountBound(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{maxBatchRecords, true}, {maxBatchRecords + 1, false}} {
		g := NewGroup()
		body := binary.AppendUvarint(nil, uint64(c.n))
		body = append(body, 0, 0)                   // an empty prefix
		body = append(body, make([]byte, 2*c.n)...) // delta 0, len 0 each
		g.head(RecSlotBatchPut, "r.tbl", 1, len(body))
		g.buf = append(g.buf, body...)
		g.add(RecSlotBatchPut)
		frame := deflatedFrameOf(t, g, 1)
		if len(frame) > 1<<15 {
			t.Fatalf("the frame of %d tuples takes %d bytes", c.n, len(frame))
		}
		var fr frameReader
		first, n, recs, _, ok := fr.parseFrame(frame)
		if !ok || n != 2 {
			t.Fatalf("the frame of %d tuples does not parse", c.n)
		}
		tuples := 0
		err := decodeFrame(first, recs, func(r *Record) error {
			tuples += len(r.Recs)
			return nil
		})
		if (err == nil) != c.ok || (c.ok && tuples != c.n) {
			t.Errorf("%d tuples: decoded %d, error %v; want ok %v", c.n, tuples, err, c.ok)
		}
	}
}

// TestBatchPrefixBound: a batch put's shared prefix, its implied zeros
// included, is at most maxBatchPrefix bytes. A record of a dozen bytes
// whose prefix length claims 2^24 implied zeros is corruption, refused
// before the decoder allocates them; one a byte past the bound is too,
// and one at it decodes. The writer refuses to build a longer prefix.
func TestBatchPrefixBound(t *testing.T) {
	for _, c := range []struct {
		plen int
		ok   bool
	}{{maxBatchPrefix, true}, {maxBatchPrefix + 1, false}, {1 << 24, false}} {
		g := NewGroup()
		body := binary.AppendUvarint([]byte{1}, uint64(c.plen)) // one record
		body = append(body, 0, 0, 0)                            // no prefix byte kept; delta 0, len 0
		g.head(RecSlotBatchPut, "r.tbl", 1, len(body))
		g.buf = append(g.buf, body...)
		g.add(RecSlotBatchPut)
		var recs [][]byte
		err := decodeFrame(100, g.buf, func(r *Record) error {
			recs = r.Recs
			return nil
		})
		if (err == nil) != c.ok || (c.ok && (len(recs) != 1 || !bytes.Equal(recs[0], make([]byte, c.plen)))) {
			t.Errorf("a %d-byte prefix: decoded %d records, error %v; want ok %v", c.plen, len(recs), err, c.ok)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a batch put with a prefix past maxBatchPrefix was staged")
		}
	}()
	NewGroup().AddSlotBatchPut("r.tbl", 1, []uint16{0}, make([]byte, maxBatchPrefix+1), [][]byte{nil})
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
