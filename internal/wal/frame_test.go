package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
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
	var spans []frameSpan
	off := int64(0)
	if _, _, err := scanSegment(path, func(first LSN, n int, recs []byte) error {
		off += int64(frameHeaderSize + len(recs))
		spans = append(spans, frameSpan{first, n, off})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return spans
}

// writeStatements appends groups statements of several records over two
// relations, each closed by its commit marker, and returns the markers'
// LSNs.
func writeStatements(t *testing.T, w *Writer, groups int) []LSN {
	t.Helper()
	var markers []LSN
	for s := 0; s < groups; s++ {
		g := NewGroup()
		g.AddHeapInsert("rel1.tbl", uint32(s+1), 0, bytes.Repeat([]byte{byte(s)}, 20+s))
		g.AddSlotPut("rel2.idx", uint32(s+1), 1, []byte("node"))
		g.AddSlotPatch("rel2.idx", uint32(s+1), 1, []byte{4, 0, 0, 0, 1, 0, 'N'})
		g.AddHeapSetXmax("rel1.tbl", uint32(s+1), 0, uint64(s))
		if s%2 == 1 {
			g.AddTxnCommit(uint64(s))
		}
		if _, m, err := w.AppendGroupCommit(g); err != nil {
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

// TestTruncateAfterCutsWholeFrames: truncating after a marker leaves the
// log ending on that marker's frame, across segment rotations; an LSN
// inside a frame that does not close it cannot be cut after and is an
// error that leaves the log as it was.
func TestTruncateAfterCutsWholeFrames(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	markers := writeStatements(t, w, 8)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) < 3 {
		t.Fatalf("%d segments, want the groups spread over at least 3", len(segs))
	}
	snapshot := func() map[string][]byte {
		m := map[string][]byte{}
		segs, _ := listSegments(dir)
		for _, s := range segs {
			b, err := os.ReadFile(s.path)
			if err != nil {
				t.Fatal(err)
			}
			m[s.path] = b
		}
		return m
	}
	before := snapshot()
	inside := markers[4] - 2 // a record of the fifth statement's frame
	if err := TruncateAfter(dir, inside); err == nil {
		t.Fatalf("TruncateAfter(%d) inside a frame succeeded", inside)
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("a failed TruncateAfter changed the segments: %d → %d", len(before), len(after))
	}
	for path, b := range before {
		if !bytes.Equal(after[path], b) {
			t.Fatalf("a failed TruncateAfter changed %s", path)
		}
	}

	if err := TruncateAfter(dir, markers[4]); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1].path
	spans := frameSpans(t, last)
	if size, _ := fileSize(last); len(spans) == 0 || spans[len(spans)-1].end != size {
		t.Fatalf("the last segment is %d bytes, its frames %+v: not cut on a frame boundary", size, spans)
	}
	recs, st := replayAll(t, dir)
	if st.TornTail || st.LastLSN != markers[4] || recs[len(recs)-1].Type != RecCommit {
		t.Fatalf("after TruncateAfter(%d): last LSN %d, torn %v", markers[4], st.LastLSN, st.TornTail)
	}
}

// TestAppendedBytesCountTheDisk: AppendedBytes, the counter behind the
// benchmark's write bytes, is what the segment files hold — headers
// included — less the checkpoint frames it has always left out, across
// groups, single-record appends and rotations. ByType sums to it, a
// statement's frame header charged to its commit marker.
func TestAppendedBytesCountTheDisk(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Checkpoint(); err != nil {
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
	if d := one.ByType[RecHeapInsert].Bytes + one.ByType[RecSlotPut].Bytes; d != int64(len(g.buf)) {
		t.Errorf("the statement's records are charged %d bytes, want their %d encoded bytes", d, len(g.buf))
	}

	writeStatements(t, w, 10)
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
		g.AddHeapDelete("rel1.tbl", 1, 0)
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
	const checkpointFrame = frameHeaderSize + markerSize
	if disk != st.AppendedBytes+checkpointFrame {
		t.Errorf("segments hold %d bytes, AppendedBytes %d + one %d-byte checkpoint frame = %d", disk, st.AppendedBytes, checkpointFrame, st.AppendedBytes+checkpointFrame)
	}
	var recs, bytes int64
	for _, by := range st.ByType {
		recs += by.Records
		bytes += by.Bytes
	}
	if recs != st.Appends || bytes != st.AppendedBytes {
		t.Errorf("ByType sums to %d records / %d B, the totals are %d / %d", recs, bytes, st.Appends, st.AppendedBytes)
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
		if _, _, err := scanSegment(s.path, func(_ LSN, _ int, recs []byte) error {
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
	bad := append(openFrame(nil, 12), byte(RecSlotDelete), 4, 0, 1, 0)
	closeFrame(bad, 0)
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
