package wal

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func replayAll(t *testing.T, dir string) ([]*Record, ReplayStats) {
	t.Helper()
	var recs []*Record
	st, err := Replay(dir, func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, st
}

// appendGroupOf appends the one record add stages through the group
// API — the only way heap records reach the log — and returns its LSN.
func appendGroupOf(w *Writer, add func(g *Group)) (LSN, error) {
	g := NewGroup()
	add(g)
	lsns, err := w.AppendGroup(g)
	if err != nil {
		return 0, err
	}
	return lsns[0], nil
}

func appendHeapInsert(w *Writer, file string, page uint32, slot uint16, rec []byte) (LSN, error) {
	return appendGroupOf(w, func(g *Group) { g.AddHeapInsert(file, page, slot, rec) })
}

func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 512)
	copy(page, "page-image-content")
	copy(page[500:], "tail")
	l1, err := appendGroupOf(w, func(g *Group) { g.AddPageImage("t.tbl", 7, page, 18, 482) })
	if err != nil {
		t.Fatal(err)
	}
	l2, err := appendHeapInsert(w, "t.tbl", 3, 12, []byte("tuple-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	l3, err := appendGroupOf(w, func(g *Group) { g.AddSlotDelete("t.tbl", 3, 12) })
	if err != nil {
		t.Fatal(err)
	}
	l4, err := w.AppendFileCreate("idx.idx")
	if err != nil {
		t.Fatal(err)
	}
	if !(l1 == 1 && l2 == 2 && l3 == 3 && l4 == 4) {
		t.Fatalf("LSNs not sequential: %d %d %d %d", l1, l2, l3, l4)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, st := replayAll(t, dir)
	if len(recs) != 4 || st.Records != 4 || st.LastLSN != 4 {
		t.Fatalf("replay saw %d records (stats %+v)", len(recs), st)
	}
	img := recs[0]
	if img.Type != RecPageImage || img.File != "t.tbl" || img.Page != 7 || img.HoleOff != 18 || img.HoleLen != 482 {
		t.Fatalf("bad image record: %+v", img)
	}
	want := append(page[:18:18], page[500:]...)
	if !bytes.Equal(img.Data, want) {
		t.Fatalf("image data mismatch: %q vs %q", img.Data, want)
	}
	ins := recs[1]
	if ins.Type != RecSlotPut || ins.Page != 3 || ins.Slot != 12 || string(ins.Data) != "tuple-bytes" {
		t.Fatalf("bad insert record: %+v", ins)
	}
	del := recs[2]
	if del.Type != RecSlotDelete || del.Page != 3 || del.Slot != 12 {
		t.Fatalf("bad delete record: %+v", del)
	}
	if recs[3].Type != RecFileCreate || recs[3].File != "idx.idx" {
		t.Fatalf("bad file-create record: %+v", recs[3])
	}
}

func TestTornTailIsTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := appendHeapInsert(w, "t.tbl", 1, uint16(i), []byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage half-frame at the tail.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, st := replayAll(t, dir)
	if len(recs) != 5 || !st.TornTail {
		t.Fatalf("want 5 records and a torn tail, got %d (stats %+v)", len(recs), st)
	}

	// Reopen at the end replay found, a log without markers being kept
	// whole: the tail must be cut and the LSN sequence continue.
	if err := Cut(dir, st.End); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWriterAt(dir, Options{}, st.End)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.AppendFileCreate("x.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("LSN after torn-tail reopen = %d, want 6", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st = replayAll(t, dir)
	if len(recs) != 6 || st.TornTail {
		t.Fatalf("after truncation: %d records, torn=%v", len(recs), st.TornTail)
	}
}

// TestReopenParsesEachFrameOnce: a reopen — Replay, the cut at the end it
// reports, the writer opened there — parses each frame of the log once.
// It leaves the segments as the reopen always has: a log that ends at a
// marker whole; a statement that lost its marker cut back to the last
// marker's frame, with the segment it spilled into removed; a torn final
// frame cut back to the frame before it. The writer carries on the LSNs.
func TestReopenParsesEachFrameOnce(t *testing.T) {
	sizes := func(dir string) map[string]int64 {
		m := map[string]int64{}
		segs, _ := listSegments(dir)
		for _, s := range segs {
			m[filepath.Base(s.path)], _ = fileSize(s.path)
		}
		return m
	}
	cases := []struct {
		name string
		opts Options
		// write fills the log and returns the segments a reopen leaves
		// and the LSN it appends next; tear, when set, cuts bytes off the
		// closed log's last frame.
		write func(t *testing.T, w *Writer, dir string) (map[string]int64, LSN)
		tear  bool
	}{
		{
			name: "ends at a marker",
			opts: Options{SegmentBytes: 300},
			write: func(t *testing.T, w *Writer, dir string) (map[string]int64, LSN) {
				markers := writeStatements(t, w, 6)
				if err := w.Sync(markers[5]); err != nil {
					t.Fatal(err)
				}
				return sizes(dir), markers[5] + 1
			},
		},
		{
			name: "uncommitted tail across a rotation",
			opts: Options{SegmentBytes: 300},
			write: func(t *testing.T, w *Writer, dir string) (map[string]int64, LSN) {
				markers := writeStatements(t, w, 3)
				if err := w.Sync(markers[2]); err != nil {
					t.Fatal(err)
				}
				keep := sizes(dir)
				for s := 3; len(sizes(dir)) <= len(keep); s++ {
					if _, err := w.AppendGroup(statement(s)); err != nil {
						t.Fatal(err)
					}
					if err := w.Sync(w.AppendedLSN()); err != nil {
						t.Fatal(err)
					}
				}
				return keep, markers[2] + 1
			},
		},
		{
			name: "torn final frame",
			write: func(t *testing.T, w *Writer, dir string) (map[string]int64, LSN) {
				markers := writeStatements(t, w, 4)
				if err := w.Sync(markers[3]); err != nil {
					t.Fatal(err)
				}
				keep := sizes(dir)
				if _, _, err := w.AppendGroupCommit(statement(4)); err != nil {
					t.Fatal(err)
				}
				return keep, markers[3] + 1
			},
			tear: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWriter(dir, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, next := c.write(t, w, dir)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _ := listSegments(dir)
			frames := 0
			for _, s := range segs {
				frames += len(frameSpans(t, s.path))
			}
			if c.tear {
				last := segs[len(segs)-1].path
				size, _ := fileSize(last)
				if err := os.Truncate(last, size-3); err != nil {
					t.Fatal(err)
				}
				frames--
			}

			frameParses.Store(0)
			st, err := Replay(dir, func(*Record) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := Cut(dir, st.End); err != nil {
				t.Fatal(err)
			}
			if w, err = OpenWriterAt(dir, c.opts, st.End); err != nil {
				t.Fatal(err)
			}
			if got := frameParses.Load(); got != int64(frames) {
				t.Errorf("the reopen parsed %d frames, want each of the %d once", got, frames)
			}
			if got := sizes(dir); !maps.Equal(got, want) {
				t.Errorf("the reopen left segments %v, want %v", got, want)
			}
			lsn, err := w.AppendCommit()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if lsn != next {
				t.Fatalf("the first append after the reopen took LSN %d, want %d", lsn, next)
			}
			if _, again := replayAll(t, dir); again.TornTail || again.LastLSN != lsn || again.TailDiscarded != 0 {
				t.Fatalf("after the reopen: last LSN %d, torn %v, %d discarded; want %d, whole", again.LastLSN, again.TornTail, again.TailDiscarded, lsn)
			}
		})
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := appendHeapInsert(w, "t.tbl", uint32(i), 0, bytes.Repeat([]byte{1}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	recs, st := replayAll(t, dir)
	if len(recs) != n || st.Segments != len(segs) {
		t.Fatalf("replay across segments: %d records, stats %+v", len(recs), st)
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) || r.Page != uint32(i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
}

func TestCheckpointRecyclesSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := appendHeapInsert(w, "t.tbl", uint32(i), 0, bytes.Repeat([]byte{1}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Segments()
	if before < 2 {
		t.Fatalf("expected multiple segments before checkpoint, got %d", before)
	}
	state := CheckpointState{NextXid: 1 << 20, Running: []uint64{7, 1<<20 - 1}}
	ck, err := w.Checkpoint(state)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Segments(); got != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1", got)
	}
	// Post-checkpoint appends land after the checkpoint record.
	if _, err := w.AppendFileCreate("y.tbl"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st := replayAll(t, dir)
	if st.Checkpoints != 1 || len(recs) != 2 {
		t.Fatalf("post-checkpoint log: %d records, %d checkpoints", len(recs), st.Checkpoints)
	}
	if recs[0].Type != RecCheckpoint || recs[0].LSN != ck || !reflect.DeepEqual(recs[0].Checkpoint, state) {
		t.Fatalf("first surviving record is %+v, want checkpoint at %d carrying %+v", recs[0], ck, state)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lsn, err := appendHeapInsert(w, "t.tbl", uint32(g), uint16(i), []byte("r"))
				if err != nil {
					errs <- err
					return
				}
				if err := w.Sync(lsn); err != nil {
					errs <- err
					return
				}
				if w.DurableLSN() < lsn {
					errs <- fmt.Errorf("durable %d < synced %d", w.DurableLSN(), lsn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Appends != workers*perWorker {
		t.Fatalf("appends = %d", st.Appends)
	}
	// Group commit: concurrent committers share fsyncs, so there must be
	// no more syncs than appends (usually far fewer under contention).
	if st.Syncs > st.Appends {
		t.Fatalf("more syncs (%d) than appends (%d)?", st.Syncs, st.Appends)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != workers*perWorker {
		t.Fatalf("replay saw %d records, want %d", len(recs), workers*perWorker)
	}
}

func TestReplayDetectsMiddleSegmentDamage(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := appendHeapInsert(w, "t.tbl", uint32(i), 0, bytes.Repeat([]byte{1}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Corrupt a byte in the middle segment.
	mid := segs[len(segs)/2].path
	b, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	b[20] ^= 0xFF
	if err := os.WriteFile(mid, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, func(*Record) error { return nil })
	if err == nil {
		t.Fatal("replay accepted a damaged middle segment")
	}
}

func TestOpenWriterOnEmptyDirStartsAtLSN1(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.AppendFileCreate("a.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 {
		t.Fatalf("first LSN = %d, want 1", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// The WAL append benchmark (BenchmarkWALAppend) lives in the top-level
// bench suite (bench_test.go) next to the paper's other per-operation
// benchmarks.

// TestGroupCommitSharesFsync is the deterministic guard for group
// commit's whole point — one fsync covering N committing statements.
// Every statement's record group (and marker) is appended first; only
// then do all sessions call Commit concurrently. The first committer to
// take the lock becomes the leader and syncs to the writer's appended
// horizon, which already covers every other statement, so exactly one
// fsync serves all N — an implementation that fsynced per commit would
// count N and fail.
func TestGroupCommitSharesFsync(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	for g := 0; g < sessions; g++ {
		grp := NewGroup()
		grp.AddHeapInsert("t.tbl", uint32(g+1), 0, []byte("row"))
		grp.AddHeapInsert("t.tbl", uint32(g+1), 1, []byte("row2"))
		if _, _, err := w.AppendGroupCommit(grp); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Stats().Syncs
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Commit(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if syncs := w.Stats().Syncs - before; syncs != 1 {
		t.Fatalf("%d commits used %d fsyncs, want exactly 1 shared fsync", sessions, syncs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendGroupCommitIsAtomic: groups appended from concurrent
// goroutines must land contiguously — no other statement's records (or
// marker) interleave inside a group, so a marker only ever covers whole
// statements.
func TestAppendGroupCommitIsAtomic(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	const workers, groups, recsPer = 6, 30, 5
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < groups; b++ {
				grp := NewGroup()
				for r := 0; r < recsPer; r++ {
					// Page encodes the owning worker so replay can check
					// contiguity per group.
					grp.AddHeapInsert("t.tbl", uint32(g), uint16(r), []byte{byte(g)})
				}
				if _, _, err := w.AppendGroupCommit(grp); err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	run := 0
	var runOwner uint32
	for _, r := range recs {
		switch r.Type {
		case RecSlotPut:
			if run == 0 {
				runOwner = r.Page
			} else if r.Page != runOwner {
				t.Fatalf("group of worker %d interleaved with worker %d at LSN %d", runOwner, r.Page, r.LSN)
			}
			run++
		case RecCommit:
			if run != recsPer && run != 0 {
				t.Fatalf("marker at LSN %d covers a torn group of %d records", r.LSN, run)
			}
			run = 0
		}
	}
	total := 0
	for _, r := range recs {
		if r.Type == RecSlotPut {
			total++
		}
	}
	if total != workers*groups*recsPer {
		t.Fatalf("replayed %d records, want %d", total, workers*groups*recsPer)
	}
}

// TestHeapBatchRecordRoundTrip: a batch put of heap tuples — records
// that share an 18-byte header prefix of xmin and zeros — gives back its
// slots and records through encode -> frame -> replay intact, the prefix
// put back from what the record carries once, its zeros implied — 16 or
// more bytes less a tuple than the same tuples carried whole — and slot
// numbers that wrap around 2^16 come back as they went.
func TestHeapBatchRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	slots := []uint16{3, 0, 7, 65535, 0}
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-record"), []byte("wrap"), []byte("0")}
	xmins := []uint64{0, 1 << 40}
	var batches [][][]byte
	for _, xmin := range xmins {
		g := NewGroup()
		g.AddSlotBatchPut("big.tbl", 42, slots, tuple(xmin, ""), payloads)
		// The same record with each tuple whole: type, len, the head
		// (relation, page), n:2, then slot:2 len:4 and the tuple each.
		tuples := make([][]byte, len(payloads))
		body := uvarintLen(uint64(len("big.tbl")+1)) + len("big.tbl") + uvarintLen(42) + 2
		for i, p := range payloads {
			tuples[i] = tuple(xmin, string(p))
			body += 6 + len(tuples[i])
		}
		whole := 1 + uvarintLen(uint64(body)) + body
		if saved := whole - len(g.buf); saved < 16*len(slots) {
			t.Errorf("xmin %d: the batch takes %d bytes, the same tuples whole %d: want 16 or more a tuple saved", xmin, len(g.buf), whole)
		}
		if _, err := w.AppendGroup(g); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, tuples)
	}
	if _, err := w.AppendCommit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	var replayed []*Record
	for _, r := range got {
		if r.Type == RecSlotBatchPut {
			replayed = append(replayed, r)
		}
	}
	if len(replayed) != len(batches) {
		t.Fatalf("%d batch records replayed, want %d", len(replayed), len(batches))
	}
	for b, batch := range replayed {
		if batch.File != "big.tbl" || batch.Page != 42 {
			t.Fatalf("addr %s/%d", batch.File, batch.Page)
		}
		if len(batch.Slots) != len(slots) {
			t.Fatalf("%d slots, want %d", len(batch.Slots), len(slots))
		}
		for i := range slots {
			if batch.Slots[i] != slots[i] || !bytes.Equal(batch.Recs[i], batches[b][i]) {
				t.Fatalf("batch %d, tuple %d: slot %d rec %q, want slot %d rec %q",
					b, i, batch.Slots[i], batch.Recs[i], slots[i], batches[b][i])
			}
		}
	}
}

// TestStartAfter: a log that holds no record starts its numbering past
// the given LSN, in one segment named for it that replays and reopens
// like any other; a lower LSN changes nothing, and a log that holds a
// record refuses.
func TestStartAfter(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StartAfter(41); err != nil {
		t.Fatal(err)
	}
	if err := w.StartAfter(7); err != nil {
		t.Fatal(err)
	}
	if got := w.CheckpointLSN(); got != 42 {
		t.Fatalf("CheckpointLSN %d after StartAfter(41), want 42: the log does not reach back to LSN 1", got)
	}
	lsn, err := appendHeapInsert(w, "t.tbl", 1, 0, []byte("row"))
	if err != nil || lsn != 42 {
		t.Fatalf("first record at LSN %d (%v), want 42", lsn, err)
	}
	if err := w.StartAfter(100); err == nil {
		t.Fatal("StartAfter on a log that holds a record succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, err := filepath.Glob(filepath.Join(dir, "*.seg")); err != nil || len(segs) != 1 || filepath.Base(segs[0]) != segmentName(42) {
		t.Fatalf("segments %v (%v), want %s alone", segs, err, segmentName(42))
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != 1 || recs[0].LSN != 42 {
		t.Fatalf("replayed %d records, want one at LSN 42", len(recs))
	}
	w, err = OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.CheckpointLSN(); got != 42 {
		t.Fatalf("CheckpointLSN %d after reopen, want 42", got)
	}
	if lsn, err := appendHeapInsert(w, "t.tbl", 1, 1, []byte("row")); err != nil || lsn != 43 {
		t.Fatalf("record after reopen at LSN %d (%v), want 43", lsn, err)
	}
}
