package sqlmini

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/wal"
)

// walStream renders every record currently in the log at dir, one line
// per record: type, file, page, slot, xid, decoded payload length (image
// bytes as stored, tuple bytes, or the summed tuple bytes of a batch). LSNs are
// left out on purpose — the sequence is what is pinned; AppendedBytes
// pins the encoded sizes.
func walStream(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	_, err := wal.Replay(dir, func(r *wal.Record) error {
		n := len(r.Data)
		for _, rec := range r.Recs {
			n += len(rec)
		}
		fmt.Fprintf(&b, "%s file=%q page=%d slot=%d xid=%d len=%d\n", r.Type, r.File, r.Page, r.Slot, r.Xid, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestGoldenWALStream pins the exact record stream one seeded
// single-session script writes to the log of an on-disk SyncCommit
// database: which records, in which order, against which pages, with
// which payload sizes, and the total appended bytes. It exists so that a
// refactor of the logging path (buffer pool, heap, executor commit
// helpers) is proven record-for-record instead of argued: the golden
// below was captured before such a refactor and must not change with it.
// Under SyncCommit every statement's group is on disk when Exec returns,
// so the log is read back while the database is open: before CHECKPOINT
// (which recycles the segments read so far), before Close (which
// checkpoints again), and after it.
func TestGoldenWALStream(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WAL: true, WALSync: wal.SyncCommit, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(db)
	mustExec(t, s, `CREATE TABLE w (name VARCHAR, id INT)`)
	// Batch INSERT: 300 deterministic words — several heap pages (one
	// batch record each) — for the index build below to back-fill
	// outside the log.
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("('%s%03d', %d)", []string{"alpha", "beta", "gamma", "delta"}[i%4], (i*37)%300, i))
	}
	mustExec(t, s, `INSERT INTO w VALUES `+strings.Join(vals, ", "))
	mustExec(t, s, `CREATE INDEX wt ON w USING spgist (name spgist_trie)`)
	mustExec(t, s, `INSERT INTO w VALUES ('epsilon', 1000)`)
	mustExec(t, s, `UPDATE w SET id = 1001 WHERE name = 'epsilon'`)
	mustExec(t, s, `DELETE FROM w WHERE name = 'alpha000'`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO w VALUES ('zeta', 2000), ('eta', 2001)`)
	mustExec(t, s, `DELETE FROM w WHERE name = 'beta037'`)
	mustExec(t, s, `ROLLBACK`)
	mustExec(t, s, `VACUUM w`)
	walDir := filepath.Join(dir, "wal")
	got := walStream(t, walDir)
	mustExec(t, s, `CHECKPOINT`)
	// The first mutation of a page after a checkpoint ships
	// a full-page write behind its logical record.
	mustExec(t, s, `INSERT INTO w VALUES ('theta', 3000)`)
	got += "-- after CHECKPOINT --\n" + walStream(t, walDir)
	st := db.WAL().Stats()
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got += "-- after Close --\n" + walStream(t, walDir)
	got += fmt.Sprintf("appends=%d appended_bytes=%d\n", st.Appends, st.AppendedBytes)
	if got != goldenWALStream {
		t.Fatalf("WAL record stream changed.\n--- got ---\n%s--- want ---\n%s%s", got, goldenWALStream, firstDiff(got, goldenWALStream))
	}
}

// firstDiff names the first differing line of two streams.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("--- first difference at line %d: got %q, want %q\n", i+1, gl, wl)
		}
	}
	return ""
}

// goldenWALStream was captured at the commit before the storage/wal/heap
// logging refactor it guards (PR 17) and re-recorded twice since: PR 20
// turned the index's page images into slot records; PR 21 moved the meta
// pages off the per-statement log — six page-0 images are gone (the
// catalog's after its xid high-water rewrite and where the index is
// flipped valid, the heap's after the batch INSERT's first chunk and with
// the INSERT inside BEGIN, the index's at the commit of a DELETE, which
// changes none of its counters, and the one PR 20 added at ROLLBACK) and
// one is new: the index logs its meta page in the build group in which its
// root first moves; PR 22 put the common page header on every page — the
// one image of an index data page before CHECKPOINT (rel2.idx page 1, its
// first touch ever) is gone, and every page-0 image is 20 to 28 bytes
// longer (the header, magic and version ahead of the body); and once more
// for the slot patch and the image hole — 345 slot-puts of node records
// rewritten where they lie are slot-patches of the same slots (43 142
// record bytes as puts, 8 846 as patches), the two full-page images after
// CHECKPOINT leave out the free gap of their slotted pages (8 185 → 5 206
// and 8 191 → 7 779 bytes), and the stream appends 62 839 bytes instead of
// 100 526. Every other line is unchanged. The total was re-recorded once
// more, alone, when a statement's records came to share one log frame and
// name their file once: 62 839 → 47 715 bytes, every record line as it was.
// Then the two full-page images after CHECKPOINT came to be stored
// deflated: 5 206 → 1 483 and 7 779 → 2 876 bytes (len is the image as
// stored), and the stream appends 39 089 bytes instead of 47 715 — the
// 8 626 bytes the two images shrank by, their length fields two bytes
// either way. Every other line is unchanged, the meta-page images
// included: under 1 KB, they are stored raw.
//
// Re-recorded once more when page 0 became a slotted page whose meta
// record is logged like any other record, and every page-0 image before
// CHECKPOINT went. A file's creation is now a slot-put of its meta record
// (syscat.dat 20 bytes, a new line in the first group, ahead of the
// heap-insert its image used to follow; rel1.tbl 20 and rel2.idx 22 in
// place of their 36-byte images), and every counter save a slot-patch of
// 7 to 12 bytes in place of a 37- to 40-byte image: syscat.dat's three,
// rel1.tbl's five and rel2.idx's five. The index's first meta record of
// the build is a 13-byte patch right after the root's first slot-put —
// where the root moved — no longer a 39-byte image closing the group.
// After CHECKPOINT each statement logs its meta patch, and, page 0 being
// touched for the first time since the checkpoint, a 48- and a 50-byte
// first-touch image of page 0 behind the data page's; the data pages'
// deflated images come out a byte longer (1 483 → 1 484, 2 876 → 2 877)
// because the LSNs stamped in them are three records later. The stream
// appends 581 records instead of 578 (the catalog's creation put and the
// two page-0 first touches) and 38 726 bytes instead of 39 089. Every
// other line is unchanged.
//
// The total was re-recorded once more, alone, when the log came to spend
// fewer bytes on the same records. A batch insert carries its xmin once,
// its tuples without their 18-byte headers, and its slot and length
// fields as varints: 38 726 → 32 039 bytes. A frame of 1 KB or more is
// stored as a DEFLATE stream of Huffman codes when that is smaller — the
// batch INSERT's and the index build's among them: 32 039 → 20 700 bytes.
// Every record line is unchanged: the decoder gives back the same records.
//
// Re-recorded once more when CREATE INDEX came to build its file outside
// the log and commit once. Of its 503 lines 497 are gone: the meta page's
// creation slot-put and the build's 154 further slot-puts and 335
// slot-patches of rel2.idx, five of its six markers (the one that
// committed the entry invalid and four inside the build), and the
// catalog's delete and insert that flipped the entry valid; the file's
// creation, the catalog's four records of the entry and one marker
// remain. The first statement to touch the built pages (the INSERT of
// 'epsilon') ships their first-touch images, rel2.idx page 1 (3 031 bytes
// deflated) and page 0 (50 bytes), behind its records. The two deflated
// images after CHECKPOINT come out 2 bytes longer (1 484 → 1 486,
// 2 877 → 2 879): their pages carry other LSNs. The stream appends 86
// records instead of 581 and 12 856 bytes instead of 20 700. Every other
// line is unchanged.
//
// Re-recorded once more when the heap came to log its changes with the
// slot records index pages use, and the transaction-abort record went.
// The heap's inserts are slot-puts and its deletes slot-deletes, of the
// same slots and lengths: the catalog's eight lines, the UPDATE's new
// version and VACUUM's four deletes. Its batch inserts are slot-batch-puts: the six lines of
// rel1.tbl, each decoding to the same tuple bytes. The three xmax stamps
// (of the UPDATE, the DELETE, and the DELETE inside BEGIN) are 7-byte
// slot-patches of the same slots — the new length, one fragment header
// and the one byte of the xmax that changed — and no longer name the xid;
// the ROLLBACK's clear-xmax and its two mark-aborted are 7-byte
// slot-patches too, of the one byte each changes. The ROLLBACK's
// txn-abort record and the commit marker of its frame are gone: the
// stream holds 84 records instead of 86. The LSNs that follow come two
// earlier, and the deflated first-touch image of rel2.idx page 1 after
// CHECKPOINT, whose page holds them, comes out 2 bytes longer
// (2 879 → 2 881). Each batch put carries a prefix length and a kept
// count besides the xmin's byte (2 bytes more), the three xmax stamps a
// byte less each, the ROLLBACK's three patches 7 bytes each where its
// records had none, and the abort's frame is gone: the stream appends
// 12 862 bytes instead of 12 856. Every other line is unchanged.
//
// Re-recorded once more when VACUUM came to remove index entries by one
// BulkDelete pass over the index file per chunk of dead versions, in
// place of one key-directed descent per dead version. The trie leaf at
// rel2.idx page 1 slot 137 held two of the four dead rows; it was
// patched twice (23 and 7 bytes) and is now rewritten once, without both
// (12 bytes). The stream holds 83 records instead of 84, the LSNs that
// follow come one earlier, and the deflated first-touch image of rel2.idx
// page 1 after CHECKPOINT comes out 2 bytes shorter (2 881 → 2 879). It
// appends 12 836 bytes instead of 12 862. Every other line is unchanged.
//
// Re-recorded once more when UPDATE came to insert its successors as
// INSERT does, in one heap batch per chunk ahead of the old versions'
// xmax stamps, and CREATE INDEX to insert the heap's rows into the index
// in batches of an INSERT chunk (256 rows at 64 frames), sorted by key,
// in place of one row at a time. The UPDATE's successor is a
// slot-batch-put of the same 39 decoded bytes, and it now comes first in
// the UPDATE's group, ahead of the xmax patch of the old version (page 2
// slot 114) and, as before, of the index's records. The build inserts
// 'alpha000', the first of the 300 words in key order, first, so the
// trie leaf that holds it, which VACUUM rewrites, is slot 1 of rel2.idx
// page 1, not slot 71 (the same 27 bytes). The page's nodes lie in
// another order, and its two deflated images come out longer: the
// first-touch image at the INSERT of 'epsilon' 3 031 → 3 198 bytes, the
// one after CHECKPOINT 2 879 → 2 985. The stream holds the same 83
// records and appends 13 096 bytes instead of 12 836: the images' 273
// bytes more, and 13 fewer in the UPDATE's frame, whose batch put takes
// 39 bytes where the put took 44 (it carries the xmin once, not an 18-byte
// header) and whose patches take 76 where they took 84 (the xmax patch now
// follows a record of its own file). Every other line is unchanged.
//
// Re-recorded once more when the indexes stopped keeping an entry count
// and a commit point stopped saving an index's meta page, and the
// catalog's index record lost its validity flag. The four 7-byte slot
// patches of rel2.idx page 0 (at the INSERT of 'epsilon', the UPDATE,
// VACUUM and the INSERT after CHECKPOINT) are gone, and with them the two
// 50-byte first-touch images of that page (at the INSERT of 'epsilon' and
// after CHECKPOINT): no statement touches it. The index's catalog record
// is 70 bytes, not 71. The pages imaged after CHECKPOINT carry other LSNs,
// and their deflated images come out a byte apart: rel1.tbl page 2
// 1 486 → 1 485, rel2.idx page 1 2 985 → 2 986. The stream holds 77
// records instead of 83 and appends 12 931 bytes instead of 13 096. Every
// other line is unchanged.
//
// Re-recorded once more when every chunk came to be sized by the pages it
// may dirty (half the pool's frames), not by a count of rows. At 64 frames
// the 300-row INSERT went in 256 + 44 rows, two batch records on rel1.tbl
// page 2 with a marker between them, and is one chunk now: one batch
// record of 4 532 bytes in place of 2 783 and 1 749, and one marker less.
// CREATE INDEX inserted the heap's rows in the same two batches and takes
// all 300 in one now, so the trie's nodes lie on rel2.idx page 1 in
// another order: its deflated first-touch image at the INSERT of 'epsilon'
// comes out 3 198 → 2 901 bytes, and the one after CHECKPOINT
// 2 986 → 2 940 (with rel1.tbl page 2's 1 485 → 1 484). The stream holds
// 75 records instead of 77 and appends 12 520 bytes instead of 12 931.
// Every other line is unchanged.
const goldenWALStream = `commit file="" page=0 slot=0 xid=0 len=0
file-create file="syscat.dat" page=0 slot=0 xid=0 len=0
slot-put file="syscat.dat" page=0 slot=0 xid=0 len=20
slot-put file="syscat.dat" page=1 slot=0 xid=0 len=27
slot-patch file="syscat.dat" page=0 slot=0 xid=0 len=11
commit file="" page=0 slot=0 xid=0 len=0
file-create file="rel1.tbl" page=0 slot=0 xid=0 len=0
slot-put file="syscat.dat" page=1 slot=1 xid=0 len=27
slot-delete file="syscat.dat" page=1 slot=0 xid=0 len=0
slot-put file="syscat.dat" page=1 slot=0 xid=0 len=64
slot-patch file="syscat.dat" page=0 slot=0 xid=0 len=7
slot-put file="rel1.tbl" page=0 slot=0 xid=0 len=20
commit file="" page=0 slot=0 xid=0 len=0
slot-put file="syscat.dat" page=1 slot=2 xid=0 len=27
commit file="" page=0 slot=0 xid=0 len=0
slot-batch-put file="rel1.tbl" page=1 slot=0 xid=0 len=7393
slot-batch-put file="rel1.tbl" page=2 slot=0 xid=0 len=4532
slot-patch file="rel1.tbl" page=0 slot=0 xid=0 len=12
txn-commit file="" page=0 slot=0 xid=1 len=0
commit file="" page=0 slot=0 xid=0 len=0
file-create file="rel2.idx" page=0 slot=0 xid=0 len=0
slot-put file="syscat.dat" page=1 slot=3 xid=0 len=27
slot-delete file="syscat.dat" page=1 slot=1 xid=0 len=0
slot-put file="syscat.dat" page=1 slot=1 xid=0 len=70
slot-patch file="syscat.dat" page=0 slot=0 xid=0 len=7
commit file="" page=0 slot=0 xid=0 len=0
slot-batch-put file="rel1.tbl" page=2 slot=0 xid=0 len=39
slot-patch file="rel1.tbl" page=0 slot=0 xid=0 len=7
slot-patch file="rel2.idx" page=1 slot=0 xid=0 len=20
slot-put file="rel2.idx" page=1 slot=137 xid=0 len=24
slot-patch file="rel2.idx" page=1 slot=0 xid=0 len=11
page-image file="rel2.idx" page=1 slot=0 xid=0 len=2901
txn-commit file="" page=0 slot=0 xid=2 len=0
commit file="" page=0 slot=0 xid=0 len=0
slot-batch-put file="rel1.tbl" page=2 slot=0 xid=0 len=39
slot-patch file="rel1.tbl" page=2 slot=114 xid=0 len=7
slot-patch file="rel1.tbl" page=0 slot=0 xid=0 len=7
slot-patch file="rel2.idx" page=1 slot=137 xid=0 len=26
txn-commit file="" page=0 slot=0 xid=3 len=0
commit file="" page=0 slot=0 xid=0 len=0
slot-patch file="rel1.tbl" page=1 slot=0 xid=0 len=7
txn-commit file="" page=0 slot=0 xid=4 len=0
commit file="" page=0 slot=0 xid=0 len=0
slot-batch-put file="rel1.tbl" page=2 slot=0 xid=0 len=71
slot-patch file="rel2.idx" page=1 slot=137 xid=0 len=22
slot-patch file="rel2.idx" page=1 slot=0 xid=0 len=20
slot-put file="rel2.idx" page=1 slot=138 xid=0 len=21
slot-patch file="rel2.idx" page=1 slot=0 xid=0 len=11
commit file="" page=0 slot=0 xid=0 len=0
slot-patch file="rel1.tbl" page=1 slot=1 xid=0 len=7
commit file="" page=0 slot=0 xid=0 len=0
slot-patch file="rel1.tbl" page=1 slot=1 xid=0 len=7
slot-patch file="rel1.tbl" page=2 slot=117 xid=0 len=7
slot-patch file="rel1.tbl" page=2 slot=116 xid=0 len=7
commit file="" page=0 slot=0 xid=0 len=0
slot-delete file="rel1.tbl" page=1 slot=0 xid=0 len=0
slot-delete file="rel1.tbl" page=2 slot=114 xid=0 len=0
slot-delete file="rel1.tbl" page=2 slot=116 xid=0 len=0
slot-delete file="rel1.tbl" page=2 slot=117 xid=0 len=0
slot-patch file="rel1.tbl" page=0 slot=0 xid=0 len=7
slot-patch file="rel2.idx" page=1 slot=1 xid=0 len=27
slot-patch file="rel2.idx" page=1 slot=137 xid=0 len=12
slot-patch file="rel2.idx" page=1 slot=138 xid=0 len=7
commit file="" page=0 slot=0 xid=0 len=0
-- after CHECKPOINT --
checkpoint file="" page=0 slot=0 xid=0 len=0
slot-batch-put file="rel1.tbl" page=2 slot=0 xid=0 len=37
slot-patch file="rel1.tbl" page=0 slot=0 xid=0 len=7
page-image file="rel1.tbl" page=2 slot=0 xid=0 len=1484
page-image file="rel1.tbl" page=0 slot=0 xid=0 len=48
slot-patch file="rel2.idx" page=1 slot=0 xid=0 len=20
slot-put file="rel2.idx" page=1 slot=139 xid=0 len=22
slot-patch file="rel2.idx" page=1 slot=0 xid=0 len=11
page-image file="rel2.idx" page=1 slot=0 xid=0 len=2940
txn-commit file="" page=0 slot=0 xid=6 len=0
commit file="" page=0 slot=0 xid=0 len=0
-- after Close --
checkpoint file="" page=0 slot=0 xid=0 len=0
appends=75 appended_bytes=12520
`
