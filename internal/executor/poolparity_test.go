package executor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/geom"
)

// poolCounts are the storage counters TestPoolCountParity pins, as one
// database instance's SHOW STATS reports them when it ends.
type poolCounts struct {
	accesses, misses, diskWrites, walBytes int64
}

// TestPoolCountParity pins what one seeded script costs the buffer pool,
// the disk and the log: batched and single-row INSERT, UPDATE, DELETE,
// index scans and kNN over a trie, a kd-tree and a B+-tree table, VACUUM,
// CHECKPOINT, and a Crash with the reopen that recovers it. Accesses are
// logical — what the access methods ask of the pool — and are pinned at
// both pool sizes; misses, disk writes and log bytes are pinned where
// every file fits (1024 frames). The figures were recorded at commit
// 70fd2f1, which had one pool of PoolPages frames per relation file, and
// must not move when the files share one pool.
//
// The accesses were re-recorded twice since. The first time was for a plan
// change and nothing else: the script's `#=` prefixes were priced with
// both ends of their range at mid-bucket, so a one-letter prefix inside a bucket estimated one
// row of 1 000 (3 % match) and planned an Index Scan. Interpolated inside
// the bucket, it estimates within a third of the truth and plans the Seq
// Scan the cost model prefers for a table this small: accesses 12 095 →
// 11 656 and 2 907 → 2 563 at 16 frames (12 037 → 11 598 and
// 2 911 → 2 567 at 1 024). Misses, disk writes and log bytes did not move,
// and with the old within-bucket position the old accesses come back.
//
// The second time was when the B+-tree stopped serving its nodes from a
// decoded-node cache beside the pool: every node the keys table's B+-tree visits is a
// pool access now, as in PostgreSQL's nbtree. Accesses 11 656 → 11 801 and
// 2 563 → 2 642 at 16 frames (11 598 → 11 746 and 2 567 → 2 646 at
// 1 024); misses, disk writes and log bytes did not move.
//
// The log bytes were re-recorded three times, each time for a log format
// change and nothing else: node records rewritten where they lie are logged as
// slot patches, and page images leave out their hole (1 124 150 → 932 602
// before the crash, 152 505 → 143 271 after the reopen); then a
// statement's records came to share one log frame and name their file
// once (932 602 → 769 504, 143 271 → 137 767).
//
// They were re-recorded once more when page images of 1 KB or more came
// to be stored deflated: 769 504 → 577 235 before the crash and
// 137 767 → 84 015 after the reopen. The B+-tree logged every page it
// changed as an image then, and the heap and SP-GiST pages ship one at
// their first touch after a checkpoint; most are full pages. Accesses, misses
// and disk writes did not move.
//
// All but disk writes were re-recorded when the heap came to reuse the
// space VACUUM frees. One insert moved: the words table's first insert
// after its target page 5 filled. Before the crash, VACUUM had left 32 B
// free on page 5 and room on page 1, so the tuple went to page 1 without
// a fetch of page 5 instead of to a new page 6: accesses −1 (a fetch of a
// resident page in place of a fetch and an extension) and misses −1 (the
// extension), and the 14 Seq Scans of words that followed read five data
// pages, not six: accesses 11 801 → 11 786 at 16 frames, 11 746 → 11 731
// and misses 43 → 42 at 1 024. Page 1 had not been touched since the
// CHECKPOINT, so it shipped its first-touch image in place of the fresh
// page 6's 73-byte one: 6 514 raw bytes and 2 198 logged bytes more, log
// bytes 577 235 → 579 433. After the reopen the free-space
// map is empty and the target is the last page, 5, which is full: the
// next insert fetches it and extends the file (+1 access against the
// parent's fetch of its page 6), while recovery's recount, the lazy
// statistics sample and 12 Seq Scans each read one page fewer (−14):
// accesses 2 642 → 2 629 and 2 646 → 2 633. The fresh page 6 ships a
// 73-byte first-touch image the parent's page 6, written since the
// checkpoint, did not need: log bytes 84 015 → 84 088. Misses there did
// not move: the extension is one, and the recount's read of the parent's
// page 6 is the one it replaces.
//
// The log bytes were re-recorded once more when every page became slotted
// and the pool lost its per-unpin page images: meta pages and B+-tree
// nodes are logged as slot records, and a page image is only ever a first
// touch after the checkpoint. Before the crash the log holds 33 images
// instead of 293 (255 240 → 91 656 bytes): gone are the meta-page images —
// the seven creations, now slot-puts, and every counter save, now a
// slot-patch — and the B+-tree's image of every page a statement changed.
// In their place come 12 more slot-puts (124 002 → 137 241 bytes: the
// creations and the B+-tree's new nodes) and 271 more slot-patches
// (57 501 → 207 308 bytes: the meta counters and the B+-tree's leaf
// rewrites, each the leaf's tail from the inserted key on), and the
// heap-insert records shrink by 10 bytes (1 547 → 1 537: the meta records
// now keep statement order, and a few heap records follow one of their own
// file and name it by reference). In all 579 433 → 578 885. After the
// reopen the log holds 4 images instead of 91 (78 768 → 8 222 bytes) and 88
// more slot-patches (815 → 42 399 bytes): 84 088 → 55 126. Accesses,
// misses and disk writes did not move.
//
// The log bytes were re-recorded once more, for the log format alone. A
// batch insert carries its xmin once and its tuples without their 18-byte
// headers (578 885 → 517 917 before the crash, 55 126 → 54 496 after the
// reopen), and a frame of 1 KB or more is stored deflated when that is
// smaller (517 917 → 372 269, 54 496 → 39 660). Accesses, misses and disk
// writes did not move.
//
// All but misses were re-recorded when CREATE INDEX came to build its file
// outside the log, through a pool of its own, and commit once. Each of
// the script's three builds (of an empty index) costs the database's pool
// 4 accesses fewer: the catalog's 7 become 4 (no validity flip of the
// entry), and the index file's 2 become the 1 fetch of its meta page when
// the built file joins the pool, a miss where the page's creation was one.
// Accesses 11 786 → 11 774 at 16 frames and 11 731 → 11 719 at 1 024
// before the crash; after the reopen they did not move. Each build writes
// its meta page to its file: disk writes 41 → 44. The log loses, per
// index, a commit marker, the flip's catalog delete and insert and the
// meta page's slot-put, and gains the meta page's image at its first
// touch: by record type −54 B of markers, −45 and −239 B of catalog
// deletes and inserts, −107 B of slot-puts and +14 B of images, and the
// frames that held them deflate differently: log bytes
// 372 269 → 371 761. After the reopen the catalog page's
// first-touch image no longer carries the three index records the flips
// inserted (941 → 717 B), and the deflated images of pages stamped with
// other LSNs come out a few bytes apart (one heap page 164 B shorter):
// 39 660 → 39 437.
//
// The log bytes were re-recorded once more when the heap came to log its
// changes as slot records. Record for record, heap inserts became
// slot-puts and VACUUM's heap deletes slot-deletes of the same bytes; the
// 63 xmax stamps before the crash became slot patches a byte shorter
// each (1 017 → 954 B: the xids changed one byte), and the 6 after the
// reopen the same size; the batch inserts became batch puts, which carry
// a prefix length and the count of its bytes kept besides the xmin's
// bytes, 1 or 2 bytes more a record (73 635 → 73 824 B over 106 records,
// 1 220 → 1 280 over 30). Raw, 517 486 → 517 612 and 54 273 → 54 333
// bytes; as the frames deflate, 371 761 → 371 904 and 39 437 → 39 503.
// Accesses, misses and disk writes did not move: the heap's pass after
// the reopen reads the pages the recount read, and repairs nothing.
//
// Accesses and log bytes were re-recorded when VACUUM came to remove index
// entries by one BulkDelete pass per index over its file, in place of a
// key-directed descent per dead version. The pass fetches each page of an
// index file once and each data-node record that holds a dead RID once
// more; a descent fetched each leaf its key reached, then that leaf again
// to rewrite it, and every B+-tree node on its path. Accesses 11 774 → 11 683
// and 2 629 → 2 617 at 16 frames, 11 719 → 11 622 and 2 633 → 2 619 at
// 1 024. A leaf that held several dead entries is rewritten once rather
// than patched once per entry: log bytes 371 904 → 367 256 and
// 39 503 → 39 095. Misses and disk writes did not move.
//
// Accesses and log bytes were re-recorded when a multi-row INSERT into a
// kd-tree index began to insert its batch median first
// (kdtree.OpClass.OrderBatch) rather than sorted by encoded key: the
// script's kd-tree comes out shallower and its nodes land on other pages.
// Accesses 11 683 → 11 637 and 2 617 → 2 621 at 16 frames, 11 622 →
// 11 526 and 2 619 → 2 603 at 1 024; log bytes 367 256 → 366 487 and
// 39 095 → 39 232. Misses and disk writes did not move.
//
// The log bytes were re-recorded when UPDATE came to insert its
// successors as INSERT does, in one heap batch per chunk ahead of the old
// versions' xmax stamps: each successor is a slot-batch-put, carrying its
// xmin once, where it was a slot-put with an 18-byte header. Log bytes
// 366 487 → 366 370 and 39 232 → 39 223. Accesses, misses and disk writes
// did not move: the successors land on the pages they did.
//
// All but misses were re-recorded when the indexes stopped keeping an
// entry count, and a commit point, a CHECKPOINT and Close stopped
// fetching each index's meta page to save it. One access less per index
// at each of them: accesses 11 526 → 11 403 and 2 603 → 2 561 at 1 024
// frames, 11 637 → 11 512 and 2 621 → 2 579 at 16 (where VACUUM commits
// once per chunk). Before the crash the log loses 107 slot patches of an
// index's count (200 399 → 199 092 B) and the first-touch images of the
// three index meta pages after the CHECKPOINT (36 → 33 images,
// 91 100 → 90 788 B), and one slot-put names its file by reference
// (137 525 → 137 522 B): raw 508 671 → 507 049, stored 366 370 → 365 536.
// After the reopen it loses 36 such patches (41 859 → 41 427 B), and the
// deflated images of pages stamped with other LSNs come out 7 B shorter
// (8 037 → 8 030): raw 53 781 → 53 342, stored 39 223 → 38 824. The three
// index meta pages, no longer dirtied after the reopen, are not written at
// Close: disk writes 34 → 31 there.
//
// The accesses at 16 frames were re-recorded when every chunk came to be
// sized by the pages it may dirty, half the pool's frames, and no longer
// by a count of rows (4 × the frames for INSERT, a quarter of them for
// DELETE and VACUUM, at least 64 and 16). At 1 024 frames no chunk
// boundary moved, and nothing there did. At 16 frames the script's
// 150-row INSERTs went in 64 + 64 + 22 rows; the first seven still take
// one chunk, and once a table's heap and index file hold more than the 8
// pages a chunk may dirty, the other eleven go in 3-row chunks, each index
// Insert descending from the root again. The 40-row DELETE went in
// 16 + 16 + 8 rows and is one chunk (it stamps 1 heap page). VACUUM of
// words went in 16 + 16 + 13 versions and takes 4 a chunk, each chunk a
// BulkDelete pass over the trie, and VACUUM of pts and keys, one chunk
// before, takes two before the crash and pts two after the reopen; the
// kd-tree built from 3-row batches lies on other pages. Accesses
// 11 512 → 12 290 before the crash and 2 579 → 2 569 after the reopen.
//
// The accesses at 16 frames were re-recorded when a statement's index
// keys came to wait in the table's index batch and go into each index at
// COMMIT: a statement's chunks are sized by the heap pages alone, and the
// batch by the index files alone. At 1 024 frames every statement is one
// chunk either way, and nothing there moved. At 16 frames the 150-row
// INSERTs that went in 3-row chunks once a table's files outgrew 8 pages
// go into the heap in one or two chunks and into each index in chunks of
// their own, fewer descents from the root: accesses 12 290 → 11 452
// before the crash, and the kd-tree built from other batches lies on
// other pages, 2 569 → 2 579 after the reopen.
func TestPoolCountParity(t *testing.T) {
	for _, c := range []struct {
		pool int
		want [2]poolCounts // before the crash, after the reopen
	}{
		{16, [2]poolCounts{{accesses: 11452}, {accesses: 2579}}},
		{1024, [2]poolCounts{{11403, 42, 44, 365536}, {2561, 43, 31, 38824}}},
	} {
		t.Run(fmt.Sprintf("pool=%d", c.pool), func(t *testing.T) {
			got := poolParityRun(t, c.pool)
			if c.pool < 1024 {
				for i := range got {
					got[i] = poolCounts{accesses: got[i].accesses}
				}
			}
			if got != c.want {
				t.Errorf("storage counters (before the crash, after the reopen):\n got  %+v\n want %+v", got, c.want)
			}
		})
	}
}

// poolParityTables are the script's three tables, one index each.
var poolParityTables = []struct {
	name, col string
	typ       catalog.Type
	index     [3]string
}{
	{"words", "k", catalog.Text, [3]string{"w_trie", "spgist", "spgist_trie"}},
	{"pts", "p", catalog.Point, [3]string{"p_kd", "spgist", "spgist_kdtree"}},
	{"keys", "k", catalog.Text, [3]string{"k_btree", "btree", ""}},
}

func poolParityRun(t *testing.T, poolPages int) (got [2]poolCounts) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(Options{Dir: dir, WAL: true, PoolPages: poolPages})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	counts := func(db *DB) (c poolCounts) {
		db.Obs().Each(func(name string, v int64) {
			switch name {
			case "pool_accesses_total":
				c.accesses = v
			case "pool_misses_total":
				c.misses = v
			case "disk_writes_total":
				c.diskWrites = v
			case "wal_appended_bytes_total":
				c.walBytes = v
			}
		})
		return c
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(25))
	words := datagen.Words(3000, 26)
	pts := datagen.Points(3000, 27, geom.MakeBox(0, 0, 100, 100))
	nextID := int64(0)
	key := func(ti int) catalog.Datum {
		i := int(nextID) % len(words)
		if ti == 1 {
			return catalog.NewPoint(pts[i])
		}
		return catalog.NewText(words[(i+1000*ti)%len(words)])
	}
	row := func(ti int) catalog.Tuple {
		tup := catalog.Tuple{key(ti), catalog.NewInt(nextID)}
		nextID++
		return tup
	}
	idPred := func(op string, id int64) *Pred { return &Pred{Column: 1, Op: op, Arg: catalog.NewInt(id)} }
	var tables [3]*Table
	reads := func() {
		t.Helper()
		count := func(Row) bool { return true }
		for i := 0; i < 40; i++ {
			w := words[r.Intn(len(words))]
			_, err := tables[0].Select(&Pred{Column: 0, Op: "=", Arg: catalog.NewText(w)}, count)
			must(err)
			_, err = tables[0].Select(&Pred{Column: 0, Op: "#=", Arg: catalog.NewText(w[:1+r.Intn(len(w))])}, count)
			must(err)
			x, y := r.Float64()*90, r.Float64()*90
			_, err = tables[1].Select(&Pred{Column: 0, Op: "^", Arg: catalog.NewBox(geom.MakeBox(x, y, x+10, y+10))}, count)
			must(err)
			_, _, err = tables[1].SelectNN("p", catalog.NewPoint(geom.Point{X: x, Y: y}), 5)
			must(err)
			_, err = tables[2].Select(&Pred{Column: 0, Op: "=", Arg: catalog.NewText(w)}, count)
			must(err)
			_, err = tables[2].Select(&Pred{Column: 0, Op: "<", Arg: catalog.NewText(w[:1])}, count)
			must(err)
		}
	}
	writes := func(single int) {
		t.Helper()
		for i := 0; i < single; i++ {
			ti := i % len(tables)
			_, err := tables[ti].Insert(row(ti))
			must(err)
			if i%2 == 0 {
				_, err = tables[ti].UpdateWhere(idPred("=", r.Int63n(nextID)), []ColUpdate{{Column: 0, Value: key(ti)}})
				must(err)
				_, err = tables[ti].DeleteWhere(idPred("=", r.Int63n(nextID)))
				must(err)
			}
		}
	}

	db := open()
	for ti, def := range poolParityTables {
		tb, err := db.CreateTable(def.name, []Column{{def.col, def.typ}, {"id", catalog.Int}})
		must(err)
		_, err = db.CreateIndex(def.index[0], def.name, def.col, def.index[1], def.index[2])
		must(err)
		tables[ti] = tb
	}
	for batch := 0; batch < 18; batch++ {
		ti := batch % len(tables)
		tups := make([]catalog.Tuple, 150)
		for i := range tups {
			tups[i] = row(ti)
		}
		_, err := tables[ti].InsertBatch(tups)
		must(err)
	}
	writes(45)
	reads()
	for _, tb := range tables {
		_, err := tb.DeleteWhere(idPred("<", 40))
		must(err)
		_, err = db.Vacuum(tb.Name)
		must(err)
	}
	must(db.Checkpoint())
	writes(30)
	reads()
	got[0] = counts(db)
	must(db.Crash())

	db = open()
	for ti, def := range poolParityTables {
		tb, err := db.Table(def.name)
		must(err)
		tables[ti] = tb
	}
	reads()
	writes(30)
	for _, tb := range tables {
		_, err := db.Vacuum(tb.Name)
		must(err)
	}
	must(db.Checkpoint())
	got[1] = counts(db)
	must(db.Close())
	return got
}
