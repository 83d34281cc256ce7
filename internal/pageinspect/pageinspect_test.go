package pageinspect

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/wal"
)

// describeString runs Describe into a string, failing the test on error.
func describeString(t *testing.T, path string, pageNo uint32) string {
	t.Helper()
	var sb strings.Builder
	if err := Describe(&sb, path, pageNo, 0); err != nil {
		t.Fatalf("describe %s page %d: %v", path, pageNo, err)
	}
	return sb.String()
}

// TestHeapRoundTrip writes tuples through the heap layer, closes the
// file, and checks the inspector decodes them straight from disk.
func TestHeapRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	dm, err := storage.OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool("", dm, 16)
	hf, err := heap.Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	var rids []heap.RID
	for i := 0; i < 3; i++ {
		tup := catalog.Tuple{catalog.NewText(fmt.Sprintf("alpha%d", i)), catalog.NewInt(int64(i))}
		rid, err := hf.Insert(catalog.EncodeTuple(tup))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := hf.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	if err := hf.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}

	meta := describeString(t, path, 0)
	if !strings.Contains(meta, `magic="HEAP"`) || !strings.Contains(meta, "count=2") {
		t.Errorf("heap meta dump:\n%s", meta)
	}
	page := describeString(t, path, uint32(rids[0].Page))
	for _, want := range []string{"slotted header:", "nlive=2", "slot 0:", "slot 1: dead", "tuple: (alpha0, 0)", "tuple: (alpha2, 2)", "lsn="} {
		if !strings.Contains(page, want) {
			t.Errorf("heap page dump missing %q:\n%s", want, page)
		}
	}
}

// TestBTreeRoundTrip writes keys through the B+-tree layer and checks
// the inspector decodes the leaf from the closed file.
func TestBTreeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.idx")
	dm, err := storage.OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool("", dm, 16)
	bt, err := btree.Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key%d", i)
		if err := bt.InsertBatch([]btree.Pair{{Key: []byte(key), RID: heap.RID{Page: 1, Slot: uint16(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}

	meta := describeString(t, path, 0)
	if !strings.Contains(meta, `meta: magic="BTRE" format=5 root=1 height=1`+"\n") {
		t.Errorf("btree meta dump:\n%s", meta)
	}
	// 5 keys fit one leaf, which is the root: page 1.
	leaf := describeString(t, path, 1)
	for _, want := range []string{"btree leaf: nkeys=5", `key="key0" rid=(1,0)`, `key="key4" rid=(1,4)`} {
		if !strings.Contains(leaf, want) {
			t.Errorf("btree leaf dump missing %q:\n%s", want, leaf)
		}
	}
}

// TestSPGiSTRoundTrip builds a trie through the full engine, closes the
// database, and checks the inspector decodes node records from the
// index file of the closed directory — no executor over it.
func TestSPGiSTRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := executor.Open(executor.Options{Dir: dir, WALSync: wal.SyncLazy})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("w", []executor.Column{{Name: "name", Type: catalog.Text}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("w_trie", "w", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	words := []string{"random", "rondom", "spade", "spark", "sprite"}
	for i := 0; i < 60; i++ {
		words = append(words, fmt.Sprintf("word%02d", i))
	}
	for _, word := range words {
		if _, err := tab.Insert(catalog.Tuple{catalog.NewText(word)}); err != nil {
			t.Fatal(err)
		}
	}
	te, ok := db.Catalog().GetTable("w")
	if !ok {
		t.Fatal("table w not in catalog")
	}
	var idxFile string
	for _, ie := range db.Catalog().Indexes() {
		if ie.Name == "w_trie" {
			idxFile = ie.File
		}
	}
	if idxFile == "" {
		t.Fatal("index w_trie not in catalog")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	idxPath := filepath.Join(dir, idxFile)
	meta := describeString(t, idxPath, 0)
	if !strings.Contains(meta, `meta: magic="SPGS" format=5 root=(1,0)`+"\n") {
		t.Errorf("spgist meta dump:\n%s", meta)
	}
	// Scan every data page for decoded node records: all five keys must
	// appear in some leaf, and at least one inner node must show its
	// partition labels.
	dm, err := storage.OpenFile(idxPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := dm.NumPages()
	dm.Close()
	var all strings.Builder
	for p := uint32(1); p < n; p++ {
		all.WriteString(describeString(t, idxPath, p))
	}
	dump := all.String()
	for _, want := range []string{"inner node:", "leaf node:", "label=", `key="random"`, `key="sprite"`, "rid=("} {
		if !strings.Contains(dump, want) {
			t.Errorf("spgist page dumps missing %q:\n%s", want, dump)
		}
	}

	// The heap file of the closed directory decodes too.
	heapDump := describeString(t, filepath.Join(dir, te.File), 1)
	if !strings.Contains(heapDump, "tuple: (random)") {
		t.Errorf("heap dump of closed db missing tuple:\n%s", heapDump)
	}
}

// TestDescribeErrors pins the failure modes: missing file, page out of
// range.
func TestDescribeErrors(t *testing.T) {
	var sb strings.Builder
	if err := Describe(&sb, filepath.Join(t.TempDir(), "nope.tbl"), 0, 0); err == nil {
		t.Error("describe of a missing file should fail")
	}
	path := filepath.Join(t.TempDir(), "t.tbl")
	dm, err := storage.OpenFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool("", dm, 8)
	if _, err := heap.Create(bp); err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	dm.Close()
	if err := Describe(&sb, path, 99, 0); err == nil {
		t.Error("describe of an out-of-range page should fail")
	}
}

// buildFile writes a small relation file of the given kind, in pages of
// pageSize bytes, through its access method and a buffer pool, closes it,
// and returns its path.
func buildFile(t testing.TB, kind FileKind, pageSize int) string {
	t.Helper()
	name := map[FileKind]string{KindHeap: "rel1.tbl", KindBTree: "rel2.idx", KindSPGiST: "rel3.idx", KindRTree: "rel4.idx"}[kind]
	path := filepath.Join(t.TempDir(), name)
	dm, err := storage.OpenFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool(name, dm, 8)
	if kind == KindHeap {
		hf, err := heap.Create(bp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hf.Insert(catalog.EncodeTuple(catalog.Tuple{catalog.NewText("w"), catalog.NewInt(7)})); err != nil {
			t.Fatal(err)
		}
		if err := hf.SaveMeta(); err != nil {
			t.Fatal(err)
		}
	} else {
		opclass := map[FileKind]string{KindBTree: "btree_text", KindSPGiST: "spgist_trie", KindRTree: "rtree_point"}[kind]
		idx, err := am.New(opclass, bp, true)
		if err != nil {
			t.Fatal(err)
		}
		key := catalog.NewText("w")
		if kind == KindRTree {
			key = catalog.NewPoint(geom.Point{X: 1, Y: 2})
		}
		if err := idx.Insert([]catalog.Datum{key}, []heap.RID{{Page: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

var allKinds = []FileKind{KindHeap, KindBTree, KindSPGiST, KindRTree}

// TestChecksumDescribe pins the three renderings of the header's checksum
// field, the same for page 0 and a data page of all four file kinds:
// stamped and matching, mismatching after a bit flip, and zero on a page
// that was allocated and never written.
func TestChecksumDescribe(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			path := buildFile(t, kind, storage.DefaultPageSize)
			for _, pageNo := range []uint32{0, 1} {
				if got := describeString(t, path, pageNo); !strings.Contains(got, "page header: lsn=0 cksum=") || !strings.Contains(got, "(ok)") {
					t.Errorf("page %d dump:\n%s", pageNo, got)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[200] ^= 0x01
			raw[storage.DefaultPageSize+200] ^= 0x01
			raw = append(raw, make([]byte, storage.DefaultPageSize)...)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, pageNo := range []uint32{0, 1} {
				if got := describeString(t, path, pageNo); !strings.Contains(got, "MISMATCH") {
					t.Errorf("corrupt page %d dump:\n%s", pageNo, got)
				}
			}
			if got := describeString(t, path, 2); !strings.Contains(got, "cksum=0 (page never written)") {
				t.Errorf("never-written page dump:\n%s", got)
			}
		})
	}
}

// corruptLinePointer returns a slotted page of pageSize bytes whose slot 1
// points past the end of the page.
func corruptLinePointer(pageSize int) []byte {
	page := make([]byte, pageSize)
	storage.SlotInit(page)
	storage.SlotInsert(page, []byte("a live record"))
	storage.SlotInsert(page, []byte("another one"))
	entry := page[storage.PageHeaderSize+storage.SlotEntrySize:]
	binary.LittleEndian.PutUint16(entry[0:], 8000)
	binary.LittleEndian.PutUint16(entry[2:], 60000)
	return page
}

// halveSlot0 returns a copy of page whose slot-0 line pointer claims half
// its record: a record that ends inside its own fields.
func halveSlot0(page []byte) []byte {
	cut := append([]byte(nil), page...)
	entry := cut[storage.PageHeaderSize:]
	binary.LittleEndian.PutUint16(entry[2:], binary.LittleEndian.Uint16(entry[2:])/2)
	return cut
}

// TestDescribeCorruptLinePointer: a directory entry that leaves the page
// is printed as corrupt, and the slots around it still decode.
func TestDescribeCorruptLinePointer(t *testing.T) {
	for _, kind := range []FileKind{KindHeap, KindSPGiST} {
		var sb strings.Builder
		describePage(&sb, kind, 1, corruptLinePointer(storage.DefaultPageSize))
		for _, want := range []string{"slot 0: off=", "slot 1: off=8000 len=60000 CORRUPT"} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("%s page dump missing %q:\n%s", kind, want, sb.String())
			}
		}
	}
}

// FuzzDescribePage feeds arbitrary page bytes to the decoder of every file
// kind, as a data page and as page 0: whatever the bytes, the result is a
// dump, never a panic or a hang. The seeds are page 0 and page 1 of a file
// of every kind, then the same pages with the line pointer of their slot-0
// record — the meta record, or the node or tuple — cut to half its length.
// Pages are small so that the fuzzer spends its time on new inputs, not on
// minimizing 8 KB ones.
func FuzzDescribePage(f *testing.F) {
	const pageSize = 512
	var cut [][]byte
	for _, kind := range allKinds {
		raw, err := os.ReadFile(buildFile(f, kind, pageSize))
		if err != nil {
			f.Fatal(err)
		}
		var meta strings.Builder
		describePage(&meta, kind, 0, raw[:pageSize])
		if !strings.Contains(meta.String(), "    meta: magic=") {
			f.Fatalf("%v seed page 0 does not decode as a meta page:\n%s", kind, meta.String())
		}
		f.Add(uint8(kind), false, raw[:pageSize])
		f.Add(uint8(kind), true, raw[pageSize:2*pageSize])
		cut = append(cut, halveSlot0(raw[:pageSize]), halveSlot0(raw[pageSize:2*pageSize]))
	}
	f.Add(uint8(KindHeap), true, corruptLinePointer(pageSize))
	f.Add(uint8(KindSPGiST), true, corruptLinePointer(pageSize))
	truncated := make([]byte, pageSize) // a heap tuple that ends inside its first datum
	storage.SlotInit(truncated)
	storage.SlotInsert(truncated, heap.EncodeTuple(heap.TupleHeader{}, []byte{1, 0, byte(catalog.Int), 1, 2}))
	f.Add(uint8(KindHeap), true, truncated)
	f.Add(uint8(KindUnknown), true, []byte{1, 2, 3})
	for i, page := range cut {
		f.Add(uint8(allKinds[i/2]), i%2 == 1, page)
	}
	f.Fuzz(func(t *testing.T, kind uint8, dataPage bool, page []byte) {
		if len(page) > 2*pageSize {
			page = page[:2*pageSize]
		}
		pageNo := uint32(0)
		if dataPage {
			pageNo = 1
		}
		describePage(io.Discard, FileKind(kind%5), pageNo, page)
	})
}
