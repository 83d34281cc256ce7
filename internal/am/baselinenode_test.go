package am

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// baselineRecords builds a B+-tree and an R-tree in 512-byte pages, deep
// enough to have inner nodes, and returns the node record, slot 0, of every
// data page.
func baselineRecords(t testing.TB) (bt, rt [][]byte) {
	t.Helper()
	const pageSize = 512
	bodies := func(build func(bp *storage.BufferPool) error) [][]byte {
		dm := storage.NewMem(pageSize)
		bp := storage.NewBufferPool("", dm, 256)
		if err := build(bp); err != nil {
			t.Fatal(err)
		}
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for pid := storage.PageID(1); pid < storage.PageID(dm.NumPages()); pid++ {
			page := make([]byte, pageSize)
			if err := dm.ReadPage(pid, page); err != nil {
				t.Fatal(err)
			}
			out = append(out, storage.SlotRead(page, 0))
		}
		return out
	}
	bt = bodies(func(bp *storage.BufferPool) error {
		tr, err := btree.Create(bp)
		if err != nil {
			return err
		}
		for i, w := range datagen.Words(400, 31) {
			if err := tr.InsertBatch([]btree.Pair{{Key: []byte(w), RID: rid(i)}}); err != nil {
				return err
			}
		}
		return nil
	})
	rt = bodies(func(bp *storage.BufferPool) error {
		tr, err := rtree.Create(bp)
		if err != nil {
			return err
		}
		for i, p := range datagen.Points(300, 32, geom.MakeBox(0, 0, 100, 100)) {
			if err := tr.Insert(geom.Box{Min: p, Max: p}, rid(i)); err != nil {
				return err
			}
		}
		return nil
	})
	return bt, rt
}

// readBTree and readRTree call every accessor of a view the record gives,
// reporting whether it gave one.
func readBTree(body []byte) bool {
	v, err := btree.NewView(body, nil)
	if err != nil {
		return false
	}
	_ = v.Link()
	for i := 0; i < v.Len(); i++ {
		_ = v.Key(i)
		if v.Leaf() {
			_ = v.RID(i)
		} else {
			_ = v.Child(i)
		}
	}
	return true
}

func readRTree(body []byte) bool {
	v, err := rtree.NewView(body)
	if err != nil {
		return false
	}
	for i := 0; i < v.Len(); i++ {
		_ = v.Rect(i)
		if v.Leaf() {
			_ = v.RID(i)
		} else {
			_ = v.Child(i)
		}
	}
	return true
}

// FuzzBaselineNode feeds arbitrary node records to the B+-tree's and the
// R-tree's view: each must return an error or a view whose every accessor
// stays inside the record. The seeds are the slot-0 records of the trees'
// own leaf and inner pages, whole, truncated inside their entries, and with
// a bit flipped in the count or the first key length; the whole records
// must parse, end where their entries end, and the truncated ones must not
// parse.
func FuzzBaselineNode(f *testing.F) {
	bt, rt := baselineRecords(f)
	seen := map[bool]bool{}
	for _, body := range bt {
		v, err := btree.NewView(body, nil)
		if err != nil {
			f.Fatalf("btree page: %v", err)
		}
		seen[v.Leaf()] = true
	}
	for _, body := range rt {
		if !readRTree(body) {
			f.Fatal("rtree page does not parse")
		}
	}
	if !seen[true] || !seen[false] {
		f.Fatalf("btree seeds: leaves %v, inner nodes %v", seen[true], seen[false])
	}
	// seed adds body, whose entries end at byte used, as read parses it.
	seed := func(read func([]byte) bool, body []byte, used int) {
		if used != len(body) {
			f.Fatalf("a node record of %d bytes whose entries end at byte %d", len(body), used)
		}
		f.Add(body)
		for _, cut := range [][]byte{body[:used-1], body[:used/2]} {
			if read(cut) {
				f.Fatalf("a body cut inside its entries (%d of %d bytes) parses", len(cut), used)
			}
			f.Add(cut)
		}
		for _, at := range []int{2, 8} {
			flipped := append([]byte(nil), body...)
			flipped[at] ^= 0x80
			f.Add(flipped)
		}
	}
	for _, body := range bt {
		v, _ := btree.NewView(body, nil)
		used := 7 // kind, count, link; then per entry its key length, key, and child or RID
		for i := 0; i < v.Len(); i++ {
			used += 2 + len(v.Key(i)) + 4
			if v.Leaf() {
				used += 2
			}
		}
		seed(readBTree, body, used)
	}
	for _, body := range rt {
		v, _ := rtree.NewView(body)
		seed(readRTree, body, 3+40*v.Len())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		readBTree(body)
		readRTree(body)
	})
}
