package storage

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/wal"
)

// referenceSlotPatch is AppendSlotPatch's patch computed a byte at a time
// and never cut short: one fragment per run of changed bytes, runs no more
// than a fragment header apart merged.
func referenceSlotPatch(old, rec []byte) []byte {
	type run struct{ start, end int }
	var runs []run
	for i := range rec {
		if i < len(old) && old[i] == rec[i] {
			continue
		}
		if n := len(runs); n > 0 && i-runs[n-1].end <= patchFragHeader {
			runs[n-1].end = i + 1
		} else {
			runs = append(runs, run{i, i + 1})
		}
	}
	patch := binary.LittleEndian.AppendUint16(nil, uint16(len(rec)))
	for _, r := range runs {
		patch = binary.LittleEndian.AppendUint16(patch, uint16(r.start))
		patch = binary.LittleEndian.AppendUint16(patch, uint16(r.end-r.start))
		patch = append(patch, rec[r.start:r.end]...)
	}
	return patch
}

// FuzzSlotPatch: for any old and new record, AppendSlotPatch takes the
// reference patch exactly when it is smaller than the new record — a
// patch is never logged larger than the put it stands for — and SlotPatch
// applied to a page holding the old record leaves the new one in its slot.
// `go test -fuzz FuzzSlotPatch` explores.
func FuzzSlotPatch(f *testing.F) {
	leaf := []byte("\x02\x00\x00\x00\x00\x00\x00\x02\x00\x05\x00apple rid...\x04\x00pear rid...")
	grown := append(append([]byte(nil), leaf...), "\x05\x00peach rid..."...)
	grown[7] = 3
	f.Add(leaf, grown)                                            // a leaf append
	f.Add(grown, leaf)                                            // a shrink
	f.Add(leaf, append([]byte("X"), leaf[1:]...))                 // one byte
	f.Add([]byte("abcdefghijklmnop"), []byte("abXdeYghZjklmnoQ")) // runs to merge
	f.Add([]byte("old"), []byte("entirely new"))                  // no patch pays
	f.Fuzz(func(t *testing.T, old, rec []byte) {
		if len(old) == 0 || len(rec) == 0 || len(old) > 1000 || len(rec) > 1000 {
			return // a node record is never empty, and two of these fit one page
		}
		patch, ok := AppendSlotPatch([]byte("head"), old, rec)
		if !bytes.HasPrefix(patch, []byte("head")) {
			t.Fatalf("the patch overwrote what dst held: %q", patch)
		}
		patch = patch[len("head"):]
		ref := referenceSlotPatch(old, rec)
		if ok != (len(ref) < len(rec)) {
			t.Fatalf("patch taken: %v, but the reference patch is %d bytes for a %d-byte record", ok, len(ref), len(rec))
		}
		if !ok {
			if len(patch) != 0 {
				t.Fatalf("a refused patch left %d bytes behind", len(patch))
			}
			return
		}
		if !bytes.Equal(patch, ref) {
			t.Fatalf("patch %x, reference %x", patch, ref)
		}
		page := make([]byte, 4096)
		SlotInit(page)
		SlotInsert(page, []byte("a neighbour"))
		slot, _ := SlotInsert(page, old)
		if err := SlotPatch(page, slot, patch); err != nil {
			t.Fatal(err)
		}
		if got := SlotRead(page, slot); !bytes.Equal(got, rec) {
			t.Fatalf("patched record %x, want %x", got, rec)
		}
		if got := SlotRead(page, 0); string(got) != "a neighbour" {
			t.Fatalf("the neighbour reads %q after the patch", got)
		}
	})
}

// TestRecoverDirRejectsDamagedPatches: a slot patch whose slot is dead,
// whose fragment runs past its new length, or whose new length no page can
// hold is a damaged log; recovery names the file, page and slot.
func TestRecoverDirRejectsDamagedPatches(t *testing.T) {
	const pageSize = 256
	put := func(g *wal.Group) { g.AddSlotPut("rel2.idx", 1, 0, []byte("node")) }
	cases := []struct {
		name  string
		patch []byte
		put   bool
		want  string
	}{
		{"dead slot", []byte{4, 0}, false, "page 1 of rel2.idx: storage: patch of slot 0: the slot is dead"},
		{"fragment past the length", []byte{4, 0, 2, 0, 3, 0, 'x', 'y', 'z'}, true, "page 1 of rel2.idx: storage: patch of slot 0: fragment [2, 5) runs past the new length 4"},
		{"truncated fragment", []byte{4, 0, 0, 0, 3, 0, 'x'}, true, "page 1 of rel2.idx: storage: patch of slot 0: truncated fragment"},
		{"length beyond the page", []byte{0xe8, 0x03}, true, "page 1 of rel2.idx: storage: patch of slot 0: the new length 1000 does not fit the page"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dataDir := t.TempDir()
			walDir := dataDir + "/wal"
			w := openMarkedWAL(t, walDir, wal.Options{})
			g := wal.NewGroup()
			if c.put {
				put(g)
			}
			g.AddSlotPatch("rel2.idx", 1, 0, c.patch)
			if _, _, err := w.AppendGroupCommit(g); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			_, err := RecoverDir(dataDir, walDir, pageSize, 16)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("recovery returned %v, want an error saying %q", err, c.want)
			}
		})
	}
}

// TestImagePageHole: the hole of a page is its free gap, and a page whose
// header names no gap has none; redo lays an image down around its hole
// and zeroes the hole; a hole that runs past the page is refused with the
// file and page named, not sliced into a panic.
func TestImagePageHole(t *testing.T) {
	if off, n := pageHole(make([]byte, 256)); off != 0 || n != 0 {
		t.Fatalf("hole of a page never initialized is [%d, %d)", off, off+n)
	}
	page := slottedPage(256, "first", "second")
	off, n := pageHole(page)
	if off != PageHeaderSize+2*slotSize || off+n != 256-len("first")-len("second") {
		t.Fatalf("hole of a slotted page is [%d, %d)", off, off+n)
	}
	copy(page[off:], "stale bytes of the gap")
	r := &wal.Record{Type: wal.RecPageImage, File: "rel2.idx", Page: 3, HoleOff: off, HoleLen: n,
		Data: append(page[:off:off], page[off+n:]...)}
	buf := bytes.Repeat([]byte{0xEE}, 256)
	var z imageInflater
	if err := z.imagePage(buf, r); err != nil {
		t.Fatal(err)
	}
	if string(SlotRead(buf, 0))+string(SlotRead(buf, 1)) != "firstsecond" || !bytes.Equal(buf[off:off+n], make([]byte, n)) {
		t.Fatalf("image laid down as %x", buf)
	}
	r.HoleOff = len(r.Data) + 1
	if err := z.imagePage(buf, r); err == nil || !strings.Contains(err.Error(), "image of page 3 of rel2.idx: hole") {
		t.Fatalf("a hole past the page redid as %v", err)
	}
}
