package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// fullPage returns a DefaultPageSize slotted page holding rec(0), rec(1), …
// until the next record does not fit.
func fullPage(rec func(i int) []byte) []byte {
	page := make([]byte, DefaultPageSize)
	SlotInit(page)
	for i := 0; ; i++ {
		if _, ok := SlotInsert(page, rec(i)); !ok {
			return page
		}
	}
}

// heapTuple is a versioned heap tuple as the benchmark's words table holds
// them: an 18-byte MVCC header, then an 8-digit key and an integer.
func heapTuple(i int) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(1000+i)) // xmin
	b = binary.LittleEndian.AppendUint64(b, 0)                 // xmax
	b = binary.LittleEndian.AppendUint16(b, 0)                 // flags
	b = append(b, 0, 8)
	b = fmt.Appendf(b, "%08d", i*7919%100_000_000)
	return binary.LittleEndian.AppendUint64(b, uint64(i))
}

// trieNode is an SP-GiST inner node of a trie: a prefix and a few
// (label, child page, child slot) entries.
func trieNode(i int) []byte {
	b := fmt.Appendf([]byte{1, byte(i % 7)}, "%04d", i)
	for c := 0; c < 4; c++ {
		b = append(b, byte('0'+c))
		b = binary.LittleEndian.AppendUint32(b, uint32(1+i/50))
		b = binary.LittleEndian.AppendUint16(b, uint16(i*4+c))
	}
	return b
}

// imageLog writes an image of page — its hole left out as the buffer pool
// leaves it out — as the one record of a fresh log in dir. It returns the
// record decoded back, the log's one segment file, and the writer's
// statistics.
func imageLog(tb testing.TB, dir, file string, id uint32, page []byte) (*wal.Record, []byte, wal.Stats) {
	tb.Helper()
	w, err := wal.OpenWriter(dir, wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	g := wal.NewGroup()
	addImage(g, file, id, page)
	if _, err := w.AppendGroup(g); err != nil {
		tb.Fatal(err)
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	var rec *wal.Record
	if _, err := wal.Replay(dir, func(r *wal.Record) error {
		rec = r
		return nil
	}); err != nil || rec == nil {
		tb.Fatalf("the log replays to %v, %v", rec, err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		tb.Fatalf("the log has segments %v (%v), want one", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return rec, seg, st
}

// rawImageRecord is how a page image is encoded unflagged: type, body
// length, relation named, page, hole, and the bytes around the hole.
func rawImageRecord(file string, id uint32, page []byte, off, n int) []byte {
	body := binary.AppendUvarint(nil, uint64(len(file))+1)
	body = append(body, file...)
	body = binary.AppendUvarint(body, uint64(id))
	body = binary.LittleEndian.AppendUint16(body, uint16(off))
	body = binary.LittleEndian.AppendUint16(body, uint16(n))
	body = append(body, page[:off]...)
	body = append(body, page[off+n:]...)
	return append(binary.AppendUvarint([]byte{byte(wal.RecPageImage)}, uint64(len(body))), body...)
}

// TestDeflatedImageRoundTrip: an image logged by AddPageImage, decoded
// and laid down by redo is the page imaged, its hole zeroed. The images of
// a full heap page and a full trie page are stored deflated and smaller;
// a fresh page's and a meta page's, under 1 KB, and a random page's,
// which does not shrink, are stored unflagged in exactly the encoding an
// image had before images were deflated. The writer counts what the
// images would have taken raw.
func TestDeflatedImageRoundTrip(t *testing.T) {
	fresh := make([]byte, DefaultPageSize)
	SlotInit(fresh)
	meta := slottedPage(DefaultPageSize, "heap meta: count 40000, last page 311")
	random := make([]byte, DefaultPageSize)
	rand.New(rand.NewSource(31)).Read(random)
	for _, c := range []struct {
		name     string
		page     []byte
		deflated bool
	}{
		{"full heap page", fullPage(heapTuple), true},
		{"full trie page", fullPage(trieNode), true},
		{"fresh page", fresh, false},
		{"meta page", meta, false},
		{"random page", random, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, seg, st := imageLog(t, t.TempDir(), "rel2.idx", 7, c.page)
			off, n := pageHole(c.page)
			if r.Deflated != c.deflated || r.HoleOff != off || r.HoleLen != n {
				t.Fatalf("image stored with deflated=%v hole [%d, +%d), want %v [%d, +%d)", r.Deflated, r.HoleOff, r.HoleLen, c.deflated, off, n)
			}
			stored, raw := st.ByType[wal.RecPageImage].Bytes, st.PageImageRawBytes
			if c.deflated {
				if len(r.Data) >= len(c.page)-n || raw <= stored {
					t.Fatalf("deflated image of %d bytes for %d raw; %d record bytes counted %d raw", len(r.Data), len(c.page)-n, stored, raw)
				}
				t.Logf("%d image bytes deflated to %d; %d record bytes, %d raw", len(c.page)-n, len(r.Data), stored, raw)
			} else {
				if want := rawImageRecord("rel2.idx", 7, c.page, off, n); !bytes.HasSuffix(seg, want) {
					t.Fatalf("the log does not end in the raw image record %x…", want[:16])
				}
				if raw != stored {
					t.Fatalf("%d record bytes counted %d raw", stored, raw)
				}
			}
			want := append([]byte(nil), c.page...)
			clear(want[off : off+n])
			got := bytes.Repeat([]byte{0xEE}, len(c.page))
			var z imageInflater
			if err := z.imagePage(got, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the page redo laid down differs from the page imaged")
			}
		})
	}
}

// TestTornPageRepairedFromDeflatedImage: a page torn at the crash whose
// only license to be rebuilt is a deflated image — the log holds no
// creation record of its file — is rebuilt exactly: the image inflated,
// the record behind it applied.
func TestTornPageRepairedFromDeflatedImage(t *testing.T) {
	dataDir := t.TempDir()
	walDir := filepath.Join(dataDir, "wal")
	const file = "rel1.tbl"
	page := fullPage(heapTuple)
	w := openMarkedWAL(t, walDir, wal.Options{})
	g := wal.NewGroup()
	g.AddSlotPut(file, 1, 0, []byte("overwritten by the image"))
	addImage(g, file, 1, page)
	g.AddSlotDelete(file, 1, 3)
	if _, _, err := w.AppendGroupCommit(g); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deflated := 0
	if _, err := wal.Replay(walDir, func(r *wal.Record) error {
		if r.Type == wal.RecFileCreate {
			t.Fatalf("the log creates %s", r.File)
		}
		if r.Type == wal.RecPageImage && r.Deflated {
			deflated++
		}
		return nil
	}); err != nil || deflated != 1 {
		t.Fatalf("the log holds %d deflated images (%v), want 1", deflated, err)
	}
	dm, err := OpenFile(filepath.Join(dataDir, file), DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := dm.AllocatePage(); err != nil {
			t.Fatal(err)
		}
	}
	torn := append(bytes.Repeat([]byte{0xEE}, DefaultPageSize/2), make([]byte, DefaultPageSize/2)...)
	if err := dm.WritePage(1, torn); err != nil {
		t.Fatal(err)
	}
	dm.Close()

	st, err := RecoverDir(dataDir, walDir, DefaultPageSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornPages != 1 || st.TornRepaired != 1 || st.PageImages != 1 || st.SlotDeletes != 1 {
		t.Fatalf("recovery stats %+v, want 1 torn page repaired, 1 image, 1 delete", st)
	}
	dm, err = OpenFile(filepath.Join(dataDir, file), DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	got := make([]byte, DefaultPageSize)
	if err := dm.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), page...)
	off, n := pageHole(page)
	clear(want[off : off+n])
	SlotDelete(want, 3)
	SetPageLSN(want, PageLSN(got))
	StampPageChecksum(want)
	if !bytes.Equal(got, want) {
		t.Fatal("the repaired page differs from the image with the delete applied")
	}
}

// reseal makes the frame that seg opens with span all of seg, its size and
// checksum set to match, so that whatever seg's records hold reaches the
// record decoder and redo.
func reseal(seg []byte) {
	if len(seg) > 16 {
		binary.LittleEndian.PutUint32(seg, uint32(len(seg)-16))
		binary.LittleEndian.PutUint32(seg[4:], crc32.Checksum(seg[8:], castagnoliTable))
	}
}

// FuzzImageRedo: whatever a page image in the log holds, redo lays down
// exactly the page or returns an error. It never panics, never writes
// past the page, and inflates no stream further than one page: a deflated
// image must inflate to exactly the page less its hole, with nothing
// after the stream's end. Each input is a log segment of one frame,
// resealed under a matching checksum. The seeds are images of a full heap
// page, a full trie page and a meta page; the heap image with one bit
// flipped at each of 48 places in its deflated bytes; deflated images one
// byte short of the page and one byte over; and a 4 MB page of zeros,
// which deflates to a few KB. `go test` runs the seeds, `go test -fuzz`
// explores.
func FuzzImageRedo(f *testing.F) {
	// seed adds the segment of a log holding one image of page and returns
	// it with the image record decoded back; the record's stored image
	// ends the segment.
	seed := func(page []byte) ([]byte, *wal.Record) {
		r, seg, _ := imageLog(f, f.TempDir(), "rel1.tbl", 1, page)
		f.Add(seg)
		return seg, r
	}
	heapSeg, heap := seed(fullPage(heapTuple))
	seed(fullPage(trieNode))
	seed(slottedPage(DefaultPageSize, "meta"))
	if !heap.Deflated {
		f.Fatal("the seed image of a full heap page is not deflated")
	}
	for i, z := 0, len(heap.Data); i < 48; i++ {
		flipped := append([]byte(nil), heapSeg...)
		flipped[len(flipped)-z+i*z/48] ^= 1 << (i % 8)
		reseal(flipped)
		f.Add(flipped)
	}
	// Pages whose header names no gap have no hole.
	text := bytes.Repeat([]byte("text that deflates "), DefaultPageSize/19+1)
	seed(text[:DefaultPageSize-1])
	seed(text[:DefaultPageSize+1])
	bomb := make([]byte, 4<<20)
	bomb[len(bomb)-1] = 1
	seed(bomb)

	f.Fuzz(func(t *testing.T, seg []byte) {
		reseal(seg)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var z imageInflater
		// A frame the mutation left undecodable is an error or a torn
		// tail; either is fine, as long as nothing panics.
		_, _ = wal.Replay(dir, func(r *wal.Record) error {
			if r.Type != wal.RecPageImage {
				return nil
			}
			mem := bytes.Repeat([]byte{0xA5}, 2*DefaultPageSize)
			err := z.imagePage(mem[:DefaultPageSize:DefaultPageSize], r)
			if !bytes.Equal(mem[DefaultPageSize:], bytes.Repeat([]byte{0xA5}, DefaultPageSize)) {
				t.Fatal("redo wrote past the page")
			}
			if !r.Deflated {
				return nil
			}
			// The reference: the whole stream, inflated up to 1 MB.
			src := bytes.NewReader(r.Data)
			out, rerr := io.ReadAll(io.LimitReader(flate.NewReader(src), 1<<20))
			want := DefaultPageSize - r.HoleLen
			exact := rerr == nil && len(out) == want && src.Len() == 0 && r.HoleOff <= want
			if exact != (err == nil) {
				t.Fatalf("the stream inflates to %d bytes (%v, %d bytes after it) for %d around a hole at %d; redo returned %v", len(out), rerr, src.Len(), want, r.HoleOff, err)
			}
			if err == nil && (!bytes.Equal(mem[:r.HoleOff], out[:r.HoleOff]) || !bytes.Equal(mem[r.HoleOff+r.HoleLen:DefaultPageSize], out[r.HoleOff:])) {
				t.Fatal("redo laid down other bytes than the stream holds")
			}
			if len(out) == 1<<20 && z.src.Len() == 0 {
				t.Fatal("redo inflated all of a stream of a megabyte or more")
			}
			return nil
		})
	})
}
