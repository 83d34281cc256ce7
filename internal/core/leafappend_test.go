package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/storage"
)

// checkLeafAppend holds appendLeafItem to the insertion's leaf arm as it
// was before it worked on the record where it lies — decode, append the
// item, encode — on one byte string, whatever it is: a record leafHeader
// accepts is a data node with that link and that many items, and the two
// appends agree byte for byte; a record it refuses is no data node that
// decodeNode (which reads data nodes through it) hands out.
func checkLeafAppend(t *testing.T, what string, rec, key []byte, rid heap.RID) {
	t.Helper()
	before := append([]byte(nil), rec...)
	next, cnt, err := leafHeader(rec)
	n, decErr := decodeNode(rec)
	if err != nil {
		if decErr == nil && n.leaf {
			t.Fatalf("%s: leafHeader refuses %x (%v), decodeNode hands it out", what, rec, err)
		}
	} else {
		if decErr != nil || !n.leaf || n.next != next || len(n.items) != cnt {
			t.Fatalf("%s: leafHeader read next %v count %d off %x, decodeNode %+v (%v)", what, next, cnt, rec, n, decErr)
		}
		n.items = append(n.items, item{key: key, rid: rid})
		if got, want := appendLeafItem(rec, key, rid), n.encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: append in place gives\n%x, decode-append-encode\n%x", what, got, want)
		}
	}
	if !bytes.Equal(rec, before) {
		t.Fatalf("%s: the record itself was written to", what)
	}
}

// TestLeafAppendMatchesDecodeAppendEncode: over random data nodes — empty,
// at and past any bucket size, chained, with empty and long keys — the
// record appendLeafItem builds is the record decodeNode → append → encode
// builds; over every truncation, every single-byte corruption of a header
// or length field, stray tails and random bytes, the walk errors or the
// appends agree, and nothing panics.
func TestLeafAppendMatchesDecodeAppendEncode(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	randRID := func() heap.RID {
		return heap.RID{Page: storage.PageID(r.Uint32()), Slot: uint16(r.Intn(1 << 16))}
	}
	for round := 0; round < 300; round++ {
		n := &node{leaf: true, next: InvalidRef}
		if r.Intn(3) == 0 { // a chained node
			n.next = NodeRef{Page: storage.PageID(1 + r.Intn(1000)), Slot: uint16(r.Intn(500))}
		}
		for i, cnt := 0, []int{0, 1, 4, 5, 40}[r.Intn(5)]; i < cnt; i++ {
			n.items = append(n.items, item{key: randBytes([]int{0, 1, 8, 20}[r.Intn(4)]), rid: randRID()})
		}
		rec := n.encode()
		key, rid := randBytes(r.Intn(24)), randRID()
		checkLeafAppend(t, "well-formed node", rec, key, rid)
		if _, _, err := leafHeader(rec); err != nil {
			t.Fatalf("leafHeader refuses an encoded node: %v", err)
		}

		for cut := 0; cut < len(rec); cut++ {
			if _, _, err := leafHeader(rec[:cut]); err == nil {
				t.Fatalf("leafHeader accepts %d of the %d bytes of a %d-item node", cut, len(rec), len(n.items))
			}
			checkLeafAppend(t, "truncated node", rec[:cut], key, rid)
		}
		stray := append(append([]byte(nil), rec...), randBytes(1+r.Intn(8))...)
		if _, _, err := leafHeader(stray); err == nil || !strings.Contains(err.Error(), "stray bytes") {
			t.Fatalf("leafHeader on a node with a stray tail: %v", err)
		}
		checkLeafAppend(t, "node with a stray tail", stray, key, rid)

		// One corrupted byte: kind, count, or an item's length field.
		fields := []int{0, 1 + refSize, 2 + refSize}
		for off, i := leafHeaderSize, 0; i < len(n.items); i++ {
			fields = append(fields, off, off+1)
			off += leafItemExtra + len(n.items[i].key)
		}
		for _, f := range fields {
			bad := append([]byte(nil), rec...)
			bad[f] ^= byte(1 + r.Intn(255))
			checkLeafAppend(t, "node with a corrupt field", bad, key, rid)
		}
		junk := randBytes(r.Intn(64))
		if len(junk) > 0 && r.Intn(2) == 0 {
			junk[0] = nodeKindLeaf
		}
		checkLeafAppend(t, "random bytes", junk, key, rid)
	}
}

// longKeyPagesDigest is the SHA-256 of pages 1.. of the tree that
// TestInsertIntoLeafCases' long-key case builds, recorded at commit 223f0a7
// (the decode / re-encode leaf arm). That commit placed relocated nodes in
// map order and built one of two files from these insertions; this is the
// one lowest-page-first placement gives.
const longKeyPagesDigest = "c27a633c13efcdcd3ce39e35be4b380367302e75ce3cdc0d893bc09db7081cfa"

// limitedTrie is testTrie with a resolution limit: past two characters a
// cell is not decomposed further, however many keys it holds.
type limitedTrie struct{ testTrie }

func (limitedTrie) Params() Params {
	p := testTrie{}.Params()
	p.Resolution = 2
	return p
}

// checkTreeBytes walks every page of tr: each node record must be in
// canonical form (decoding and re-encoding it gives the same bytes, and a
// data node passes leafHeader), and the free-space figure the tree carries
// forward from write to write must be what a walk of the page finds.
func checkTreeBytes(t *testing.T, tr *Tree) {
	t.Helper()
	for pid := storage.PageID(1); uint32(pid) < tr.NumPages(); pid++ {
		p, err := tr.bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		storage.SlotForEach(p.Data, func(slot int, rec []byte) bool {
			n, err := decodeNode(rec)
			if err != nil {
				t.Fatalf("node (%d.%d): %v", pid, slot, err)
			}
			if !bytes.Equal(n.encode(), rec) {
				t.Fatalf("node (%d.%d) is not what encoding its decoded form gives", pid, slot)
			}
			if n.leaf {
				if _, _, err := leafHeader(rec); err != nil {
					t.Fatalf("data node (%d.%d): %v", pid, slot, err)
				}
			}
			return true
		})
		free := storage.SlotFreeSpace(p.Data)
		tr.bp.Unpin(p, false)
		if got, ok := tr.free.Free(pid); !ok || got != free {
			t.Fatalf("page %d: the tree believes %d bytes free (known %v), the page has %d", pid, got, ok, free)
		}
	}
}

// TestInsertIntoLeafCases drives the leaf arm through each of its
// decisions — room in the bucket, a full bucket that splits, a node of
// indistinguishable keys that outgrows one record and chains, a bucket of
// long keys that chains before it is full and still splits at its size, a
// cell at the resolution limit that grows past its bucket — and checks what is
// found afterwards and the bytes left on the pages.
func TestInsertIntoLeafCases(t *testing.T) {
	lookup := func(tr *Tree, key string) int {
		t.Helper()
		rids, err := tr.Lookup(&Query{Op: "=", Arg: key})
		if err != nil {
			t.Fatal(err)
		}
		return len(rids)
	}
	chained := func(tr *Tree) int {
		t.Helper()
		heads := 0
		if err := tr.walk(func(_ NodeRef, v *nodeView, _, _ int) bool {
			if v.leaf && v.next().Valid() {
				heads++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return heads
	}
	t.Run("bucket fills then splits", func(t *testing.T) {
		tr := newTestTree(t)
		words := []string{"ab", "ac", "ad", "aa", "abc"} // bucket size 4
		for i, w := range words {
			if err := insertOne(tr, w, rid(i)); err != nil {
				t.Fatal(err)
			}
			st, err := tr.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if split := st.InnerNodes > 0; split != (i == 4) {
				t.Fatalf("after %d keys the tree has %d inner nodes", i+1, st.InnerNodes)
			}
		}
		for _, w := range words {
			if lookup(tr, w) != 1 {
				t.Fatalf("%q not found exactly once after the split", w)
			}
		}
		checkTreeBytes(t, tr)
	})
	t.Run("indistinguishable keys chain", func(t *testing.T) {
		tr := newTestTree(t) // 1 KB pages: ~80 items of "abab" fill a record
		for i := 0; i < 400; i++ {
			if err := insertOne(tr, "abab", rid(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := lookup(tr, "abab"); got != 400 {
			t.Fatalf("found %d of 400 duplicates", got)
		}
		if chained(tr) == 0 {
			t.Fatal("400 duplicates on 1 KB pages did not chain")
		}
		checkTreeBytes(t, tr)
	})
	t.Run("long keys chain below the bucket size and still split", func(t *testing.T) {
		// 1 KB pages, bucket size 4: three 300-byte keys fill a record, so
		// the fourth chains a bucket that is not yet full. The bucket is
		// full by its items, not by what its head record holds.
		tr := newTestTree(t)
		long := func(head string) string { return head + strings.Repeat("c", 300) }
		words := []string{long("a"), long("b"), long("c"), long("d"), long("ab"), long("bb"), long("ba"), long("bc"), long("bd")}
		for i, w := range words {
			if err := insertOne(tr, w, rid(i)); err != nil {
				t.Fatal(err)
			}
			st, err := tr.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if (i == 3 || i == 7) && chained(tr) != 1 {
				t.Fatalf("four 300-byte keys in one bucket on a 1 KB page did not chain (key %d)", i+1)
			}
			want := 0 // the fifth key splits the root bucket, the ninth the "b" bucket
			if i >= 8 {
				want = 2
			} else if i >= 4 {
				want = 1
			}
			if st.InnerNodes != want {
				t.Fatalf("after %d keys the tree has %d inner nodes, want %d", i+1, st.InnerNodes, want)
			}
		}
		for _, w := range words {
			if lookup(tr, w) != 1 {
				t.Fatalf("a long key is not found exactly once")
			}
		}
		checkTreeBytes(t, tr)
		// The pages are those the decode / re-encode leaf arm built.
		h := sha256.New()
		for pid := storage.PageID(1); uint32(pid) < tr.NumPages(); pid++ {
			p, err := tr.bp.Fetch(pid)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(p.Data)
			tr.bp.Unpin(p, false)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != longKeyPagesDigest {
			t.Fatalf("%d pages with digest %s, want %s", tr.NumPages(), got, longKeyPagesDigest)
		}
	})
	t.Run("resolution limit", func(t *testing.T) {
		bp := storage.NewBufferPool("", storage.NewMem(1024), 64)
		tr, err := Create(bp, limitedTrie{})
		if err != nil {
			t.Fatal(err)
		}
		words := []string{"abaa", "abab", "abac", "abad", "abba", "abbb", "abbc", "abbd", "abca"}
		for i, w := range words {
			if err := insertOne(tr, w, rid(i)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxNodeHeight > 3 {
			t.Fatalf("the tree decomposed past its resolution: node height %d", st.MaxNodeHeight)
		}
		for _, w := range words {
			if lookup(tr, w) != 1 {
				t.Fatalf("%q not found exactly once", w)
			}
		}
		checkTreeBytes(t, tr)
	})
	t.Run("corrupt node is refused and left alone", func(t *testing.T) {
		tr := newTestTree(t)
		if err := insertOne(tr, "ab", rid(0)); err != nil {
			t.Fatal(err)
		}
		corrupt := func(mutate func(rec []byte)) []byte {
			p, err := tr.bp.Fetch(tr.root.Page)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.bp.Unpin(p, true)
			mutate(storage.SlotRead(p.Data, int(tr.root.Slot)))
			return append([]byte(nil), p.Data...)
		}
		// The count claims an item the record does not hold.
		page := corrupt(func(rec []byte) { binary.LittleEndian.PutUint16(rec[1+refSize:], 2) })
		err := insertOne(tr, "ac", rid(1))
		if err == nil || !strings.Contains(err.Error(), "truncated leaf item") {
			t.Fatalf("insert into a node whose count overstates its items: %v", err)
		}
		after := corrupt(func([]byte) {})
		if !bytes.Equal(page, after) {
			t.Fatal("the refused insert wrote to the page")
		}
	})
}

// TestEqualInsertionsBuildEqualFiles: two trees fed the same insertions
// are the same bytes, page for page — placement consults nothing that
// varies from run to run (a relocated node goes to the lowest-numbered
// page with room, not to whichever a map iteration offers first).
func TestEqualInsertionsBuildEqualFiles(t *testing.T) {
	choices := 0 // insertions made while more than one listed page stood by
	build := func() *Tree {
		bp := storage.NewBufferPool("", storage.NewMem(1024), 256)
		tr, err := Create(bp, testTrie{})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 4000; i++ {
			if tr.free.Listed() > 3 { // beyond the preferred and the last-allocated page
				choices++
			}
			if err := insertOne(tr, randWord(r), rid(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	a, b := build(), build()
	if a.NumPages() != b.NumPages() || a.root != b.root {
		t.Fatalf("%d pages, root %v against %d pages, root %v", a.NumPages(), a.root, b.NumPages(), b.root)
	}
	if choices < 20 {
		t.Fatalf("only %d insertions ran with several listed pages: the fixture never offers placement a choice", choices)
	}
	for pid := storage.PageID(0); uint32(pid) < a.NumPages(); pid++ {
		pa, err := a.bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(pa.Data, pb.Data)
		a.bp.Unpin(pa, false)
		b.bp.Unpin(pb, false)
		if !same {
			t.Fatalf("page %d differs between two builds from the same insertions", pid)
		}
	}
	checkTreeBytes(t, a)
}
