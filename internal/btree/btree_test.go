package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/trie"
)

func newTree(t testing.TB, pageSize int) *Tree {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(pageSize), 128)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rid(i int) heap.RID { return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)} }

// insertOne inserts one key as a one-key batch, which is what a
// single-row INSERT runs.
func insertOne(t *Tree, key []byte, r heap.RID) error {
	return t.InsertBatch([]Pair{{Key: key, RID: r}})
}

func randWord(r *rand.Rand) string {
	n := 1 + r.Intn(15)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func collect(t testing.TB, tr *Tree, key string) []heap.RID {
	t.Helper()
	var rids []heap.RID
	if err := tr.Search([]byte(key), func(r heap.RID) bool { rids = append(rids, r); return true }); err != nil {
		t.Fatal(err)
	}
	return rids
}

// scanCount returns how many pairs a full range scan of tr yields.
func scanCount(t testing.TB, tr *Tree) int {
	t.Helper()
	n := 0
	if err := tr.RangeScan(nil, nil, func([]byte, heap.RID) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInsertSearchSmallPages(t *testing.T) {
	// Small pages force deep trees and many splits.
	tr := newTree(t, 256)
	r := rand.New(rand.NewSource(1))
	words := map[string]int{}
	for i := 0; i < 3000; i++ {
		w := randWord(r)
		if err := insertOne(tr, []byte(w), rid(i)); err != nil {
			t.Fatalf("insert %q: %v", w, err)
		}
		words[w]++
	}
	for w, n := range words {
		if got := len(collect(t, tr, w)); got != n {
			t.Fatalf("search %q: got %d, want %d", w, got, n)
		}
	}
	if got := len(collect(t, tr, "NOPE")); got != 0 {
		t.Fatalf("absent key found %d times", got)
	}
	if tr.Height() < 3 {
		t.Fatalf("expected deep tree with 256B pages, height=%d", tr.Height())
	}
}

func TestSortedOrderInvariant(t *testing.T) {
	tr := newTree(t, 512)
	r := rand.New(rand.NewSource(2))
	var words []string
	for i := 0; i < 2000; i++ {
		w := randWord(r)
		words = append(words, w)
		insertOne(tr, []byte(w), rid(i))
	}
	sort.Strings(words)
	var got []string
	err := tr.RangeScan(nil, nil, func(key []byte, _ heap.RID) bool {
		got = append(got, string(key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(words) {
		t.Fatalf("full scan saw %d, want %d", len(got), len(words))
	}
	for i := range got {
		if got[i] != words[i] {
			t.Fatalf("order violated at %d: %q vs %q", i, got[i], words[i])
		}
	}
}

func TestRangeScanAgainstBruteForce(t *testing.T) {
	tr := newTree(t, 512)
	r := rand.New(rand.NewSource(3))
	var words []string
	for i := 0; i < 2000; i++ {
		w := randWord(r)
		words = append(words, w)
		insertOne(tr, []byte(w), rid(i))
	}
	for trial := 0; trial < 50; trial++ {
		lo := randWord(r)
		hi := randWord(r)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for _, w := range words {
			if w >= lo && w <= hi {
				want++
			}
		}
		got := 0
		err := tr.RangeScan([]byte(lo), []byte(hi), func(_ []byte, _ heap.RID) bool {
			got++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("range [%q,%q]: got %d, want %d", lo, hi, got, want)
		}
	}
}

func TestPrefixScanAgainstBruteForce(t *testing.T) {
	tr := newTree(t, 512)
	r := rand.New(rand.NewSource(4))
	var words []string
	for i := 0; i < 2000; i++ {
		w := randWord(r)
		words = append(words, w)
		insertOne(tr, []byte(w), rid(i))
	}
	probe := func(p string) {
		want := 0
		for _, w := range words {
			if strings.HasPrefix(w, p) {
				want++
			}
		}
		got := 0
		if err := tr.PrefixScan([]byte(p), func(_ []byte, _ heap.RID) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("prefix %q: got %d, want %d", p, got, want)
		}
	}
	for i := 0; i < 50; i++ {
		w := words[r.Intn(len(words))]
		probe(w[:1+r.Intn(len(w))])
	}
	probe("")
}

func TestMatchScanWildcard(t *testing.T) {
	tr := newTree(t, 512)
	r := rand.New(rand.NewSource(5))
	var words []string
	for i := 0; i < 2000; i++ {
		w := randWord(r)
		words = append(words, w)
		insertOne(tr, []byte(w), rid(i))
	}
	probe := func(pat string) {
		want := 0
		for _, w := range words {
			if trie.MatchPattern(w, pat) {
				want++
			}
		}
		got := 0
		err := tr.MatchScan(pat, trie.MatchPattern, func(_ []byte, _ heap.RID) bool { got++; return true })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("match %q: got %d, want %d", pat, got, want)
		}
	}
	for i := 0; i < 50; i++ {
		w := words[r.Intn(len(words))]
		b := []byte(w)
		for j := range b {
			if r.Intn(3) == 0 {
				b[j] = '?'
			}
		}
		probe(string(b))
	}
	probe("???") // leading wildcard: full scan path
	probe("?bc?")
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   string
		want []byte
	}{
		{"abc", []byte("abd")},
		{"az", []byte("a{")}, // byte-wise: 'z'+1 = '{'
		{"", nil},
	}
	for _, c := range cases {
		got := PrefixSuccessor([]byte(c.in))
		if !bytes.Equal(got, c.want) && !(got == nil && c.want == nil) {
			t.Errorf("PrefixSuccessor(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := PrefixSuccessor([]byte{0xFF, 0xFF}); got != nil {
		t.Errorf("PrefixSuccessor(all-FF) = %q, want nil", got)
	}
	if got := PrefixSuccessor([]byte{'a', 0xFF}); !bytes.Equal(got, []byte{'b'}) {
		t.Errorf("PrefixSuccessor(a\\xff) = %q, want b", got)
	}
}

func TestDuplicatesAcrossSplits(t *testing.T) {
	tr := newTree(t, 256)
	// Enough duplicates to span several leaves.
	for i := 0; i < 500; i++ {
		if err := insertOne(tr, []byte("dup"), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Surround them with other keys.
	for i := 0; i < 500; i++ {
		insertOne(tr, []byte(fmt.Sprintf("a%03d", i)), rid(1000+i))
		insertOne(tr, []byte(fmt.Sprintf("z%03d", i)), rid(2000+i))
	}
	if got := len(collect(t, tr, "dup")); got != 500 {
		t.Fatalf("duplicates: got %d, want 500", got)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 512)
	r := rand.New(rand.NewSource(6))
	var words []string
	for i := 0; i < 1000; i++ {
		w := randWord(r)
		words = append(words, w)
		insertOne(tr, []byte(w), rid(i))
	}
	// Every third row goes, from every leaf, in one pass.
	if err := tr.BulkDelete(func(r heap.RID) bool { return r.Slot%3 == 0 }); err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		found := slices.Contains(collect(t, tr, w), rid(i))
		if found == (i%3 == 0) {
			t.Fatalf("row %d (%q): found = %v after deleting every third row", i, w, found)
		}
	}
	if n := scanCount(t, tr); n != 666 {
		t.Fatalf("full scan yields %d pairs, want 666", n)
	}
}

func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "btree.dat")
	dm, err := storage.OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool("", dm, 64)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		insertOne(tr, []byte(fmt.Sprintf("key%04d", i)), rid(i))
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}

	dm2, _ := storage.OpenFile(path, 512)
	bp2 := storage.NewBufferPool("", dm2, 64)
	tr2, err := Open(bp2)
	if err != nil {
		t.Fatal(err)
	}
	defer bp2.Close()
	if n := scanCount(t, tr2); n != 500 {
		t.Fatalf("full scan after reopen yields %d pairs", n)
	}
	for i := 0; i < 500; i++ {
		if got := len(collect(t, tr2, fmt.Sprintf("key%04d", i))); got != 1 {
			t.Fatalf("key%04d found %d times after reopen", i, got)
		}
	}
}

func TestEarlyStopScan(t *testing.T) {
	tr := newTree(t, 512)
	for i := 0; i < 100; i++ {
		insertOne(tr, []byte(fmt.Sprintf("k%02d", i)), rid(i))
	}
	n := 0
	tr.RangeScan(nil, nil, func(_ []byte, _ heap.RID) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}
