package suffix

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/trie"
)

func newTree(t testing.TB, opts ...trie.Option) *core.Tree {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(8192), 128)
	tr, err := core.Create(bp, New(opts...))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rid(i int) heap.RID { return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)} }

func randWord(r *rand.Rand) string {
	n := 1 + r.Intn(15)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestSubstringAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	r := rand.New(rand.NewSource(1))
	words := make([]string, 1500)
	for i := range words {
		words[i] = randWord(r)
		if err := InsertWord(tr, words[i], rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	probe := func(sub string) {
		want := 0
		for _, w := range words {
			if strings.Contains(w, sub) {
				want++
			}
		}
		rids, err := tr.Lookup(SubstringQuery(sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != want {
			t.Fatalf("@= %q: got %d, want %d", sub, len(rids), want)
		}
	}
	for i := 0; i < 100; i++ {
		w := words[r.Intn(len(words))]
		a := r.Intn(len(w))
		b := a + 1 + r.Intn(len(w)-a)
		probe(w[a:b]) // guaranteed present
		probe(randWord(r))
	}
	probe("zqx") // rare trigram
}

// A word containing the query substring twice must be reported once.
func TestRepeatedSubstringDedup(t *testing.T) {
	tr := newTree(t)
	if err := InsertWord(tr, "abcabcabc", rid(0)); err != nil {
		t.Fatal(err)
	}
	if err := InsertWord(tr, "xyz", rid(1)); err != nil {
		t.Fatal(err)
	}
	rids, err := tr.Lookup(SubstringQuery("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0] != rid(0) {
		t.Fatalf("dedup failed: %v", rids)
	}
}

func TestDeleteWord(t *testing.T) {
	tr := newTree(t)
	if err := InsertWord(tr, "hello", rid(0)); err != nil {
		t.Fatal(err)
	}
	if err := InsertWord(tr, "yellow", rid(1)); err != nil {
		t.Fatal(err)
	}
	// The row's entries are its word's suffixes; all of them go.
	if err := tr.BulkDelete(func(r heap.RID) bool { return r == rid(0) }); err != nil {
		t.Fatal(err)
	}
	rids, err := tr.Lookup(SubstringQuery("ell"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0] != rid(1) {
		t.Fatalf("after delete: %v", rids)
	}
	if n := leafItems(t, tr); n != len("yellow") {
		t.Fatalf("%d suffixes stored, want %d", n, len("yellow"))
	}
}

func TestSuffixCountMatchesWordLengths(t *testing.T) {
	tr := newTree(t)
	words := []string{"a", "bb", "ccc", "dddd"}
	total := 0
	for i, w := range words {
		if err := InsertWord(tr, w, rid(i)); err != nil {
			t.Fatal(err)
		}
		total += len(w)
	}
	if n := leafItems(t, tr); n != total {
		t.Fatalf("%d suffixes stored, want %d (one key per suffix)", n, total)
	}
}

// leafItems returns how many entries tr stores: one per suffix.
func leafItems(t testing.TB, tr *core.Tree) int {
	t.Helper()
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.LeafItems
}
