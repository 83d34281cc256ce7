package suffix

import (
	"fmt"
	"math/rand"
	"slices"
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

// rids returns rid(lo) … rid(hi-1).
func rids(lo, hi int) []heap.RID {
	out := make([]heap.RID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, rid(i))
	}
	return out
}

func randWord(r *rand.Rand) string {
	n := 1 + r.Intn(15)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// The tree answers "@=" as a brute-force scan does, built one word per
// call (a single-row INSERT) and in the server's 500-row statements.
func TestSubstringAgainstBruteForce(t *testing.T) {
	for _, batch := range []int{1, 500} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			tr := newTree(t)
			r := rand.New(rand.NewSource(1))
			words := make([]string, 1500)
			for i := range words {
				words[i] = randWord(r)
			}
			for lo := 0; lo < len(words); lo += batch {
				if err := Insert(tr, words[lo:lo+batch], rids(lo, lo+batch)); err != nil {
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
		})
	}
}

// Long words' suffixes go to InsertBatch in calls of at most batchBytes
// suffix bytes, every suffix once and in order; a statement of short
// words goes in as one call.
func TestInsertBatchesBoundBytes(t *testing.T) {
	type call struct {
		keys  []core.Value
		rids  []heap.RID
		bytes int
	}
	expand := func(words []string) []call {
		var calls []call
		err := insertBatches(words, rids(0, len(words)), func(keys []core.Value, rs []heap.RID) error {
			c := call{keys: slices.Clone(keys), rids: slices.Clone(rs)}
			for _, k := range keys {
				c.bytes += len(k.(string))
			}
			calls = append(calls, c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}

	r := rand.New(rand.NewSource(2))
	short := make([]string, 500)
	for i := range short {
		short[i] = randWord(r)
	}
	if calls := expand(short); len(calls) != 1 {
		t.Fatalf("500 short words took %d calls, want 1", len(calls))
	}

	words := []string{"ab", strings.Repeat("x", 3000), "cd", strings.Repeat("y", 2000)}
	calls := expand(words)
	var keys []core.Value
	var got []heap.RID
	for i, c := range calls {
		if c.bytes > batchBytes {
			t.Fatalf("call %d carries %d suffix bytes, bound %d", i, c.bytes, batchBytes)
		}
		keys = append(keys, c.keys...)
		got = append(got, c.rids...)
	}
	var want []core.Value
	var wantRIDs []heap.RID
	for i, w := range words {
		for j := range len(w) {
			want = append(want, w[j:])
			wantRIDs = append(wantRIDs, rid(i))
		}
	}
	if !slices.Equal(keys, want) || !slices.Equal(got, wantRIDs) {
		t.Fatalf("the calls carry %d suffixes, not the %d of the words in order", len(keys), len(want))
	}
	// 4.5 MB + 2 MB of suffixes: at least seven calls.
	if len(calls) < 7 {
		t.Fatalf("%d calls, want at least 7", len(calls))
	}
}

// A word containing the query substring twice must be reported once.
func TestRepeatedSubstringDedup(t *testing.T) {
	tr := newTree(t)
	if err := Insert(tr, []string{"abcabcabc", "xyz"}, rids(0, 2)); err != nil {
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
	if err := Insert(tr, []string{"hello", "yellow"}, rids(0, 2)); err != nil {
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
	if err := Insert(tr, words, rids(0, len(words))); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range words {
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
