package trie

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/storage"
)

func newTree(t testing.TB, opts ...Option) *core.Tree {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(8192), 128)
	tr, err := core.Create(bp, New(opts...))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rid(i int) heap.RID { return heap.RID{Page: storage.PageID(1 + i/1000), Slot: uint16(i % 1000)} }

// insertOne inserts one key as a one-key batch, which is what a
// single-row INSERT runs.
func insertOne(t *core.Tree, key core.Value, r heap.RID) error {
	return t.InsertBatch([]core.Value{key}, []heap.RID{r})
}

func randWord(r *rand.Rand, maxLen int) string {
	n := 1 + r.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// buildRandom loads n random words (paper distribution: length uniform in
// [1,15], alphabet a-z) and returns them.
func buildRandom(t testing.TB, tr *core.Tree, n int, seed int64) []string {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	words := make([]string, n)
	for i := 0; i < n; i++ {
		words[i] = randWord(r, 15)
		if err := insertOne(tr, words[i], rid(i)); err != nil {
			t.Fatalf("insert %q: %v", words[i], err)
		}
	}
	return words
}

func lookup(t testing.TB, tr *core.Tree, op, arg string) []heap.RID {
	t.Helper()
	rids, err := tr.Lookup(&core.Query{Op: op, Arg: arg})
	if err != nil {
		t.Fatal(err)
	}
	return rids
}

func TestExactMatchAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	words := buildRandom(t, tr, 5000, 1)
	r := rand.New(rand.NewSource(2))
	probe := func(w string) {
		want := 0
		for _, x := range words {
			if x == w {
				want++
			}
		}
		if got := len(lookup(t, tr, "=", w)); got != want {
			t.Fatalf("= %q: got %d, want %d", w, got, want)
		}
	}
	for i := 0; i < 200; i++ {
		probe(words[r.Intn(len(words))]) // present
		probe(randWord(r, 15))           // mostly absent
	}
}

func TestPrefixMatchAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	words := buildRandom(t, tr, 5000, 3)
	r := rand.New(rand.NewSource(4))
	probe := func(p string) {
		want := 0
		for _, x := range words {
			if strings.HasPrefix(x, p) {
				want++
			}
		}
		if got := len(lookup(t, tr, "#=", p)); got != want {
			t.Fatalf("#= %q: got %d, want %d", p, got, want)
		}
	}
	for i := 0; i < 100; i++ {
		w := words[r.Intn(len(words))]
		probe(w[:1+r.Intn(len(w))])
	}
	probe("") // empty prefix matches everything
	probe("zzzz")
}

func TestRegexMatchAgainstBruteForce(t *testing.T) {
	tr := newTree(t)
	words := buildRandom(t, tr, 5000, 8)
	r := rand.New(rand.NewSource(5))
	probe := func(pat string) {
		want := 0
		for _, x := range words {
			if MatchPattern(x, pat) {
				want++
			}
		}
		if got := len(lookup(t, tr, "?=", pat)); got != want {
			t.Fatalf("?= %q: got %d, want %d", pat, got, want)
		}
	}
	for i := 0; i < 200; i++ {
		// Take a stored word and punch wildcards into random positions,
		// including the leading position the paper calls out as the
		// B+-tree's weakness.
		w := words[r.Intn(len(words))]
		b := []byte(w)
		for j := range b {
			if r.Intn(3) == 0 {
				b[j] = '?'
			}
		}
		probe(string(b))
	}
	probe("?????")
	probe("?")
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		w, p string
		want bool
	}{
		{"random", "random", true},
		{"random", "r?nd?m", true},
		{"random", "?andom", true},
		{"random", "random?", false}, // length mismatch
		{"random", "r?ndoX", false},
		{"", "", true},
		{"a", "?", true},
	}
	for _, c := range cases {
		if got := MatchPattern(c.w, c.p); got != c.want {
			t.Errorf("MatchPattern(%q, %q) = %v, want %v", c.w, c.p, got, c.want)
		}
	}
}

func TestDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "xyz", 3},
		{"abc", "ab", 1},
		{"abc", "abcdef", 3},
		{"", "xyz", 3},
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%q, %q) = %g, want %g", c.a, c.b, got, c.want)
		}
		if got := Distance(c.b, c.a); got != c.want {
			t.Errorf("Distance symmetric (%q, %q) = %g, want %g", c.b, c.a, got, c.want)
		}
	}
}

func TestNNOrderingMatchesBruteForce(t *testing.T) {
	tr := newTree(t)
	words := buildRandom(t, tr, 3000, 6)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		q := randWord(r, 15)
		k := 1 + r.Intn(32)
		keys, _, dists, err := tr.NN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != k {
			t.Fatalf("NN returned %d results, want %d", len(keys), k)
		}
		// Distances must be non-decreasing and correct.
		for i, kv := range keys {
			if got := Distance(kv.(string), q); got != dists[i] {
				t.Fatalf("NN dist mismatch for %q: %g vs %g", kv, dists[i], got)
			}
			if i > 0 && dists[i] < dists[i-1] {
				t.Fatalf("NN order violated at %d: %g < %g", i, dists[i], dists[i-1])
			}
		}
		// The k-th reported distance must equal the brute-force k-th
		// smallest distance.
		all := make([]float64, len(words))
		for i, w := range words {
			all[i] = Distance(w, q)
		}
		sort.Float64s(all)
		for i := range dists {
			if dists[i] != all[i] {
				t.Fatalf("trial %d: NN #%d dist %g, brute force %g (q=%q)", trial, i, dists[i], all[i], q)
			}
		}
	}
}

func TestIncrementalNNCursorIsLazy(t *testing.T) {
	tr := newTree(t)
	buildRandom(t, tr, 2000, 8)
	cur, err := tr.NNScan("hello")
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i := 0; i < 50; i++ {
		_, _, d, ok := cur.Next()
		if !ok {
			t.Fatalf("cursor exhausted after %d results", i)
		}
		if d < prev {
			t.Fatalf("distance regressed: %g after %g", d, prev)
		}
		prev = d
	}
}

func TestDeleteThenSearch(t *testing.T) {
	tr := newTree(t)
	words := buildRandom(t, tr, 2000, 9)
	// Delete every third word.
	deleted := map[int]bool{}
	dead := map[heap.RID]bool{}
	for i := 0; i < len(words); i += 3 {
		deleted[i], dead[rid(i)] = true, true
	}
	if err := tr.BulkDelete(func(r heap.RID) bool { return dead[r] }); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := tr.Scan(nil, func([]byte, heap.RID) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(words)-len(dead) {
		t.Fatalf("full scan after BulkDelete yields %d entries, want %d", n, len(words)-len(dead))
	}
	for i, w := range words {
		rids := lookup(t, tr, "=", w)
		found := false
		for _, rd := range rids {
			if rd == rid(i) {
				found = true
			}
		}
		if deleted[i] && found {
			t.Fatalf("deleted word %q (rid %d) still found", w, i)
		}
		if !deleted[i] && !found {
			t.Fatalf("surviving word %q (rid %d) lost", w, i)
		}
	}
}

func TestPathShrinkProducesShallowTree(t *testing.T) {
	// TreeShrink must collapse the single-child chain of words sharing a
	// long common prefix into few nodes.
	tr := newTree(t, WithBucketSize(2))
	words := []string{
		"internationalization",
		"internationalizing",
		"internationalism",
		"international",
		"internal",
	}
	for i, w := range words {
		if err := insertOne(tr, w, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Without path shrink this tree would be >20 levels deep (one per
	// character); with TreeShrink a handful of nodes suffice.
	if st.MaxNodeHeight > 6 {
		t.Fatalf("path shrink ineffective: height %d", st.MaxNodeHeight)
	}
	for i, w := range words {
		rids := lookup(t, tr, "=", w)
		if len(rids) != 1 || rids[0] != rid(i) {
			t.Fatalf("lookup %q after shrink = %v", w, rids)
		}
	}
}

func TestManyDuplicates(t *testing.T) {
	tr := newTree(t, WithBucketSize(4))
	for i := 0; i < 3000; i++ {
		if err := insertOne(tr, "same", rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(lookup(t, tr, "=", "same")); got != 3000 {
		t.Fatalf("duplicates: got %d, want 3000", got)
	}
	// And they participate in prefix scans.
	if got := len(lookup(t, tr, "#=", "sa")); got != 3000 {
		t.Fatalf("prefix over duplicates: got %d", got)
	}
}

func TestEmptyStringKey(t *testing.T) {
	tr := newTree(t)
	if err := insertOne(tr, "", rid(0)); err != nil {
		t.Fatal(err)
	}
	buildRandom(t, tr, 500, 10)
	if got := len(lookup(t, tr, "=", "")); got != 1 {
		t.Fatalf("empty key: got %d, want 1", got)
	}
}

func TestStatsReflectPaperShape(t *testing.T) {
	tr := newTree(t)
	buildRandom(t, tr, 20000, 11)
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Words are at most 15 chars; with shrinking, node height is bounded
	// by 16 levels.
	if st.MaxNodeHeight > 16 {
		t.Fatalf("node height %d exceeds word-length bound", st.MaxNodeHeight)
	}
	if st.MaxPageHeight > st.MaxNodeHeight {
		t.Fatalf("page height %d > node height %d", st.MaxPageHeight, st.MaxNodeHeight)
	}
	if st.LeafItems != 20000 {
		t.Fatalf("LeafItems = %d", st.LeafItems)
	}
}
