package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/storage"
)

// testTrie is a minimal SP-GiST opclass used to exercise the framework's
// internal methods in isolation: a plain (non-shrinking) trie over short
// strings drawn from the alphabet a..d, with lazily added partitions
// (NodeShrink=true) and a bucket of 4. The blank label 0xFF marks "key
// ends here", as in Table 1 of the paper.
type testTrie struct{}

const blankLabel = byte(0xFF)

func (testTrie) Name() string { return "test_trie" }
func (testTrie) Params() Params {
	return Params{
		NumPartitions: 5,
		PathShrink:    NeverShrink,
		NodeShrink:    true,
		BucketSize:    4,
	}
}
func (testTrie) RootRecon() Value           { return "" }
func (testTrie) EncodeKey(v Value) []byte   { return []byte(v.(string)) }
func (testTrie) DecodeKey(b []byte) Value   { return string(b) }
func (testTrie) EncodePred(v Value) []byte  { return []byte(v.(string)) }
func (testTrie) EncodeLabel(v Value) []byte { return []byte{v.(byte)} }

// labelAt reads partition i's one-byte label; a label of any other length
// (FuzzNodeView feeds some) reads as one no key is routed to.
func labelAt(ls Labels, i int) byte {
	if l := ls.At(i); len(l) == 1 {
		return l[0]
	}
	return 0xFE
}

func (o testTrie) Choose(in *ChooseIn) ChooseOut {
	key := in.Key.(string)
	var want byte
	if in.Level >= len(key) {
		want = blankLabel
	} else {
		want = key[in.Level]
	}
	for i := 0; i < in.Labels.Len(); i++ {
		if labelAt(in.Labels, i) == want {
			recon := in.Recon.(string)
			if want != blankLabel {
				recon += string(want)
			}
			return ChooseOut{Action: MatchNode, Matches: []ChooseMatch{{Entry: i, LevelAdd: 1, Recon: recon}}}
		}
	}
	return ChooseOut{Action: AddNode, NewLabel: want}
}

func (o testTrie) PickSplit(in *PickSplitIn) PickSplitOut {
	var labels []byte
	idx := map[byte]int{}
	mapping := make([][]int, len(in.Keys))
	allBlank := true
	for i, kv := range in.Keys {
		key := kv.(string)
		var lb byte
		if in.Level >= len(key) {
			lb = blankLabel
		} else {
			lb = key[in.Level]
			allBlank = false
		}
		p, ok := idx[lb]
		if !ok {
			p = len(labels)
			idx[lb] = p
			labels = append(labels, lb)
		}
		mapping[i] = []int{p}
	}
	if allBlank {
		return PickSplitOut{Failed: true} // duplicates: cannot distinguish
	}
	out := PickSplitOut{
		Labels:    make([]Value, len(labels)),
		Mapping:   mapping,
		LevelAdds: make([]int, len(labels)),
		Recons:    make([]Value, len(labels)),
	}
	recon, _ := in.Recon.(string)
	for p, lb := range labels {
		out.Labels[p] = lb
		out.LevelAdds[p] = 1
		if lb == blankLabel {
			out.Recons[p] = recon
		} else {
			out.Recons[p] = recon + string(lb)
		}
	}
	return out
}

func (o testTrie) InnerConsistent(in *InnerIn, out *InnerOut) {
	follow := func(i int) {
		out.Follow = append(out.Follow, InnerFollow{Entry: i, LevelAdd: 1})
	}
	if in.Query == nil {
		for i := 0; i < in.Labels.Len(); i++ {
			follow(i)
		}
		return
	}
	q := in.Query.Arg.(string)
	switch in.Query.Op {
	case "=":
		var want byte
		if in.Level >= len(q) {
			want = blankLabel
		} else {
			want = q[in.Level]
		}
		for i := 0; i < in.Labels.Len(); i++ {
			if labelAt(in.Labels, i) == want {
				follow(i)
			}
		}
	case "pfx":
		for i := 0; i < in.Labels.Len(); i++ {
			lb := labelAt(in.Labels, i)
			if in.Level >= len(q) {
				follow(i) // inside the prefix subtree: everything matches
			} else if lb == q[in.Level] {
				follow(i)
			}
		}
	}
}

func (o testTrie) LeafConsistent(q *Query, key []byte, _ int) bool {
	k := string(key)
	switch q.Op {
	case "=":
		return k == q.Arg.(string)
	case "pfx":
		return strings.HasPrefix(k, q.Arg.(string))
	}
	return false
}

func newTestTree(t testing.TB) *Tree {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(1024), 64)
	tr, err := Create(bp, testTrie{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rid(i int) heap.RID { return heap.RID{Page: storage.PageID(1 + i/100), Slot: uint16(i % 100)} }

// insertOne inserts one key as a one-key batch, which is what a
// single-row INSERT runs.
func insertOne(t *Tree, key Value, r heap.RID) error {
	return t.InsertBatch([]Value{key}, []heap.RID{r})
}

// scanCount returns how many entries a full scan of tr yields.
func scanCount(t testing.TB, tr *Tree) int {
	t.Helper()
	n := 0
	if err := tr.Scan(nil, func([]byte, heap.RID) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func randWord(r *rand.Rand) string {
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(4))
	}
	return string(b)
}

func TestInsertAndExactSearch(t *testing.T) {
	tr := newTestTree(t)
	words := []string{"a", "ab", "abc", "b", "ba", "bad", "c", "ca", "cab", "d", "da", "dab", "abcd", "aaaa"}
	for i, w := range words {
		if err := insertOne(tr, w, rid(i)); err != nil {
			t.Fatalf("insert %q: %v", w, err)
		}
	}
	if n := scanCount(t, tr); n != len(words) {
		t.Fatalf("full scan yields %d entries, want %d", n, len(words))
	}
	for i, w := range words {
		rids, err := tr.Lookup(&Query{Op: "=", Arg: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != rid(i) {
			t.Fatalf("lookup %q = %v, want [%v]", w, rids, rid(i))
		}
	}
	// Absent keys.
	for _, w := range []string{"abd", "cc", "dddd", "aa"} {
		rids, err := tr.Lookup(&Query{Op: "=", Arg: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 0 {
			t.Fatalf("lookup absent %q = %v", w, rids)
		}
	}
}

func TestDuplicateKeysGrowLeaf(t *testing.T) {
	tr := newTestTree(t)
	// 50 copies of the same key force PickSplit to fail repeatedly; the
	// framework must keep them in an oversized data node.
	for i := 0; i < 50; i++ {
		if err := insertOne(tr, "abab", rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	rids, err := tr.Lookup(&Query{Op: "=", Arg: "abab"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 50 {
		t.Fatalf("found %d duplicates, want 50", len(rids))
	}
}

func TestPrefixScan(t *testing.T) {
	tr := newTestTree(t)
	r := rand.New(rand.NewSource(11))
	var words []string
	for i := 0; i < 2000; i++ {
		w := randWord(r)
		words = append(words, w)
		if err := insertOne(tr, w, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, pfx := range []string{"a", "ab", "abc", "", "dd", "ddd"} {
		want := 0
		for _, w := range words {
			if strings.HasPrefix(w, pfx) {
				want++
			}
		}
		rids, err := tr.Lookup(&Query{Op: "pfx", Arg: pfx})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != want {
			t.Fatalf("prefix %q: got %d, want %d", pfx, len(rids), want)
		}
	}
}

func TestFullScanNilQuery(t *testing.T) {
	tr := newTestTree(t)
	for i := 0; i < 300; i++ {
		if err := insertOne(tr, fmt.Sprintf("%04s", strings.Repeat("abcd"[i%4:i%4+1], 1+i%4)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := tr.Scan(nil, func(_ []byte, _ heap.RID) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("full scan saw %d, want 300", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := newTestTree(t)
	for i := 0; i < 100; i++ {
		insertOne(tr, "ab", rid(i))
	}
	n := 0
	tr.Scan(nil, func(_ []byte, _ heap.RID) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestDelete(t *testing.T) {
	tr := newTestTree(t)
	words := []string{"aa", "ab", "ac", "ad", "ba", "bb", "aa", "aa"}
	for i, w := range words {
		insertOne(tr, w, rid(i))
	}
	// Delete one copy of aa by its RID.
	if err := tr.BulkDelete(func(r heap.RID) bool { return r == rid(0) }); err != nil {
		t.Fatal(err)
	}
	rids, _ := tr.Lookup(&Query{Op: "=", Arg: "aa"})
	if len(rids) != 2 {
		t.Fatalf("after delete, %d copies of aa remain, want 2", len(rids))
	}
	// Delete the remaining copies, rows 6 and 7.
	if err := tr.BulkDelete(func(r heap.RID) bool { return r == rid(6) || r == rid(7) }); err != nil {
		t.Fatal(err)
	}
	rids, _ = tr.Lookup(&Query{Op: "=", Arg: "aa"})
	if len(rids) != 0 {
		t.Fatal("aa still present after delete-all")
	}
	// Unrelated keys survive.
	rids, _ = tr.Lookup(&Query{Op: "=", Arg: "ab"})
	if len(rids) != 1 {
		t.Fatal("delete damaged sibling key")
	}
	if n := scanCount(t, tr); n != len(words)-3 {
		t.Fatalf("full scan yields %d entries, want %d", n, len(words)-3)
	}
}

func TestBulkDelete(t *testing.T) {
	tr := newTestTree(t)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		insertOne(tr, randWord(r), rid(i))
	}
	// Drop every even RID slot.
	before := scanCount(t, tr)
	if err := tr.BulkDelete(func(rd heap.RID) bool { return rd.Slot%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	cnt := 0
	tr.Scan(nil, func(_ []byte, rd heap.RID) bool {
		if rd.Slot%2 == 0 {
			t.Fatalf("rid %v should have been removed", rd)
		}
		cnt++
		return true
	})
	if cnt == before {
		t.Fatal("bulk delete removed nothing")
	}
}

func TestStatsShape(t *testing.T) {
	tr := newTestTree(t)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		insertOne(tr, randWord(r), rid(i))
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeafItems != 3000 {
		t.Fatalf("LeafItems = %d", st.LeafItems)
	}
	if st.InnerNodes == 0 || st.LeafNodes == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	// Keys are at most 8 chars: node height is bounded by 9 levels + 1.
	if st.MaxNodeHeight > 10 {
		t.Fatalf("MaxNodeHeight = %d, want <= 10", st.MaxNodeHeight)
	}
	if st.MaxPageHeight > st.MaxNodeHeight {
		t.Fatalf("page height %d exceeds node height %d", st.MaxPageHeight, st.MaxNodeHeight)
	}
	if st.MaxPageHeight < 1 {
		t.Fatal("page height must be at least 1")
	}
}

// The clustering policy must keep page height below node height once the
// tree is deep enough (the point of Figure 12). Uses the paper's 8 KB
// pages: with tiny pages a deep path cannot collapse much.
func TestClusteringKeepsPageHeightLow(t *testing.T) {
	bp := storage.NewBufferPool("", storage.NewMem(8192), 64)
	tr, err := Create(bp, testTrie{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		if err := insertOne(tr, randWord(r), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxNodeHeight < 5 {
		t.Skipf("tree too shallow to compare (height %d)", st.MaxNodeHeight)
	}
	if st.MaxPageHeight >= st.MaxNodeHeight {
		t.Fatalf("clustering ineffective: page height %d vs node height %d",
			st.MaxPageHeight, st.MaxNodeHeight)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.spg")
	dm, err := storage.OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool("", dm, 64)
	tr, err := Create(bp, testTrie{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	words := map[string]int{}
	for i := 0; i < 2000; i++ {
		w := randWord(r)
		if err := insertOne(tr, w, rid(i)); err != nil {
			t.Fatal(err)
		}
		words[w]++
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}

	dm2, err := storage.OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bp2 := storage.NewBufferPool("", dm2, 64)
	tr2, err := Open(bp2, testTrie{})
	if err != nil {
		t.Fatal(err)
	}
	defer bp2.Close()
	if n := scanCount(t, tr2); n != 2000 {
		t.Fatalf("full scan after reopen yields %d entries", n)
	}
	for w, n := range words {
		rids, err := tr2.Lookup(&Query{Op: "=", Arg: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != n {
			t.Fatalf("after reopen, %q found %d times, want %d", w, len(rids), n)
		}
	}
	// The reopened tree accepts new inserts.
	if err := insertOne(tr2, "dddddddd", rid(99999)); err != nil {
		t.Fatal(err)
	}
}

// Model-based fuzz: the index must agree with a multimap on equality and
// prefix queries under interleaved inserts and deletes.
func TestRandomizedAgainstModel(t *testing.T) {
	tr := newTestTree(t)
	r := rand.New(rand.NewSource(9))
	model := map[string][]heap.RID{}
	next := 0
	for step := 0; step < 8000; step++ {
		switch {
		case r.Intn(10) < 7 || len(model) == 0: // insert
			w := randWord(r)
			rd := rid(next)
			next++
			if err := insertOne(tr, w, rd); err != nil {
				t.Fatal(err)
			}
			model[w] = append(model[w], rd)
		default: // delete one key fully
			for w := range model {
				if err := tr.BulkDelete(func(r heap.RID) bool { return slices.Contains(model[w], r) }); err != nil {
					t.Fatal(err)
				}
				delete(model, w)
				break
			}
		}
	}
	// Validate every key in the model plus a sample of absent keys.
	for w, want := range model {
		rids, err := tr.Lookup(&Query{Op: "=", Arg: w})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRIDSet(rids, want) {
			t.Fatalf("key %q: got %d rids, want %d", w, len(rids), len(want))
		}
	}
	total := 0
	for _, v := range model {
		total += len(v)
	}
	if n := scanCount(t, tr); n != total {
		t.Fatalf("full scan yields %d entries, model total = %d", n, total)
	}
	// Prefix queries agree with the model.
	for _, pfx := range []string{"a", "b", "cd", "abc"} {
		want := 0
		for w, v := range model {
			if strings.HasPrefix(w, pfx) {
				want += len(v)
			}
		}
		rids, err := tr.Lookup(&Query{Op: "pfx", Arg: pfx})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != want {
			t.Fatalf("prefix %q: got %d, want %d", pfx, len(rids), want)
		}
	}
	// Node bytes are canonical and the carried-forward free-space figures
	// exact after inserts, splits, relocations and deletes.
	checkTreeBytes(t, tr)
}

func sameRIDSet(a, b []heap.RID) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r heap.RID) string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = key(a[i])
		bs[i] = key(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestCreateOnNonEmptyFileFails(t *testing.T) {
	bp := storage.NewBufferPool("", storage.NewMem(1024), 8)
	if _, err := Create(bp, testTrie{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(bp, testTrie{}); err == nil {
		t.Fatal("second Create on same file should fail")
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	bp := storage.NewBufferPool("", storage.NewMem(1024), 8)
	p, _ := bp.NewPage()
	bp.Unpin(p, true)
	if _, err := Open(bp, testTrie{}); err == nil {
		t.Fatal("Open on non-SP-GiST file should fail")
	}
}

func TestNNUnsupportedOpClass(t *testing.T) {
	tr := newTestTree(t)
	if _, err := tr.NNScan("a"); err == nil {
		t.Fatal("NNScan should fail for opclass without NN support")
	}
}

// A root-to-leaf path longer than maxChooseIters is legitimate (a trie
// over keys sharing a long prefix, a degenerate kd-tree): the insert
// descent's retry guard bounds the restructuring retries at one node, not
// the depth of the tree.
func TestInsertThroughDeepPath(t *testing.T) {
	tr := newTestTree(t)
	prefix := strings.Repeat("a", 200)
	var keys []string
	for c := byte('a'); c <= 'j'; c++ {
		keys = append(keys, prefix+string(c))
	}
	// The fifth key overflows the bucket and the split cascades one level
	// per prefix byte; every later key descends the 200 inner nodes.
	for i, k := range keys {
		if err := insertOne(tr, k, rid(i)); err != nil {
			t.Fatalf("insert #%d: %v", i, err)
		}
	}
	for i, k := range keys {
		rids, err := tr.Lookup(&Query{Op: "=", Arg: k})
		if err != nil || len(rids) != 1 || rids[0] != rid(i) {
			t.Fatalf("lookup of key #%d: %v, err %v, want [%v]", i, rids, err, rid(i))
		}
	}
	rids, err := tr.Lookup(&Query{Op: "pfx", Arg: prefix})
	if err != nil || len(rids) != len(keys) {
		t.Fatalf("prefix scan under the deep path: %d rows, err %v, want %d", len(rids), err, len(keys))
	}
}
