package executor

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

// TestWarmIndexScanReadsNoIndexPage: once every SP-GiST node of an index
// has been visited, the tree serves its nodes from memory, so prefix
// scans through a pool far smaller than the index read no index page
// from disk — every page read is a demand read, and a warm scan demands
// none.
func TestWarmIndexScanReadsNoIndexPage(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("words", []Column{{"name", catalog.Text}, {"id", catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(37))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	tups := make([]catalog.Tuple, 20000)
	for i := range tups {
		tups[i] = catalog.Tuple{catalog.NewText(word(8)), catalog.NewInt(int64(i))}
	}
	if _, err := tb.InsertBatch(tups); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("w_trie", "words", "name", "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Dir: dir, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb, err = db.Table("words")
	if err != nil {
		t.Fatal(err)
	}
	ix := tb.Indexes[0]
	if n := ix.Pool().DM().NumPages(); n < 4*16 {
		t.Fatalf("the index has %d pages, want several times the 16-frame pool", n)
	}
	scan := func(prefix string) int {
		t.Helper()
		rows := 0
		pred := &Pred{Column: 0, Op: "#=", Arg: catalog.NewText(prefix)}
		if err := tb.SelectIndexed(ix, pred, func(Row) bool { rows++; return true }); err != nil {
			t.Fatalf("#= %q: %v", prefix, err)
		}
		return rows
	}
	// One scan per first letter visits every node once.
	total := 0
	for c := byte('a'); c <= 'z'; c++ {
		total += scan(string(c))
	}
	if total != len(tups) {
		t.Fatalf("the first-letter scans found %d rows, want %d", total, len(tups))
	}

	reads, _, _ := ix.Pool().DM().Stats().Snapshot()
	for i := 0; i < 300; i++ {
		scan(word(2))
	}
	after, _, _ := ix.Pool().DM().Stats().Snapshot()
	if n := after - reads; n != 0 {
		t.Fatalf("300 warm prefix scans read %d index pages from disk, want 0", n)
	}
}
