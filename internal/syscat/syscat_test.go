package syscat

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/storage"
)

func newCatalog(t *testing.T) (*Catalog, *storage.BufferPool) {
	t.Helper()
	bp := storage.NewBufferPool("", storage.NewMem(storage.DefaultPageSize), 64)
	hf, err := heap.Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(hf, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, bp
}

// reload reopens the catalog over the same pool, as executor.Open does.
func reload(t *testing.T, bp *storage.BufferPool) *Catalog {
	t.Helper()
	hf, err := heap.Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(hf, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogRoundTrip(t *testing.T) {
	c, bp := newCatalog(t)
	tb, err := c.AddTable("words", []Column{
		{Name: "name", Type: catalog.Text},
		{Name: "id", Type: catalog.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tb.File != "rel1.tbl" {
		t.Fatalf("table file: %q", tb.File)
	}
	_, err = c.AddIndex("words_trie", tb.OID, 0, "spgist", "spgist_trie")
	if err != nil {
		t.Fatal(err)
	}

	c2 := reload(t, bp)
	tb2, ok := c2.GetTable("words")
	if !ok {
		t.Fatal("table lost on reload")
	}
	if tb2.OID != tb.OID || tb2.File != tb.File || len(tb2.Cols) != 2 {
		t.Fatalf("table diverged: %+v vs %+v", tb2, tb)
	}
	if tb2.Cols[0].Type != catalog.Text || tb2.Cols[1].Type != catalog.Int {
		t.Fatalf("column types diverged: %+v", tb2.Cols)
	}
	ix2, ok := c2.GetIndex("words_trie")
	if !ok {
		t.Fatal("index lost on reload")
	}
	if ix2.TableOID != tb.OID || ix2.Column != 0 || ix2.Method != "spgist" || ix2.OpClass != "spgist_trie" {
		t.Fatalf("index diverged: %+v", ix2)
	}
	if got := c2.IndexesOf(tb.OID); len(got) != 1 || got[0].Name != "words_trie" {
		t.Fatalf("IndexesOf: %+v", got)
	}
}

func TestCatalogOIDNeverReused(t *testing.T) {
	c, bp := newCatalog(t)
	tb, err := c.AddTable("t", []Column{{Name: "x", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveTable("t"); err != nil {
		t.Fatal(err)
	}
	// Even though the highest-OID relation is gone, a reload must hand
	// out a fresh OID: reusing the dropped one would reuse its file name
	// while log records mentioning it can still replay.
	c2 := reload(t, bp)
	tb2, err := c2.AddTable("t", []Column{{Name: "x", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if tb2.OID <= tb.OID {
		t.Fatalf("OID reused: %d after dropping %d", tb2.OID, tb.OID)
	}
	if tb2.File == tb.File {
		t.Fatalf("file name reused: %q", tb2.File)
	}
}

func TestCatalogRejectsDuplicatesAndUnknowns(t *testing.T) {
	c, _ := newCatalog(t)
	tb, err := c.AddTable("t", []Column{{Name: "x", Type: catalog.Int}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTable("t", []Column{{Name: "x", Type: catalog.Int}}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := c.AddIndex("i", tb.OID, 0, "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddIndex("i", tb.OID, 0, "spgist", "spgist_trie"); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if err := c.RemoveTable("nope"); err == nil {
		t.Fatal("remove of unknown table accepted")
	}
	if err := c.RemoveIndex("nope"); err == nil {
		t.Fatal("remove of unknown index accepted")
	}
}

func TestCatalogLoadRejectsDanglingIndex(t *testing.T) {
	c, bp := newCatalog(t)
	if _, err := c.AddIndex("i", 999, 0, "spgist", "spgist_trie"); err != nil {
		t.Fatal(err)
	}
	hf, err := heap.Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(hf, false, nil); err == nil {
		t.Fatal("load accepted an index referencing a missing table")
	}
}

// An index record ends with its file name: one with a byte after it, as
// the validity flag older formats wrote, does not decode.
func TestDecodeIndexRefusesTrailingBytes(t *testing.T) {
	ix := Index{OID: 3, Name: "i", TableOID: 1, Method: "spgist", OpClass: "spgist_trie", File: "rel3.idx"}
	rec := encodeIndex(ix)
	if got, err := decodeIndex(rec); err != nil || got != ix {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, ix)
	}
	if _, err := decodeIndex(append(rec, 1)); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("decode with a trailing byte: %v, want the trailing-bytes error", err)
	}
}

func sampleStats(oid uint64) Stats {
	return Stats{
		TableOID:   oid,
		Rows:       2000,
		SampleRows: 2000,
		Churn:      17,
		Cols: []catalog.ColumnStats{
			{
				NDistinct: 601,
				HasRange:  true,
				Min:       catalog.NewText("aaa"),
				Max:       catalog.NewText("zzz"),
				MCVals:    []catalog.Datum{catalog.NewText("common")},
				MCFreqs:   []float64{0.7},
				Histogram: []catalog.Datum{catalog.NewText("a"), catalog.NewText("m"), catalog.NewText("z")},
			},
			{NDistinct: 2000},
		},
	}
}

// Statistics records round-trip through the heap encoding and reload
// with the catalog.
func TestCatalogStatsRoundTrip(t *testing.T) {
	c, bp := newCatalog(t)
	tb, err := c.AddTable("words", []Column{
		{Name: "name", Type: catalog.Text},
		{Name: "id", Type: catalog.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleStats(tb.OID)
	if err := c.SetStats(want); err != nil {
		t.Fatal(err)
	}

	check := func(c *Catalog) {
		t.Helper()
		got, ok := c.GetStats(tb.OID)
		if !ok {
			t.Fatal("stats missing")
		}
		if got.Rows != want.Rows || got.SampleRows != want.SampleRows || got.Churn != 17 || len(got.Cols) != 2 {
			t.Fatalf("stats header: %+v", got)
		}
		cs := got.Cols[0]
		if cs.NDistinct != 601 || !cs.HasRange || cs.Min.S != "aaa" || cs.Max.S != "zzz" {
			t.Fatalf("column stats: %+v", cs)
		}
		if len(cs.MCVals) != 1 || cs.MCVals[0].S != "common" || cs.MCFreqs[0] != 0.7 {
			t.Fatalf("MCVs: %+v", cs)
		}
		if len(cs.Histogram) != 3 || cs.Histogram[1].S != "m" {
			t.Fatalf("histogram: %+v", cs)
		}
		if got.Cols[1].HasRange || len(got.Cols[1].MCVals) != 0 {
			t.Fatalf("second column gained phantom stats: %+v", got.Cols[1])
		}
	}
	check(c)
	check(reload(t, bp))

	// Replacement keeps exactly one record.
	want.Rows = 5000
	if err := c.SetStats(want); err != nil {
		t.Fatal(err)
	}
	c2 := reload(t, bp)
	if got, _ := c2.GetStats(tb.OID); got.Rows != 5000 {
		t.Fatalf("replaced stats rows = %d", got.Rows)
	}
	if n := len(c2.AllStats()); n != 1 {
		t.Fatalf("%d stats records after replace", n)
	}

	// Removal round-trips too.
	if err := c.RemoveStats(tb.OID); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, ok := reload(t, bp).GetStats(tb.OID); ok {
		t.Fatal("stats survived removal")
	}
}

// A statistics record referencing a table that no longer exists (or
// whose column count diverged) must be ignored on load, never brick the
// catalog: statistics are advisory.
func TestCatalogIgnoresOrphanStats(t *testing.T) {
	c, bp := newCatalog(t)
	tb, err := c.AddTable("words", []Column{{Name: "name", Type: catalog.Text}})
	if err != nil {
		t.Fatal(err)
	}
	// An orphan stats record for a never-cataloged OID, written straight
	// into the heap behind the catalog's back.
	hf := c.heap
	if _, err := hf.Insert(encodeStats(Stats{TableOID: 9999, Rows: 1, Cols: []catalog.ColumnStats{{NDistinct: 1}}})); err != nil {
		t.Fatal(err)
	}
	// A column-count mismatch for a real table.
	if _, err := hf.Insert(encodeStats(Stats{TableOID: tb.OID, Rows: 1, Cols: []catalog.ColumnStats{{NDistinct: 1}, {NDistinct: 2}}})); err != nil {
		t.Fatal(err)
	}
	c2 := reload(t, bp)
	if n := len(c2.AllStats()); n != 0 {
		t.Fatalf("orphan/mismatched stats loaded: %d records", n)
	}
	if _, ok := c2.GetTable("words"); !ok {
		t.Fatal("table lost while pruning orphan stats")
	}
}

// A truncated statistics record is skipped on load — advisory data must
// not brick an otherwise healthy catalog.
func TestCatalogSkipsUndecodableStats(t *testing.T) {
	c, bp := newCatalog(t)
	if _, err := c.AddTable("words", []Column{{Name: "name", Type: catalog.Text}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.heap.Insert([]byte{recStats, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c2 := reload(t, bp)
	if n := len(c2.AllStats()); n != 0 {
		t.Fatalf("undecodable stats record loaded: %d records", n)
	}
}
