package core

import (
	"math/rand"
	"testing"

	"repro/internal/heap"
	"repro/internal/storage"
)

func TestRepackPreservesContentAndLowersPageHeight(t *testing.T) {
	bp := storage.NewBufferPool("", storage.NewMem(8192), 64)
	tr, err := Create(bp, testTrie{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	words := map[string]int{}
	for i := 0; i < 30000; i++ {
		w := randWord(r)
		if err := insertOne(tr, w, rid(i)); err != nil {
			t.Fatal(err)
		}
		words[w]++
	}
	before, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}

	bp2 := storage.NewBufferPool("", storage.NewMem(8192), 64)
	rp, err := tr.Repack(bp2)
	if err != nil {
		t.Fatal(err)
	}
	after, err := rp.Stats()
	if err != nil {
		t.Fatal(err)
	}

	// Identical logical content.
	if after.LeafItems != before.LeafItems {
		t.Fatalf("repack changed content: %+v vs %+v", after, before)
	}
	if after.MaxNodeHeight != before.MaxNodeHeight {
		t.Fatalf("repack changed tree shape: node height %d vs %d",
			after.MaxNodeHeight, before.MaxNodeHeight)
	}
	// Every key still found, same multiplicity.
	for w, n := range words {
		rids, err := rp.Lookup(&Query{Op: "=", Arg: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != n {
			t.Fatalf("after repack %q found %d times, want %d", w, len(rids), n)
		}
	}
	// The whole point: page height must not get worse, and for a tree of
	// this depth it should be strictly better than the node height.
	if after.MaxPageHeight > before.MaxPageHeight {
		t.Fatalf("repack worsened page height: %d -> %d", before.MaxPageHeight, after.MaxPageHeight)
	}
	if after.MaxPageHeight >= after.MaxNodeHeight {
		t.Fatalf("repacked page height %d not below node height %d",
			after.MaxPageHeight, after.MaxNodeHeight)
	}
	// Utilization must not regress: the repacked file is at most as large.
	if after.Pages > before.Pages {
		t.Fatalf("repack grew the file: %d -> %d pages", before.Pages, after.Pages)
	}
	// Inserts keep working on the repacked tree.
	if err := insertOne(rp, "postrepack", heap.RID{Page: 9, Slot: 9}); err != nil {
		t.Fatal(err)
	}
	rids, err := rp.Lookup(&Query{Op: "=", Arg: "postrepack"})
	if err != nil || len(rids) != 1 {
		t.Fatalf("insert after repack: %v %v", rids, err)
	}
}

func TestRepackEmptyTree(t *testing.T) {
	bp := storage.NewBufferPool("", storage.NewMem(1024), 8)
	tr, err := Create(bp, testTrie{})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := tr.Repack(storage.NewBufferPool("", storage.NewMem(1024), 8))
	if err != nil {
		t.Fatal(err)
	}
	if scanCount(t, rp) != 0 {
		t.Fatal("empty repack not empty")
	}
}

func TestRepackRejectsNonEmptyTarget(t *testing.T) {
	bp := storage.NewBufferPool("", storage.NewMem(1024), 8)
	tr, _ := Create(bp, testTrie{})
	bp2 := storage.NewBufferPool("", storage.NewMem(1024), 8)
	p, _ := bp2.NewPage()
	bp2.Unpin(p, true)
	if _, err := tr.Repack(bp2); err == nil {
		t.Fatal("repack into non-empty file should fail")
	}
}
