package core

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// coldTrie builds a multi-page trie in a file and reopens it with
// readahead on through a pool a fifth of its size (Open touches every
// page, so only a small pool is cold afterwards), over a device slow
// enough (200 µs a read) that a prefetch issued a few nodes ahead lands
// before the scan reaches its page. The pool's counters start at zero;
// done stops the prefetch workers, after which they are final.
func coldTrie(t *testing.T) (tr *Tree, bp *storage.BufferPool, words []string, done func()) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.spg")
	dm, err := storage.OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	build := storage.NewBufferPool("", dm, 64)
	tr, err = Create(build, testTrie{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 3000; i++ {
		w := randWord(r)
		if err := tr.Insert(w, rid(i)); err != nil {
			t.Fatal(err)
		}
		words = append(words, w)
	}
	if err := tr.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	if err := build.Close(); err != nil {
		t.Fatal(err)
	}

	dm, err = storage.OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if dm.NumPages() < 60 {
		t.Fatalf("fixture has %d pages, want several pools' worth", dm.NumPages())
	}
	pool := storage.NewPool(1024, 16)
	pf := storage.NewPrefetcher(0, 0)
	pool.AttachPrefetcher(pf, 8)
	bp = pool.Open("", storage.WithLatency(dm, 200*time.Microsecond, 0), obs.WaitNone)
	tr, err = Open(bp, testTrie{})
	if err != nil {
		t.Fatal(err)
	}
	bp.ResetStats()
	t.Cleanup(func() { bp.Close() })
	return tr, bp, words, pf.Close
}

// TestExactMatchDescentPrefetchesNothing: a point descent follows one
// child per level and fetches it on the next iteration, so there is
// nothing a prefetch could overlap with — none may be issued.
func TestExactMatchDescentPrefetchesNothing(t *testing.T) {
	tr, bp, words, done := coldTrie(t)
	for _, w := range words[:200] {
		rids, err := tr.Lookup(&Query{Op: "=", Arg: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) == 0 {
			t.Fatalf("%q not found", w)
		}
	}
	done()
	st := bp.Stats()
	if st.Misses == 0 {
		t.Fatal("descents never missed: the pool was not cold")
	}
	if st.PrefetchReads != 0 {
		t.Fatalf("exact-match descents issued %d prefetch reads, want 0", st.PrefetchReads)
	}
}

// TestMultiFollowScanStillPrefetches: a scan that follows several
// children keeps its readahead — the siblings left on the stack are
// prefetched and found resident when the scan gets to them.
func TestMultiFollowScanStillPrefetches(t *testing.T) {
	tr, bp, words, done := coldTrie(t)
	rids, err := tr.Lookup(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(words) {
		t.Fatalf("full scan found %d entries, want %d", len(rids), len(words))
	}
	done()
	st := bp.Stats()
	if st.PrefetchReads == 0 || st.PrefetchHits == 0 {
		t.Fatalf("cold full scan: %d prefetch reads, %d prefetch hits, want both > 0",
			st.PrefetchReads, st.PrefetchHits)
	}
}
