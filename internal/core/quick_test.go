package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/storage"
)

// wordSet is a quick.Generator producing random word multisets over the
// test alphabet.
type wordSet []string

func (wordSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(size*20+1)
	ws := make(wordSet, n)
	for i := range ws {
		ws[i] = randWord(r)
	}
	return reflect.ValueOf(ws)
}

// Property: after inserting any multiset of words, every word is found
// exactly as many times as inserted, and a full scan sees exactly the
// multiset.
func TestQuickInsertThenFindAll(t *testing.T) {
	f := func(ws wordSet) bool {
		bp := storage.NewBufferPool("", storage.NewMem(1024), 64)
		tr, err := Create(bp, testTrie{})
		if err != nil {
			return false
		}
		counts := map[string]int{}
		for i, w := range ws {
			if err := insertOne(tr, w, rid(i)); err != nil {
				return false
			}
			counts[w]++
		}
		for w, n := range counts {
			rids, err := tr.Lookup(&Query{Op: "=", Arg: w})
			if err != nil || len(rids) != n {
				return false
			}
		}
		seen := 0
		tr.Scan(nil, func(_ []byte, _ heap.RID) bool { seen++; return true })
		return seen == len(ws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a full scan yields the inserted rows less the deleted ones,
// whichever rows are deleted.
func TestQuickCountInvariant(t *testing.T) {
	f := func(ws wordSet, delMask uint64) bool {
		bp := storage.NewBufferPool("", storage.NewMem(1024), 64)
		tr, err := Create(bp, testTrie{})
		if err != nil {
			return false
		}
		for i, w := range ws {
			if err := insertOne(tr, w, rid(i)); err != nil {
				return false
			}
		}
		deleted := func(i int) bool { return delMask&(1<<(uint(i)%64)) != 0 }
		expect := 0
		for i := range ws {
			if !deleted(i) {
				expect++
			}
		}
		if tr.BulkDelete(func(r heap.RID) bool { return deleted(int(r.Page-1)*100 + int(r.Slot)) }) != nil {
			return false
		}
		return scanCount(t, tr) == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: structural invariants hold after any load — page height
// never exceeds node height, item count matches key count, and every
// leaf reachable by full scan.
func TestQuickStructuralInvariants(t *testing.T) {
	f := func(ws wordSet) bool {
		bp := storage.NewBufferPool("", storage.NewMem(2048), 64)
		tr, err := Create(bp, testTrie{})
		if err != nil {
			return false
		}
		for i, w := range ws {
			if err := insertOne(tr, w, rid(i)); err != nil {
				return false
			}
		}
		st, err := tr.Stats()
		if err != nil {
			return false
		}
		if st.MaxPageHeight > st.MaxNodeHeight {
			return false
		}
		if st.LeafItems != len(ws) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Repack preserves exactly the multiset of (key, rid) pairs.
func TestQuickRepackPreservesPairs(t *testing.T) {
	f := func(ws wordSet) bool {
		bp := storage.NewBufferPool("", storage.NewMem(1024), 64)
		tr, err := Create(bp, testTrie{})
		if err != nil {
			return false
		}
		type pair struct {
			w string
			r heap.RID
		}
		var want []pair
		for i, w := range ws {
			if err := insertOne(tr, w, rid(i)); err != nil {
				return false
			}
			want = append(want, pair{w, rid(i)})
		}
		rp, err := tr.Repack(storage.NewBufferPool("", storage.NewMem(1024), 64))
		if err != nil {
			return false
		}
		var got []pair
		rp.Scan(nil, func(k []byte, r heap.RID) bool {
			got = append(got, pair{string(k), r})
			return true
		})
		if len(got) != len(want) {
			return false
		}
		key := func(p pair) string { return p.w + "|" + p.r.String() }
		sort.Slice(got, func(i, j int) bool { return key(got[i]) < key(got[j]) })
		sort.Slice(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: persistence — flushing and reopening yields the same search
// results for every inserted word.
func TestQuickPersistenceRoundTrip(t *testing.T) {
	f := func(ws wordSet) bool {
		dm := storage.NewMem(1024)
		bp := storage.NewBufferPool("", dm, 64)
		tr, err := Create(bp, testTrie{})
		if err != nil {
			return false
		}
		counts := map[string]int{}
		for i, w := range ws {
			if err := insertOne(tr, w, rid(i)); err != nil {
				return false
			}
			counts[w]++
		}
		if tr.Pool().FlushAll() != nil {
			return false
		}
		tr2, err := Open(storage.NewBufferPool("", dm, 64), testTrie{})
		if err != nil {
			return false
		}
		for w, n := range counts {
			rids, err := tr2.Lookup(&Query{Op: "=", Arg: w})
			if err != nil || len(rids) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
