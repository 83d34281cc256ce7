package core

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// FuzzFixture is one opclass for FuzzNodeView: the operands its read-side
// methods take, and the node records of a tree built with it as seeds.
type FuzzFixture struct {
	OC      OpClass
	Key     Value    // a key: Choose's
	NNQuery Value    // nil if the opclass has no NN search
	Queries []*Query // nil, the full scan, is always tried as well
	Records [][]byte
}

// FuzzFixtures builds the fixtures of the real opclasses. Package core_test
// sets it (driver_test.go): it can import them, this package cannot.
var FuzzFixtures func(t testing.TB) []FuzzFixture

// TreeRecords returns a copy of every node record in tr's file.
func TreeRecords(t testing.TB, tr *Tree) [][]byte {
	t.Helper()
	var recs [][]byte
	for pid := storage.PageID(1); uint32(pid) < tr.NumPages(); pid++ {
		p, err := tr.bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		storage.SlotForEach(p.Data, func(_ int, rec []byte) bool {
			recs = append(recs, append([]byte(nil), rec...))
			return true
		})
		tr.bp.Unpin(p, false)
	}
	return recs
}

// viewTierSizes are the bytes of record and offsets that a view of each
// tier has room for.
var viewTierSizes = []int{64, 128, 256}

// boundaryRecords returns data-node records whose bytes and offsets come to
// each tier's size and one byte more: three items, the last key filling.
func boundaryRecords(t testing.TB) [][]byte {
	t.Helper()
	var recs [][]byte
	for _, tier := range viewTierSizes {
		for _, need := range []int{tier, tier + 1} {
			fill := need - leafHeaderSize - 3*(leafItemExtra+2) - 2
			n := &node{leaf: true, next: InvalidRef, items: []item{
				{key: []byte("a"), rid: rid(1)},
				{key: []byte("b"), rid: rid(2)},
				{key: bytes.Repeat([]byte("c"), fill), rid: rid(3)},
			}}
			rec := n.encode()
			if len(rec)+2*len(n.items) != need {
				t.Fatalf("boundary record of %d bytes with offsets, want %d", len(rec)+2*len(n.items), need)
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// TestNodeViewIsOneAllocation: a view whose record and offsets fit 256
// bytes is one object, header included, and a larger one two; either way
// the buffer is the record and its offsets, capacity and all, so an
// accessor that overran them panics. Records are those of the real
// opclasses' fixture trees (kd-tree and trie among them) and of the tier
// boundaries.
func TestNodeViewIsOneAllocation(t *testing.T) {
	recs := boundaryRecords(t)
	for _, fx := range FuzzFixtures(t) {
		recs = append(recs, fx.Records...)
	}
	perTier := map[float64]int{}
	for _, rec := range recs {
		v, err := newView(rec)
		if err != nil {
			t.Fatal(err)
		}
		need := len(rec) + 2*v.n
		if len(v.buf) != need || cap(v.buf) != need {
			t.Fatalf("%d-byte record of %d entries: buffer len %d cap %d, want %d", len(rec), v.n, len(v.buf), cap(v.buf), need)
		}
		if !bytes.Equal(v.buf[:len(rec)], rec) {
			t.Fatalf("%d-byte record: the view's buffer does not open with it", len(rec))
		}
		want := 1.0
		if need > viewTierSizes[len(viewTierSizes)-1] {
			want = 2
		}
		if got := testing.AllocsPerRun(10, func() { _, _ = newView(rec) }); got != want {
			t.Fatalf("%d-byte record of %d entries: %.0f allocations per view, want %.0f", len(rec), v.n, got, want)
		}
		perTier[want]++
	}
	t.Logf("%d views of one object, %d of two", perTier[1], perTier[2])
}

// FuzzNodeView: whatever bytes a node record holds, newView refuses them or
// hands back a view whose every accessor stays inside the record — and on a
// view that passed, no read-side method of any opclass panics, whatever
// lengths the predicate, labels and keys turn out to have. Seeds are the
// node records of small trees of every opclass, whole, truncated and with
// bits flipped.
func FuzzNodeView(f *testing.F) {
	tr := newTestTree(f)
	for i, w := range []string{"a", "ab", "abc", "abcd", "b", "ba", "bad", "c", "ca", "cab", "d", "da", "dab", "aaaa", "aaab"} {
		if err := insertOne(tr, w, rid(i)); err != nil {
			f.Fatal(err)
		}
	}
	fixtures := append(FuzzFixtures(f), FuzzFixture{
		OC: testTrie{}, Key: "abca",
		Queries: []*Query{{Op: "=", Arg: "abc"}, {Op: "pfx", Arg: "a"}},
		Records: TreeRecords(f, tr),
	})
	for _, fx := range fixtures {
		kinds := map[byte]int{}
		for _, rec := range fx.Records {
			if _, err := newView(rec); err != nil {
				f.Fatalf("%s: a record of the tree does not validate: %v", fx.OC.Name(), err)
			}
			for cut := 0; cut < len(rec); cut++ {
				if _, err := newView(rec[:cut]); err == nil {
					f.Fatalf("%s: a %d-byte record cut at %d validates", fx.OC.Name(), len(rec), cut)
				}
			}
			if kinds[rec[0]]++; kinds[rec[0]] > 2 {
				continue // two of each kind per opclass are seeds enough
			}
			f.Add(rec)
			f.Add(rec[:len(rec)/2])
			for bit := 0; bit < 8*min(len(rec), 12); bit += 13 {
				flipped := append([]byte(nil), rec...)
				flipped[bit/8] ^= 1 << (bit % 8)
				f.Add(flipped)
			}
		}
		if kinds[nodeKindInner] == 0 || kinds[nodeKindLeaf] == 0 {
			f.Fatalf("%s: seed tree has no inner or no data node", fx.OC.Name())
		}
	}
	for _, rec := range boundaryRecords(f) {
		f.Add(rec)
		f.Add(rec[:len(rec)/2])
	}

	f.Fuzz(func(t *testing.T, rec []byte) {
		v, err := newView(rec)
		if err != nil {
			return
		}
		if cap(v.buf) != len(v.buf) {
			t.Fatalf("record %x: view buffer len %d cap %d; an overrun would read spare bytes", rec, len(v.buf), cap(v.buf))
		}
		if v.leaf {
			v.next()
			for i := 0; i < v.n; i++ {
				v.key(i)
				v.rid(i)
			}
		} else {
			v.pred()
			for i := 0; i < v.n; i++ {
				v.label(i)
				v.child(i)
			}
		}
		// The decoded form holds what the record holds: it encodes back to
		// it (an inner record may carry bytes past its last entry).
		if enc := v.node().encode(); !bytes.HasPrefix(rec, enc) || (v.leaf && len(enc) != len(rec)) {
			t.Fatalf("record %x decodes and encodes to %x", rec, enc)
		}
		for _, fx := range fixtures {
			nn, _ := fx.OC.(NNOpClass)
			if fx.NNQuery == nil {
				nn = nil
			}
			for _, level := range []int{0, 3} {
				if v.leaf {
					for i := 0; i < v.n; i++ {
						for _, q := range fx.Queries {
							fx.OC.LeafConsistent(q, v.key(i), level)
						}
						if nn != nil {
							nn.NNLeaf(fx.NNQuery, v.key(i))
						}
					}
					continue
				}
				for _, q := range append([]*Query{nil}, fx.Queries...) {
					in := InnerIn{Query: q, Level: level, Pred: v.pred(), Labels: Labels{v}, Recon: fx.OC.RootRecon()}
					fx.OC.InnerConsistent(&in, &InnerOut{})
				}
				fx.OC.Choose(&ChooseIn{Key: fx.Key, Level: level, Pred: v.pred(), Labels: Labels{v}, Recon: fx.OC.RootRecon()})
				for i := 0; nn != nil && i < v.n; i++ {
					root := nn.NNRootRecon(nil)
					nn.NNInner(fx.NNQuery, v.pred(), v.label(i), level, root, 0)
					nn.NNRecon(v.pred(), v.label(i), level, root, root)
				}
			}
		}
	})
}
