// Package suffix realizes the paper's disk-based suffix-tree index for
// substring match searching ("@=", Table 3) on top of the SP-GiST
// patricia trie: indexing every suffix of every word turns a substring
// query into a prefix search over suffixes. One heap row contributes one
// index key per suffix, so the opclass runs with RID deduplication and a
// substring query returns each matching row once.
//
// This is the structure behind the paper's Figure 16, where the suffix
// tree beats a sequential scan by more than three orders of magnitude —
// no other access method supports substring match at all.
package suffix

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/trie"
)

// New returns the suffix-tree opclass: the patricia trie configured for
// suffix keys (see trie.NewSuffix).
func New(opts ...trie.Option) *trie.OpClass { return trie.NewSuffix(opts...) }

// batchBytes bounds the suffix bytes of one InsertBatch call, which
// encodes all its keys before it inserts one: a word of length L has
// L(L+1)/2 bytes of suffixes, 4.5 MB for a 3 000-byte word. A statement
// of dictionary words (some 30 KB for 500) still takes one call.
const batchBytes = 1 << 20

// Insert indexes every suffix of words[i] under rids[i] in as few
// InsertBatch calls as batchBytes allows, so the tree takes a statement's
// suffixes in encoded-key order. The tree must use the opclass of New.
func Insert(t *core.Tree, words []string, rids []heap.RID) error {
	return insertBatches(words, rids, t.InsertBatch)
}

// insertBatches hands insert the suffixes of words in batches of at most
// batchBytes bytes, or of one longer suffix.
func insertBatches(words []string, rids []heap.RID, insert func([]core.Value, []heap.RID) error) error {
	if len(words) != len(rids) {
		return fmt.Errorf("suffix: Insert got %d words for %d rids", len(words), len(rids))
	}
	var keys []core.Value
	var krids []heap.RID
	size := 0
	for i, w := range words {
		for j := range len(w) {
			if len(keys) > 0 && size+len(w)-j > batchBytes {
				if err := insert(keys, krids); err != nil {
					return err
				}
				keys, krids, size = keys[:0], krids[:0], 0
			}
			keys, krids, size = append(keys, w[j:]), append(krids, rids[i]), size+len(w)-j
		}
	}
	return insert(keys, krids)
}

// SubstringQuery builds the "@=" query for a substring search.
func SubstringQuery(sub string) *core.Query {
	return &core.Query{Op: "@=", Arg: sub}
}
