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
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/trie"
)

// New returns the suffix-tree opclass: the patricia trie configured for
// suffix keys (see trie.NewSuffix).
func New(opts ...trie.Option) *trie.OpClass { return trie.NewSuffix(opts...) }

// InsertWord indexes every suffix of word under the given RID. The tree
// must have been created with the opclass returned by New.
func InsertWord(t *core.Tree, word string, rid heap.RID) error {
	for i := 0; i < len(word); i++ {
		if err := t.Insert(word[i:], rid); err != nil {
			return err
		}
	}
	return nil
}

// SubstringQuery builds the "@=" query for a substring search.
func SubstringQuery(sub string) *core.Query {
	return &core.Query{Op: "@=", Arg: sub}
}
