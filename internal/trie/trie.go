// Package trie instantiates SP-GiST as a disk-based patricia trie over
// strings — the paper's flagship example (Table 1, left column):
//
//	PathShrink = TreeShrink   NodeShrink = true
//	BucketSize = B            NoOfSpacePartitions = 27
//	NodePredicate = common prefix, labels = letter or blank
//
// Supported operators (paper Tables 3–4):
//
//	"="   equality
//	"#="  prefix match
//	"?="  regular-expression match with the single-character wildcard '?'
//	"@@"  incremental nearest-neighbor by Hamming-style distance
//
// The package also understands "@=" (substring) navigation as an alias of
// prefix navigation, which is what the suffix-tree instantiation builds
// on (package suffix).
package trie

import "repro/internal/core"

// Blank is the label of the partition holding words that end exactly at
// the node's position (Table 1's "blank" predicate). The indexed alphabet
// must not contain the zero byte.
const Blank = byte(0)

// DefaultBucketSize is the paper's B parameter default.
const DefaultBucketSize = 16

// OpClass is the patricia-trie instantiation. The zero value is not
// usable; call New.
type OpClass struct {
	bucket     int
	dedup      bool
	name       string
	substrings bool
}

// Option tweaks an OpClass.
type Option func(*OpClass)

// WithBucketSize sets the leaf bucket size B.
func WithBucketSize(b int) Option {
	return func(o *OpClass) {
		if b > 0 {
			o.bucket = b
		}
	}
}

// New returns the patricia-trie opclass.
func New(opts ...Option) *OpClass {
	o := &OpClass{bucket: DefaultBucketSize, name: "spgist_trie"}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// NewSuffix returns the trie opclass configured as the backbone of a
// suffix tree: scans deduplicate by RID because one heap row contributes
// one key per suffix.
func NewSuffix(opts ...Option) *OpClass {
	o := New(opts...)
	o.dedup = true
	o.substrings = true
	o.name = "spgist_suffix"
	return o
}

// Name implements core.OpClass.
func (o *OpClass) Name() string { return o.name }

// Params implements core.OpClass (paper Table 1).
func (o *OpClass) Params() core.Params {
	return core.Params{
		NumPartitions: 27,
		PathShrink:    core.TreeShrink,
		NodeShrink:    true,
		BucketSize:    o.bucket,
		DedupScan:     o.dedup,
	}
}

// RootRecon implements core.OpClass: none. No method of the trie reads a
// traversal value — a node's position in the key is its level.
func (o *OpClass) RootRecon() core.Value { return nil }

// EncodeKey implements core.OpClass.
func (o *OpClass) EncodeKey(v core.Value) []byte { return []byte(v.(string)) }

// DecodeKey implements core.OpClass.
func (o *OpClass) DecodeKey(b []byte) core.Value { return string(b) }

// EncodePred implements core.OpClass.
func (o *OpClass) EncodePred(v core.Value) []byte { return []byte(v.(string)) }

// EncodeLabel implements core.OpClass.
func (o *OpClass) EncodeLabel(v core.Value) []byte { return []byte{v.(byte)} }

// label reads an encoded partition label: one byte. Anything else — a
// damaged record — reads as the blank partition rather than panicking.
func label(b []byte) byte {
	if len(b) != 1 {
		return Blank
	}
	return b[0]
}

// Choose implements core.OpClass: navigate by the character at the
// current level, splitting the node predicate on a prefix conflict.
func (o *OpClass) Choose(in *core.ChooseIn) core.ChooseOut {
	key := in.Key.(string)
	p := in.Pred
	for i := 0; i < len(p); i++ {
		if in.Level+i >= len(key) || key[in.Level+i] != p[i] {
			// The key disagrees with the stored prefix: split it
			// (Figure 1(c) restructuring).
			return core.ChooseOut{
				Action:     core.SplitNode,
				UpperPred:  string(p[:i]),
				UpperLabel: p[i],
				LowerPred:  string(p[i+1:]),
			}
		}
	}
	// The key's position is the level alone: no traversal value goes along.
	after := in.Level + len(p)
	want := Blank
	levelAdd := len(p)
	if after < len(key) {
		want = key[after]
		levelAdd = len(p) + 1
	}
	for i := 0; i < in.Labels.Len(); i++ {
		if label(in.Labels.At(i)) == want {
			return core.ChooseOut{
				Action:  core.MatchNode,
				Matches: append(in.Matches, core.ChooseMatch{Entry: i, LevelAdd: levelAdd}),
			}
		}
	}
	return core.ChooseOut{Action: core.AddNode, NewLabel: want}
}

// PickSplit implements core.OpClass, following Table 1: extract the
// longest common prefix of the keys' remainders as the node predicate and
// partition by the next character, with exhausted keys going to the blank
// partition.
func (o *OpClass) PickSplit(in *core.PickSplitIn) core.PickSplitOut {
	// Longest common prefix of the remainders key[level:].
	first := in.Keys[0].(string)
	lcp := len(first) - in.Level
	if lcp < 0 {
		lcp = 0
	}
	for _, kv := range in.Keys[1:] {
		k := kv.(string)
		n := 0
		for n < lcp && in.Level+n < len(k) && k[in.Level+n] == first[in.Level+n] {
			n++
		}
		if n < lcp {
			lcp = n
		}
	}
	p := ""
	if lcp > 0 {
		p = first[in.Level : in.Level+lcp]
	}
	after := in.Level + lcp

	var labels []byte
	idx := make(map[byte]int)
	mapping := make([][]int, len(in.Keys))
	allBlank := true
	for i, kv := range in.Keys {
		k := kv.(string)
		lb := Blank
		if after < len(k) {
			lb = k[after]
			allBlank = false
		}
		pi, ok := idx[lb]
		if !ok {
			pi = len(labels)
			idx[lb] = pi
			labels = append(labels, lb)
		}
		mapping[i] = []int{pi}
	}
	if allBlank {
		// Every key ends at this position: they are identical and cannot
		// be distinguished further.
		return core.PickSplitOut{Failed: true}
	}
	out := core.PickSplitOut{
		Pred:      p,
		Labels:    make([]core.Value, len(labels)),
		Mapping:   mapping,
		LevelAdds: make([]int, len(labels)),
	}
	for pi, lb := range labels {
		out.Labels[pi] = lb
		out.LevelAdds[pi] = lcp
		if lb != Blank {
			out.LevelAdds[pi]++
		}
	}
	return out
}

// follow appends the child under entry i, labeled lb, of a node whose
// stored prefix is plen characters long. No traversal value goes along: a
// search knows its position in the query from the level alone.
func follow(out *core.InnerOut, i int, lb byte, plen int) {
	if lb != Blank {
		plen++
	}
	out.Follow = append(out.Follow, core.InnerFollow{Entry: i, LevelAdd: plen})
}

// InnerConsistent implements core.OpClass for the =, #=, ?= (and @=)
// operators. This is where the trie's tolerance to wildcards comes from:
// any non-wildcard character of the pattern prunes the fan-out at its
// level, regardless of where wildcards appear (paper section 6).
func (o *OpClass) InnerConsistent(in *core.InnerIn, out *core.InnerOut) {
	p := in.Pred
	n := in.Labels.Len()
	if in.Query == nil {
		for i := 0; i < n; i++ {
			follow(out, i, label(in.Labels.At(i)), len(p))
		}
		return
	}
	q := in.Query.Arg.(string)
	after := in.Level + len(p)
	switch in.Query.Op {
	case "=":
		// The stored prefix must match the query exactly.
		if len(q) < after || q[in.Level:after] != string(p) {
			return
		}
		want := Blank
		if after < len(q) {
			want = q[after]
		}
		for i := 0; i < n; i++ {
			if label(in.Labels.At(i)) == want {
				follow(out, i, want, len(p))
			}
		}
	case "#=", "@=":
		// Prefix search: the overlap of the query with the stored prefix
		// must match; past the end of the query everything qualifies.
		m := len(p)
		if rem := len(q) - in.Level; rem < m {
			m = rem
		}
		if m > 0 && q[in.Level:in.Level+m] != string(p[:m]) {
			return
		}
		if len(q) <= after {
			for i := 0; i < n; i++ {
				follow(out, i, label(in.Labels.At(i)), len(p))
			}
			return
		}
		want := q[after]
		for i := 0; i < n; i++ {
			if label(in.Labels.At(i)) == want {
				follow(out, i, want, len(p))
			}
		}
	case "?=":
		// Full-length match with '?' wildcards: every word below this
		// node is at least `after` characters long, so the pattern must
		// cover the stored prefix.
		if len(q) < after {
			return
		}
		for i := 0; i < len(p); i++ {
			if c := q[in.Level+i]; c != '?' && c != p[i] {
				return
			}
		}
		for i := 0; i < n; i++ {
			lb := label(in.Labels.At(i))
			if lb == Blank {
				if len(q) == after {
					follow(out, i, lb, len(p))
				}
			} else if after < len(q) {
				if c := q[after]; c == '?' || c == lb {
					follow(out, i, lb, len(p))
				}
			}
		}
	}
}

// LeafConsistent implements core.OpClass.
func (o *OpClass) LeafConsistent(q *core.Query, key []byte, _ int) bool {
	arg := q.Arg.(string)
	switch q.Op {
	case "=":
		return string(key) == arg
	case "#=", "@=":
		return len(key) >= len(arg) && string(key[:len(arg)]) == arg
	case "?=":
		return matchPattern(key, arg)
	}
	return false
}

// MatchPattern reports whether word matches the pattern: equal length and
// per-position equality, with '?' matching any single character.
func MatchPattern(word, pattern string) bool { return matchPattern(word, pattern) }

func matchPattern[S string | []byte](word S, pattern string) bool {
	if len(word) != len(pattern) {
		return false
	}
	for i := 0; i < len(word); i++ {
		if pattern[i] != '?' && pattern[i] != word[i] {
			return false
		}
	}
	return true
}

// Distance is the Hamming-style string distance used for NN search (paper
// section 6): positional mismatches over the common length plus one per
// length-difference character.
func Distance(a, b string) float64 { return distance(a, b) }

func distance[S string | []byte](a S, b string) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			d++
		}
	}
	if len(a) > n {
		d += len(a) - n
	}
	if len(b) > n {
		d += len(b) - n
	}
	return float64(d)
}

// NNInner implements core.NNOpClass. The lower bound for any word under a
// child whose path spells s is the mismatch count of s against the query
// plus the overshoot of s beyond the query; it is computed incrementally
// from the parent's bound, which is the modification the paper's section
// 5 describes for tries. The parent's path is level characters long, so
// only the node's own prefix and the child's label are compared and no
// traversal value is needed.
func (o *OpClass) NNInner(q core.Value, p, lbl []byte, level int, _ []byte, parentDist float64) (float64, int) {
	query := q.(string)
	d := parentDist
	pos := level
	for i := 0; i < len(p); i++ {
		// Past its end the word is already longer than the query.
		if pos >= len(query) || p[i] != query[pos] {
			d++
		}
		pos++
	}
	if lb := label(lbl); lb != Blank {
		if pos >= len(query) || lb != query[pos] {
			d++
		}
		pos++
	} else if pos < len(query) {
		// A blank child holds complete words equal to s; shorter-than-query
		// words pay the length penalty immediately, keeping the bound tight.
		d += float64(len(query) - pos)
	}
	return d, pos - level
}

// NNRootRecon implements core.NNOpClass: NNInner reads no traversal value.
func (o *OpClass) NNRootRecon(dst []byte) []byte { return dst }

// NNRecon implements core.NNOpClass: nothing, as for the root.
func (o *OpClass) NNRecon(_, _ []byte, _ int, _, dst []byte) []byte { return dst }

// NNLeaf implements core.NNOpClass.
func (o *OpClass) NNLeaf(q core.Value, key []byte) float64 {
	return distance(key, q.(string))
}
