// Package kdtree instantiates SP-GiST as a disk-based kd-tree over 2-D
// points — the paper's Table 1, right column:
//
//	PathShrink = NeverShrink   NodeShrink = false
//	BucketSize = 1             NoOfSpacePartitions = 2
//	NodePredicate = splitting point, labels = "blank", "left", "right"
//
// Even levels discriminate on X, odd levels on Y. Every inner node stores
// the point that caused its creation in its blank partition, exactly as
// the table describes ("put the old point in a child node with predicate
// blank").
//
// Supported operators (paper Tables 3–4):
//
//	"@"   point equality
//	"^"   range (inside box)
//	"@@"  incremental nearest neighbor by Euclidean distance
package kdtree

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
)

// Partition labels.
const (
	LabelSelf  = byte(0) // the splitting point itself ("blank")
	LabelLeft  = byte(1) // coordinate < discriminator
	LabelRight = byte(2) // coordinate >= discriminator
)

// OpClass is the kd-tree instantiation.
type OpClass struct{}

// New returns the kd-tree opclass.
func New() *OpClass { return &OpClass{} }

// Name implements core.OpClass.
func (o *OpClass) Name() string { return "spgist_kdtree" }

// Params implements core.OpClass (paper Table 1).
func (o *OpClass) Params() core.Params {
	return core.Params{
		NumPartitions: 2,
		PathShrink:    core.NeverShrink,
		NodeShrink:    false,
		BucketSize:    1,
	}
}

// plane is the NN search's root traversal value: the unbounded plane,
// refined into half-plane boxes as the search descends (its distance
// bounds are distances to these boxes).
var plane = geom.Box{
	Min: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)},
	Max: geom.Point{X: math.Inf(1), Y: math.Inf(1)},
}

// RootRecon implements core.OpClass: none. Insertions and searches
// navigate by the splitting points alone.
func (o *OpClass) RootRecon() core.Value { return nil }

// EncodePoint serializes a point in 16 bytes.
func EncodePoint(p geom.Point) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(p.X))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
	return b
}

// DecodePoint parses a point written by EncodePoint. Anything shorter — a
// damaged record — reads as the origin rather than panicking.
func DecodePoint(b []byte) geom.Point {
	if len(b) < 16 {
		return geom.Point{}
	}
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}

// EncodeKey implements core.OpClass.
func (o *OpClass) EncodeKey(v core.Value) []byte { return EncodePoint(v.(geom.Point)) }

// DecodeKey implements core.OpClass.
func (o *OpClass) DecodeKey(b []byte) core.Value { return DecodePoint(b) }

// EncodePred implements core.OpClass.
func (o *OpClass) EncodePred(v core.Value) []byte { return EncodePoint(v.(geom.Point)) }

// EncodeLabel implements core.OpClass.
func (o *OpClass) EncodeLabel(v core.Value) []byte { return []byte{v.(byte)} }

// labelInvalid is what a label that is not one byte long reads as: a
// partition no key is routed to.
const labelInvalid = byte(0xFF)

// Label reads an encoded one-byte partition label.
func Label(b []byte) byte {
	if len(b) != 1 {
		return labelInvalid
	}
	return b[0]
}

// coord returns the discriminated coordinate at the given level: X on
// even levels, Y on odd (Table 1's "level is odd/even" rule, zero-based).
func coord(p geom.Point, level int) float64 {
	if level%2 == 0 {
		return p.X
	}
	return p.Y
}

// side classifies k against the discriminator point at level.
func side(k, disc geom.Point, level int) byte {
	if k.Eq(disc) {
		return LabelSelf
	}
	if coord(k, level) < coord(disc, level) {
		return LabelLeft
	}
	return LabelRight
}

// childBox clips the parent's bounding box to the partition's half-plane.
func childBox(parent geom.Box, disc geom.Point, level int, label byte) geom.Box {
	switch label {
	case LabelSelf:
		return geom.Box{Min: disc, Max: disc}
	case LabelLeft:
		b := parent
		if level%2 == 0 {
			b.Max.X = disc.X
		} else {
			b.Max.Y = disc.Y
		}
		return b
	default:
		b := parent
		if level%2 == 0 {
			b.Min.X = disc.X
		} else {
			b.Min.Y = disc.Y
		}
		return b
	}
}

// Choose implements core.OpClass. An insertion navigates by the splitting
// point alone, so no traversal value goes along.
func (o *OpClass) Choose(in *core.ChooseIn) core.ChooseOut {
	k := in.Key.(geom.Point)
	want := side(k, DecodePoint(in.Pred), in.Level)
	for i := 0; i < in.Labels.Len(); i++ {
		if Label(in.Labels.At(i)) == want {
			return core.ChooseOut{
				Action:  core.MatchNode,
				Matches: append(in.Matches, core.ChooseMatch{Entry: i, LevelAdd: 1}),
			}
		}
	}
	// NodeShrink=false trees create all partitions at split time, so a
	// missing label cannot happen with well-formed data; adding it keeps
	// the opclass total.
	return core.ChooseOut{Action: core.AddNode, NewLabel: want}
}

// PickSplit implements core.OpClass, following Table 1: the first (old)
// point becomes the node predicate and sits in the blank partition; the
// other keys go left or right of it.
func (o *OpClass) PickSplit(in *core.PickSplitIn) core.PickSplitOut {
	disc := in.Keys[0].(geom.Point)
	allSame := true
	mapping := make([][]int, len(in.Keys))
	for i, kv := range in.Keys {
		k := kv.(geom.Point)
		if !k.Eq(disc) {
			allSame = false
		}
		var part int
		switch side(k, disc, in.Level) {
		case LabelSelf:
			part = 0
		case LabelLeft:
			part = 1
		default:
			part = 2
		}
		mapping[i] = []int{part}
	}
	if allSame {
		return core.PickSplitOut{Failed: true} // duplicate points
	}
	return core.PickSplitOut{
		Pred:      disc,
		Labels:    []core.Value{LabelSelf, LabelLeft, LabelRight},
		Mapping:   mapping,
		LevelAdds: []int{1, 1, 1},
	}
}

// OrderBatch implements core.BatchOrderer: median first, Bentley's
// kd-tree construction. The batch's median on X goes in first, then each
// half in turn by its median on Y, then X, and so on down, so a batch
// that lands in an empty tree builds it balanced. Choose sends a key that
// ties the split's coordinate right, so the split is the first key of the
// median's tie run and the whole run goes to the upper half; copies of
// the split's point go to its own partition, so they follow the lower
// half in one run. Every level selects its median rather than sorting
// (O(n log n) for the batch) and breaks ties by index, so the order is a
// function of the batch.
func (o *OpClass) OrderBatch(keys []core.Value, order []int) { medianFirst(keys, order, 0) }

func medianFirst(keys []core.Value, order []int, level int) {
	if len(order) < 2 {
		return
	}
	at := func(i int) float64 { return coord(keys[order[i]].(geom.Point), level) }
	less := func(a, b int) bool {
		ca, cb := coord(keys[a].(geom.Point), level), coord(keys[b].(geom.Point), level)
		return ca < cb || ca == cb && a < b
	}
	// Hoare's selection: partition around the middle entry until the
	// median lands at mid, the lower half before it, the upper after.
	mid := len(order) / 2
	for lo, hi := 0, len(order)-1; lo < hi; {
		m := lo + (hi-lo)/2
		order[m], order[hi] = order[hi], order[m]
		i := lo
		for j := lo; j < hi; j++ {
			if less(order[j], order[hi]) {
				order[i], order[j] = order[j], order[i]
				i++
			}
		}
		order[i], order[hi] = order[hi], order[i]
		if mid <= i {
			hi = i - 1
		}
		if mid >= i {
			lo = i + 1
		}
	}
	// The lower half's ties of the median come before it by index: move
	// them after the keys below it, and split at the first of the run.
	c, below := at(mid), 0
	for j := range mid {
		if at(j) < c {
			order[below], order[j] = order[j], order[below]
			below++
		}
	}
	first := below
	for j := below + 1; j <= mid; j++ {
		if order[j] < order[first] {
			first = j
		}
	}
	order[first], order[below] = order[below], order[first]
	m := order[below] // to the front, ahead of the lower half
	copy(order[1:below+1], order[:below])
	order[0] = m
	upper, same := order[below+1:], 0
	for j, k := range upper {
		if keys[k].(geom.Point).Eq(keys[m].(geom.Point)) {
			upper[same], upper[j] = k, upper[same]
			same++
		}
	}
	slices.Sort(upper[:same])
	medianFirst(keys, order[1:below+1], level+1)
	medianFirst(keys, upper[same:], level+1)
}

// follow appends the child under entry i. Searches navigate by the
// splitting point alone, so no traversal value goes along.
func follow(out *core.InnerOut, i int) {
	out.Follow = append(out.Follow, core.InnerFollow{Entry: i, LevelAdd: 1})
}

// InnerConsistent implements core.OpClass for "@" (point equality) and
// "^" (inside box).
func (o *OpClass) InnerConsistent(in *core.InnerIn, out *core.InnerOut) {
	disc := DecodePoint(in.Pred)
	n := in.Labels.Len()
	if in.Query == nil {
		for i := 0; i < n; i++ {
			follow(out, i)
		}
		return
	}
	switch in.Query.Op {
	case "@":
		q := in.Query.Arg.(geom.Point)
		want := side(q, disc, in.Level)
		for i := 0; i < n; i++ {
			if Label(in.Labels.At(i)) == want {
				follow(out, i)
			}
		}
	case "^":
		q := in.Query.Arg.(geom.Box)
		for i := 0; i < n; i++ {
			switch Label(in.Labels.At(i)) {
			case LabelSelf:
				if q.Contains(disc) {
					follow(out, i)
				}
			case LabelLeft:
				if coord(q.Min, in.Level) < coord(disc, in.Level) {
					follow(out, i)
				}
			case LabelRight:
				if coord(q.Max, in.Level) >= coord(disc, in.Level) {
					follow(out, i)
				}
			}
		}
	}
}

// LeafConsistent implements core.OpClass.
func (o *OpClass) LeafConsistent(q *core.Query, key []byte, _ int) bool {
	k := DecodePoint(key)
	switch q.Op {
	case "@":
		return k.Eq(q.Arg.(geom.Point))
	case "^":
		return q.Arg.(geom.Box).Contains(k)
	}
	return false
}

// NNRootRecon implements core.NNOpClass: the unbounded plane.
func (o *OpClass) NNRootRecon(dst []byte) []byte { return geom.AppendBoxBytes(dst, plane) }

// NNInner implements core.NNOpClass: the lower bound for a partition is
// the Euclidean distance from the query point to the partition's bounding
// box.
func (o *OpClass) NNInner(q core.Value, pred, label []byte, level int, recon []byte, parentDist float64) (float64, int) {
	box := childBox(geom.BoxFromBytes(recon), DecodePoint(pred), level, Label(label))
	d := box.DistToPoint(q.(geom.Point))
	if d < parentDist {
		d = parentDist // numeric safety: bounds never decrease downward
	}
	return d, 1
}

// NNRecon implements core.NNOpClass: the partition's bounding box.
func (o *OpClass) NNRecon(pred, label []byte, level int, recon, dst []byte) []byte {
	return geom.AppendBoxBytes(dst, childBox(geom.BoxFromBytes(recon), DecodePoint(pred), level, Label(label)))
}

// NNLeaf implements core.NNOpClass.
func (o *OpClass) NNLeaf(q core.Value, key []byte) float64 {
	return q.(geom.Point).Dist(DecodePoint(key))
}
