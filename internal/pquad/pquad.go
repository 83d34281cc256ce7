// Package pquad instantiates SP-GiST as a disk-based point quadtree
// (Finkel & Bentley) over 2-D points, as in the paper's Figure 3(a): a
// data-driven structure where every inner node stores the point that
// split its cell and fans out into the four quadrants around it.
//
//	PathShrink = NeverShrink   NodeShrink = false
//	BucketSize = 1             NoOfSpacePartitions = 4
//
// Supported operators: "@" (point equality), "^" (inside box), "@@"
// (incremental NN by Euclidean distance).
package pquad

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/kdtree"
)

// Partition labels: the center point plus the four quadrants around it.
const (
	LabelSelf = byte(0)
	LabelSW   = byte(1)
	LabelSE   = byte(2)
	LabelNW   = byte(3)
	LabelNE   = byte(4)
)

// OpClass is the point-quadtree instantiation.
type OpClass struct{}

// New returns the point-quadtree opclass.
func New() *OpClass { return &OpClass{} }

// Name implements core.OpClass.
func (o *OpClass) Name() string { return "spgist_pquadtree" }

// Params implements core.OpClass.
func (o *OpClass) Params() core.Params {
	return core.Params{
		NumPartitions: 4,
		PathShrink:    core.NeverShrink,
		NodeShrink:    false,
		BucketSize:    1,
	}
}

// plane is the NN search's root traversal value: the unbounded plane,
// clipped to quadrants as the search descends.
var plane = geom.Box{
	Min: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)},
	Max: geom.Point{X: math.Inf(1), Y: math.Inf(1)},
}

// RootRecon implements core.OpClass: none. Insertions and searches
// navigate by the centers alone.
func (o *OpClass) RootRecon() core.Value { return nil }

// EncodeKey implements core.OpClass.
func (o *OpClass) EncodeKey(v core.Value) []byte { return kdtree.EncodePoint(v.(geom.Point)) }

// DecodeKey implements core.OpClass.
func (o *OpClass) DecodeKey(b []byte) core.Value { return kdtree.DecodePoint(b) }

// EncodePred implements core.OpClass.
func (o *OpClass) EncodePred(v core.Value) []byte { return kdtree.EncodePoint(v.(geom.Point)) }

// EncodeLabel implements core.OpClass.
func (o *OpClass) EncodeLabel(v core.Value) []byte { return []byte{v.(byte)} }

// quadrant classifies k against the center point: west is x < cx, south
// is y < cy; ties go east/north, mirroring the kd-tree's >= convention.
func quadrant(k, c geom.Point) byte {
	if k.Eq(c) {
		return LabelSelf
	}
	switch {
	case k.X < c.X && k.Y < c.Y:
		return LabelSW
	case k.X >= c.X && k.Y < c.Y:
		return LabelSE
	case k.X < c.X:
		return LabelNW
	default:
		return LabelNE
	}
}

// childBox clips the parent's bounding box to a quadrant around c.
func childBox(parent geom.Box, c geom.Point, label byte) geom.Box {
	b := parent
	switch label {
	case LabelSelf:
		return geom.Box{Min: c, Max: c}
	case LabelSW:
		b.Max = geom.Point{X: c.X, Y: c.Y}
	case LabelSE:
		b.Min.X = c.X
		b.Max.Y = c.Y
	case LabelNW:
		b.Max.X = c.X
		b.Min.Y = c.Y
	case LabelNE:
		b.Min = geom.Point{X: c.X, Y: c.Y}
	}
	return b
}

// quadrantMayContain reports whether the quadrant around c can hold a
// point inside box q, using strict/inclusive bounds that match the
// quadrant assignment rule.
func quadrantMayContain(q geom.Box, c geom.Point, label byte) bool {
	switch label {
	case LabelSelf:
		return q.Contains(c)
	case LabelSW:
		return q.Min.X < c.X && q.Min.Y < c.Y
	case LabelSE:
		return q.Max.X >= c.X && q.Min.Y < c.Y
	case LabelNW:
		return q.Min.X < c.X && q.Max.Y >= c.Y
	default:
		return q.Max.X >= c.X && q.Max.Y >= c.Y
	}
}

// Choose implements core.OpClass. An insertion navigates by the center
// point alone, so no traversal value goes along.
func (o *OpClass) Choose(in *core.ChooseIn) core.ChooseOut {
	k := in.Key.(geom.Point)
	want := quadrant(k, kdtree.DecodePoint(in.Pred))
	for i := 0; i < in.Labels.Len(); i++ {
		if kdtree.Label(in.Labels.At(i)) == want {
			return core.ChooseOut{
				Action:  core.MatchNode,
				Matches: append(in.Matches, core.ChooseMatch{Entry: i, LevelAdd: 1}),
			}
		}
	}
	return core.ChooseOut{Action: core.AddNode, NewLabel: want}
}

// PickSplit implements core.OpClass: the first (old) point becomes the
// cell's center and the remaining keys scatter into its quadrants.
func (o *OpClass) PickSplit(in *core.PickSplitIn) core.PickSplitOut {
	c := in.Keys[0].(geom.Point)
	labels := []byte{LabelSelf, LabelSW, LabelSE, LabelNW, LabelNE}
	pos := map[byte]int{LabelSelf: 0, LabelSW: 1, LabelSE: 2, LabelNW: 3, LabelNE: 4}
	mapping := make([][]int, len(in.Keys))
	allSame := true
	for i, kv := range in.Keys {
		k := kv.(geom.Point)
		if !k.Eq(c) {
			allSame = false
		}
		mapping[i] = []int{pos[quadrant(k, c)]}
	}
	if allSame {
		return core.PickSplitOut{Failed: true}
	}
	out := core.PickSplitOut{
		Pred:      c,
		Labels:    make([]core.Value, len(labels)),
		Mapping:   mapping,
		LevelAdds: []int{1, 1, 1, 1, 1},
	}
	for i, lb := range labels {
		out.Labels[i] = lb
	}
	return out
}

// follow appends the child under entry i. Searches navigate by the
// center point alone, so no traversal value goes along.
func follow(out *core.InnerOut, i int) {
	out.Follow = append(out.Follow, core.InnerFollow{Entry: i, LevelAdd: 1})
}

// InnerConsistent implements core.OpClass for "@" and "^".
func (o *OpClass) InnerConsistent(in *core.InnerIn, out *core.InnerOut) {
	c := kdtree.DecodePoint(in.Pred)
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
		want := quadrant(q, c)
		for i := 0; i < n; i++ {
			if kdtree.Label(in.Labels.At(i)) == want {
				follow(out, i)
			}
		}
	case "^":
		q := in.Query.Arg.(geom.Box)
		for i := 0; i < n; i++ {
			if quadrantMayContain(q, c, kdtree.Label(in.Labels.At(i))) {
				follow(out, i)
			}
		}
	}
}

// LeafConsistent implements core.OpClass.
func (o *OpClass) LeafConsistent(q *core.Query, key []byte, _ int) bool {
	k := kdtree.DecodePoint(key)
	switch q.Op {
	case "@":
		return k.Eq(q.Arg.(geom.Point))
	case "^":
		return q.Arg.(geom.Box).Contains(k)
	}
	return false
}

// NNInner implements core.NNOpClass: the distance to the quadrant's
// bounding box.
func (o *OpClass) NNInner(q core.Value, pred, label []byte, _ int, recon []byte, parentDist float64) (float64, int) {
	box := childBox(geom.BoxFromBytes(recon), kdtree.DecodePoint(pred), kdtree.Label(label))
	d := box.DistToPoint(q.(geom.Point))
	if d < parentDist {
		d = parentDist
	}
	return d, 1
}

// NNRootRecon implements core.NNOpClass: the unbounded plane.
func (o *OpClass) NNRootRecon(dst []byte) []byte { return geom.AppendBoxBytes(dst, plane) }

// NNRecon implements core.NNOpClass: the quadrant's bounding box.
func (o *OpClass) NNRecon(pred, label []byte, _ int, recon, dst []byte) []byte {
	return geom.AppendBoxBytes(dst, childBox(geom.BoxFromBytes(recon), kdtree.DecodePoint(pred), kdtree.Label(label)))
}

// NNLeaf implements core.NNOpClass.
func (o *OpClass) NNLeaf(q core.Value, key []byte) float64 {
	return q.(geom.Point).Dist(kdtree.DecodePoint(key))
}
