// Package pmr instantiates SP-GiST as a disk-based PMR quadtree (Nelson &
// Samet) over line segments, the structure the paper compares against the
// R-tree in Figure 15.
//
// The PMR quadtree is space-driven: a cell splits into four equal
// quadrants when an insertion pushes its population past the splitting
// threshold, and it splits only once per triggering insertion — children
// left over the threshold wait for future insertions (Params.SplitOnce).
// A segment is stored in every leaf cell it crosses (Params.MultiAssign),
// and scans deduplicate results by RID. Decomposition stops at the
// resolution limit.
//
// Supported operators:
//
//	"="   segment equality (endpoints in either order)
//	"&&"  window query: segments intersecting a box
//	"@@"  incremental NN of a point by segment distance
package pmr

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// Defaults for the interface parameters.
const (
	DefaultThreshold  = 8
	DefaultResolution = 16
)

// DefaultWorld is the paper's experiment space.
var DefaultWorld = geom.MakeBox(0, 0, 100, 100)

// OpClass is the PMR-quadtree instantiation. Indexed segments must lie
// within the configured world box.
type OpClass struct {
	world      geom.Box
	threshold  int
	resolution int
}

// Option tweaks an OpClass.
type Option func(*OpClass)

// WithWorld sets the root cell. Every indexed segment must intersect it.
func WithWorld(w geom.Box) Option { return func(o *OpClass) { o.world = w } }

// WithThreshold sets the splitting threshold (the bucket size).
func WithThreshold(t int) Option {
	return func(o *OpClass) {
		if t > 0 {
			o.threshold = t
		}
	}
}

// WithResolution caps the number of quadrant decompositions.
func WithResolution(r int) Option {
	return func(o *OpClass) {
		if r > 0 {
			o.resolution = r
		}
	}
}

// New returns the PMR-quadtree opclass.
func New(opts ...Option) *OpClass {
	o := &OpClass{world: DefaultWorld, threshold: DefaultThreshold, resolution: DefaultResolution}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// Name implements core.OpClass.
func (o *OpClass) Name() string { return "spgist_pmrquadtree" }

// Params implements core.OpClass.
func (o *OpClass) Params() core.Params {
	return core.Params{
		NumPartitions: 4,
		PathShrink:    core.NeverShrink,
		NodeShrink:    false,
		BucketSize:    o.threshold,
		Resolution:    o.resolution,
		SplitOnce:     true,
		MultiAssign:   true,
	}
}

// RootRecon implements core.OpClass: the world cell.
func (o *OpClass) RootRecon() core.Value { return o.world }

// EncodeSegment serializes a segment in 32 bytes.
func EncodeSegment(s geom.Segment) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(s.A.X))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.A.Y))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(s.B.X))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(s.B.Y))
	return b
}

// DecodeSegment parses a segment written by EncodeSegment. Anything shorter
// — a damaged record — reads as the zero segment rather than panicking.
func DecodeSegment(b []byte) geom.Segment {
	if len(b) < 32 {
		return geom.Segment{}
	}
	return geom.Segment{
		A: geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		},
		B: geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		},
	}
}

// EncodeKey implements core.OpClass.
func (o *OpClass) EncodeKey(v core.Value) []byte { return EncodeSegment(v.(geom.Segment)) }

// DecodeKey implements core.OpClass.
func (o *OpClass) DecodeKey(b []byte) core.Value { return DecodeSegment(b) }

// EncodePred implements core.OpClass. PMR inner nodes carry no predicate:
// the cell geometry is derived from the path (the recon value).
func (o *OpClass) EncodePred(core.Value) []byte { return nil }

// EncodeLabel implements core.OpClass.
func (o *OpClass) EncodeLabel(v core.Value) []byte { return []byte{v.(byte)} }

// quadrant reads an encoded label: the index of the cell's quadrant. A
// label no EncodeLabel wrote — a damaged record — reads as some quadrant.
func quadrant(label []byte) int {
	if len(label) != 1 {
		return 0
	}
	return int(label[0] & 3)
}

// Choose implements core.OpClass: descend into every quadrant the segment
// crosses (multi-assignment).
func (o *OpClass) Choose(in *core.ChooseIn) core.ChooseOut {
	s := in.Key.(geom.Segment)
	cell := in.Recon.(geom.Box)
	matches := in.Matches
	n := in.Labels.Len()
	for i := 0; i < n; i++ {
		q := cell.Quadrant(quadrant(in.Labels.At(i)))
		if s.IntersectsBox(q) {
			matches = append(matches, core.ChooseMatch{Entry: i, LevelAdd: 1, Recon: q})
		}
	}
	if len(matches) == 0 && n > 0 {
		// The segment lies outside the world box; park it in the nearest
		// quadrant so it is never lost (it still answers equality queries
		// through LeafConsistent).
		best, bestDist := 0, math.Inf(1)
		c := geom.Point{X: (s.A.X + s.B.X) / 2, Y: (s.A.Y + s.B.Y) / 2}
		for i := 0; i < n; i++ {
			q := cell.Quadrant(quadrant(in.Labels.At(i)))
			if d := q.DistToPoint(c); d < bestDist {
				best, bestDist = i, d
			}
		}
		q := cell.Quadrant(quadrant(in.Labels.At(best)))
		matches = append(matches, core.ChooseMatch{Entry: best, LevelAdd: 1, Recon: q})
	}
	return core.ChooseOut{Action: core.MatchNode, Matches: matches}
}

// PickSplit implements core.OpClass: quarter the cell and route each
// segment into every quadrant it crosses.
func (o *OpClass) PickSplit(in *core.PickSplitIn) core.PickSplitOut {
	cell := in.Recon.(geom.Box)
	out := core.PickSplitOut{
		Labels:    []core.Value{byte(0), byte(1), byte(2), byte(3)},
		Mapping:   make([][]int, len(in.Keys)),
		LevelAdds: []int{1, 1, 1, 1},
		Recons: []core.Value{
			cell.Quadrant(0), cell.Quadrant(1), cell.Quadrant(2), cell.Quadrant(3),
		},
	}
	for i, kv := range in.Keys {
		s := kv.(geom.Segment)
		var ps []int
		for p := 0; p < 4; p++ {
			if s.IntersectsBox(cell.Quadrant(p)) {
				ps = append(ps, p)
			}
		}
		if len(ps) == 0 {
			// Out-of-world segment: keep it in the quadrant nearest its
			// midpoint, as in Choose.
			c := geom.Point{X: (s.A.X + s.B.X) / 2, Y: (s.A.Y + s.B.Y) / 2}
			best, bestDist := 0, math.Inf(1)
			for p := 0; p < 4; p++ {
				if d := cell.Quadrant(p).DistToPoint(c); d < bestDist {
					best, bestDist = p, d
				}
			}
			ps = []int{best}
		}
		out.Mapping[i] = ps
	}
	return out
}

// follow appends the child under entry i with its cell: the cell
// geometry lives only on the path, and InnerConsistent reads it back from
// InnerIn.Recon one level down.
func follow(out *core.InnerOut, i int, cell geom.Box) {
	out.Follow = append(out.Follow, core.InnerFollow{Entry: i, LevelAdd: 1, Recon: cell})
}

// InnerConsistent implements core.OpClass for "=" and "&&".
func (o *OpClass) InnerConsistent(in *core.InnerIn, out *core.InnerOut) {
	cell := in.Recon.(geom.Box)
	n := in.Labels.Len()
	for i := 0; i < n; i++ {
		q := cell.Quadrant(quadrant(in.Labels.At(i)))
		if in.Query == nil {
			follow(out, i, q)
			continue
		}
		switch in.Query.Op {
		case "=":
			if in.Query.Arg.(geom.Segment).IntersectsBox(q) {
				follow(out, i, q)
			}
		case "&&":
			if in.Query.Arg.(geom.Box).Intersects(q) {
				follow(out, i, q)
			}
		}
	}
	if in.Query != nil && in.Query.Op == "=" && len(out.Follow) == 0 {
		// Out-of-world segments are parked in the quadrant nearest their
		// midpoint (see Choose); replay the same deterministic rule so
		// equality search still reaches them.
		s := in.Query.Arg.(geom.Segment)
		c := geom.Point{X: (s.A.X + s.B.X) / 2, Y: (s.A.Y + s.B.Y) / 2}
		best, bestDist := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			q := cell.Quadrant(quadrant(in.Labels.At(i)))
			if d := q.DistToPoint(c); d < bestDist {
				best, bestDist = i, d
			}
		}
		if best >= 0 {
			follow(out, best, cell.Quadrant(quadrant(in.Labels.At(best))))
		}
	}
}

// LeafConsistent implements core.OpClass.
func (o *OpClass) LeafConsistent(q *core.Query, key []byte, _ int) bool {
	s := DecodeSegment(key)
	switch q.Op {
	case "=":
		return s.Eq(q.Arg.(geom.Segment))
	case "&&":
		return s.IntersectsBox(q.Arg.(geom.Box))
	}
	return false
}

// NNInner implements core.NNOpClass for point queries over segments: the
// distance to the quadrant cell.
func (o *OpClass) NNInner(q core.Value, _, label []byte, _ int, recon []byte, parentDist float64) (float64, int) {
	d := geom.BoxFromBytes(recon).Quadrant(quadrant(label)).DistToPoint(q.(geom.Point))
	if d < parentDist {
		d = parentDist
	}
	return d, 1
}

// NNRootRecon implements core.NNOpClass: the world cell.
func (o *OpClass) NNRootRecon(dst []byte) []byte { return geom.AppendBoxBytes(dst, o.world) }

// NNRecon implements core.NNOpClass: the quadrant cell.
func (o *OpClass) NNRecon(_, label []byte, _ int, recon, dst []byte) []byte {
	return geom.AppendBoxBytes(dst, geom.BoxFromBytes(recon).Quadrant(quadrant(label)))
}

// NNLeaf implements core.NNOpClass.
func (o *OpClass) NNLeaf(q core.Value, key []byte) float64 {
	return DecodeSegment(key).DistToPoint(q.(geom.Point))
}
