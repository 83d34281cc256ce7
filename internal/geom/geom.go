// Package geom provides the plane geometry used by the spatial index
// instantiations (kd-tree, point quadtree, PMR quadtree) and the R-tree
// baseline: points, axis-aligned boxes, line segments, distances and
// intersection tests.
//
// All coordinates are float64. The paper's spatial experiments use the
// world [0,100]x[0,100]; nothing here depends on that range.
package geom

import (
	"encoding/binary"
	"math"
	"strconv"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

func (p Point) String() string { return string(p.Append(nil)) }

// Append appends p's text form, "(x,y)", to b: each coordinate as the
// verb %g prints it, without going through fmt.
func (p Point) Append(b []byte) []byte {
	b = appendG(append(b, '('), p.X)
	return append(appendG(append(b, ','), p.Y), ')')
}

// appendG appends f as fmt's %g prints a float64: the shortest form that
// reads back exactly.
func appendG(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// Eq reports exact coordinate equality.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Dist returns the Euclidean distance between p and q, as
// sqrt(dx*dx + dy*dy): correctly rounded operations keep it monotone in
// |dx| and |dy|, which is all an ordering of distances needs, at a fraction
// of math.Hypot's cost. Coordinate differences beyond about ±1e150 overflow
// to +Inf where Hypot would not.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Box is an axis-aligned rectangle with Min.X <= Max.X and Min.Y <= Max.Y.
type Box struct {
	Min, Max Point
}

// MakeBox builds a normalized box from two corner points.
func MakeBox(x1, y1, x2, y2 float64) Box {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Box{Point{x1, y1}, Point{x2, y2}}
}

func (b Box) String() string { return string(b.Append(nil)) }

// Append appends b's text form, "(minx,miny,maxx,maxy)", to dst.
func (b Box) Append(dst []byte) []byte {
	dst = appendG(append(dst, '('), b.Min.X)
	dst = appendG(append(dst, ','), b.Min.Y)
	dst = appendG(append(dst, ','), b.Max.X)
	return append(appendG(append(dst, ','), b.Max.Y), ')')
}

// Contains reports whether p lies inside or on the border of b.
func (b Box) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// ContainsBox reports whether o lies entirely within b.
func (b Box) ContainsBox(o Box) bool {
	return b.Contains(o.Min) && b.Contains(o.Max)
}

// Intersects reports whether the two boxes share at least one point
// (touching borders count).
func (b Box) Intersects(o Box) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// Union returns the smallest box covering both b and o.
func (b Box) Union(o Box) Box {
	return Box{
		Min: Point{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y)},
		Max: Point{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y)},
	}
}

// Area returns the area of b.
func (b Box) Area() float64 {
	return (b.Max.X - b.Min.X) * (b.Max.Y - b.Min.Y)
}

// Center returns the center point of b.
func (b Box) Center() Point {
	return Point{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2}
}

// Quadrant returns the i-th quadrant of b, i in [0,4): 0=SW, 1=SE, 2=NW,
// 3=NE. The four quadrants tile b exactly (shared borders).
func (b Box) Quadrant(i int) Box {
	c := b.Center()
	switch i {
	case 0:
		return Box{b.Min, c}
	case 1:
		return Box{Point{c.X, b.Min.Y}, Point{b.Max.X, c.Y}}
	case 2:
		return Box{Point{b.Min.X, c.Y}, Point{c.X, b.Max.Y}}
	case 3:
		return Box{c, b.Max}
	}
	panic("geom: quadrant index out of range")
}

// DistToPoint returns the minimum Euclidean distance from any point of b
// to p; zero when p is inside b. It is computed the way Point.Dist is (same
// overflow beyond ±1e150), from a dx and dy that no point of b undercuts,
// so the bound never exceeds the distance to a point inside the box.
//
// The maxima are the built-in max, which the compiler turns into a few
// comparison instructions, not math.Max, which is a call, so DistToPoint
// inlines. The two agree for every point and every box with Min <= Max,
// signed zeros, infinities and NaN included.
func (b Box) DistToPoint(p Point) float64 {
	dx := max(b.Min.X-p.X, p.X-b.Max.X, 0)
	dy := max(b.Min.Y-p.Y, p.Y-b.Max.Y, 0)
	return math.Sqrt(dx*dx + dy*dy)
}

// BoxSize is the length of a box as AppendBoxBytes writes it.
const BoxSize = 32

// AppendBoxBytes appends b's binary form to dst: Min.X, Min.Y, Max.X,
// Max.Y as little-endian IEEE 754 bits, BoxSize bytes.
func AppendBoxBytes(dst []byte, b Box) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Min.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Min.Y))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Max.X))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Max.Y))
}

// BoxFromBytes reads a box AppendBoxBytes wrote. Anything shorter reads
// as the zero box rather than panicking.
func BoxFromBytes(b []byte) Box {
	if len(b) < BoxSize {
		return Box{}
	}
	return Box{
		Min: Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		},
		Max: Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		},
	}
}

// Segment is a line segment between two endpoints.
type Segment struct {
	A, B Point
}

func (s Segment) String() string { return string(s.Append(nil)) }

// Append appends s's text form, "[(ax,ay)-(bx,by)]", to b.
func (s Segment) Append(b []byte) []byte {
	b = s.A.Append(append(b, '['))
	return append(s.B.Append(append(b, '-')), ']')
}

// Eq reports whether s and t have the same endpoints in either order.
func (s Segment) Eq(t Segment) bool {
	return (s.A.Eq(t.A) && s.B.Eq(t.B)) || (s.A.Eq(t.B) && s.B.Eq(t.A))
}

// MBR returns the minimum bounding rectangle of s.
func (s Segment) MBR() Box {
	return MakeBox(s.A.X, s.A.Y, s.B.X, s.B.Y)
}

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// IntersectsBox reports whether s has at least one point inside or on the
// border of b. Used by the PMR quadtree to decide which quadrants a
// segment belongs to and to answer window queries.
func (s Segment) IntersectsBox(b Box) bool {
	// Trivial accept: an endpoint inside.
	if b.Contains(s.A) || b.Contains(s.B) {
		return true
	}
	// Trivial reject: MBRs disjoint.
	if !s.MBR().Intersects(b) {
		return false
	}
	// The segment crosses the box iff it crosses one of its four edges.
	corners := [4]Point{
		{b.Min.X, b.Min.Y}, {b.Max.X, b.Min.Y},
		{b.Max.X, b.Max.Y}, {b.Min.X, b.Max.Y},
	}
	for i := 0; i < 4; i++ {
		if s.IntersectsSegment(Segment{corners[i], corners[(i+1)%4]}) {
			return true
		}
	}
	return false
}

// orient returns the sign of the cross product (b-a) x (c-a):
// +1 counter-clockwise, -1 clockwise, 0 collinear.
func orient(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether collinear point c lies on segment ab.
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// IntersectsSegment reports whether s and t share at least one point.
func (s Segment) IntersectsSegment(t Segment) bool {
	o1 := orient(s.A, s.B, t.A)
	o2 := orient(s.A, s.B, t.B)
	o3 := orient(t.A, t.B, s.A)
	o4 := orient(t.A, t.B, s.B)
	if o1 != o2 && o3 != o4 {
		return true
	}
	switch {
	case o1 == 0 && onSegment(s.A, s.B, t.A):
		return true
	case o2 == 0 && onSegment(s.A, s.B, t.B):
		return true
	case o3 == 0 && onSegment(t.A, t.B, s.A):
		return true
	case o4 == 0 && onSegment(t.A, t.B, s.B):
		return true
	}
	return false
}

// DistToPoint returns the minimum distance from p to any point of s.
func (s Segment) DistToPoint(p Point) float64 {
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return s.A.Dist(p)
	}
	t := ((p.X-s.A.X)*dx + (p.Y-s.A.Y)*dy) / l2
	t = math.Max(0, math.Min(1, t))
	return p.Dist(Point{s.A.X + t*dx, s.A.Y + t*dy})
}
