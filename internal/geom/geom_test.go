package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxContains(t *testing.T) {
	b := MakeBox(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},
		{Point{10, 10}, true},
		{Point{10, 0}, true},
		{Point{-0.001, 5}, false},
		{Point{5, 10.001}, false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMakeBoxNormalizes(t *testing.T) {
	b := MakeBox(10, 8, 2, 3)
	if b.Min.X != 2 || b.Min.Y != 3 || b.Max.X != 10 || b.Max.Y != 8 {
		t.Fatalf("MakeBox did not normalize: %v", b)
	}
}

func TestBoxIntersects(t *testing.T) {
	a := MakeBox(0, 0, 5, 5)
	cases := []struct {
		b    Box
		want bool
	}{
		{MakeBox(4, 4, 9, 9), true},
		{MakeBox(5, 5, 9, 9), true}, // touching corner counts
		{MakeBox(6, 0, 9, 5), false},
		{MakeBox(1, 1, 2, 2), true}, // contained
		{MakeBox(-5, -5, 10, 10), true},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects symmetric (%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestBoxUnionArea(t *testing.T) {
	a := MakeBox(0, 0, 2, 2)
	b := MakeBox(1, 1, 4, 3)
	u := a.Union(b)
	if u != MakeBox(0, 0, 4, 3) {
		t.Fatalf("Union = %v", u)
	}
	if u.Area() != 12 {
		t.Fatalf("Area = %g, want 12", u.Area())
	}
}

func TestQuadrantsTile(t *testing.T) {
	b := MakeBox(0, 0, 100, 100)
	// Every quadrant must be inside the parent, and their corners must
	// reconstruct it.
	var u Box
	for i := 0; i < 4; i++ {
		q := b.Quadrant(i)
		if !b.ContainsBox(q) {
			t.Fatalf("quadrant %d %v escapes parent", i, q)
		}
		if i == 0 {
			u = q
		} else {
			u = u.Union(q)
		}
	}
	if u != b {
		t.Fatalf("quadrants do not tile parent: union %v", u)
	}
}

func TestBoxDistToPoint(t *testing.T) {
	b := MakeBox(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 5}, 0},
		{Point{0, 0}, 0},
		{Point{13, 4}, 3},
		{Point{5, -2}, 2},
		{Point{13, 14}, 5},
	}
	for _, c := range cases {
		if got := b.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

// TestBoxDistToPointMatchesMax: the built-in max gives, bit for bit, what
// math.Max gave, for boxes with Min <= Max over finite coordinates,
// infinities (the kd-tree's and point quadtree's root plane), differences
// of exactly zero or negative zero, and NaN where an infinite query meets
// an infinite edge — so an NN search pops the same order.
func TestBoxDistToPointMatchesMax(t *testing.T) {
	ref := func(b Box, p Point) float64 {
		dx := math.Max(0, math.Max(b.Min.X-p.X, p.X-b.Max.X))
		dy := math.Max(0, math.Max(b.Min.Y-p.Y, p.Y-b.Max.Y))
		return math.Sqrt(dx*dx + dy*dy)
	}
	r := rand.New(rand.NewSource(7))
	coord := func() float64 {
		switch r.Intn(8) {
		case 0:
			return math.Inf(-1)
		case 1:
			return math.Inf(1)
		case 2:
			return 0
		case 3:
			return math.Copysign(0, -1)
		case 4:
			return float64(r.Intn(5))
		}
		return (r.Float64() - 0.5) * 2e3
	}
	for i := 0; i < 200000; i++ {
		b := MakeBox(coord(), coord(), coord(), coord())
		p := Point{coord(), coord()}
		got, want := b.DistToPoint(p), ref(b, p)
		if math.IsNaN(got) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v.DistToPoint(%v) = %v, math.Max gives %v", b, p, got, want)
		}
	}
}

// TestBoxBytesRoundTrip: a box, infinite edges included, reads back from
// its 32 bytes as it was written, after whatever dst held; short input
// reads as the zero box.
func TestBoxBytesRoundTrip(t *testing.T) {
	for _, b := range []Box{
		MakeBox(1, 2, 3, 4),
		{Min: Point{math.Inf(-1), math.Inf(-1)}, Max: Point{math.Inf(1), math.Inf(1)}},
		{Min: Point{math.Copysign(0, -1), -5e-324}, Max: Point{math.MaxFloat64, 1e300}},
	} {
		enc := AppendBoxBytes([]byte("xy"), b)
		if len(enc) != 2+BoxSize || string(enc[:2]) != "xy" {
			t.Fatalf("AppendBoxBytes(%v) wrote %d bytes", b, len(enc)-2)
		}
		got := BoxFromBytes(enc[2:])
		for i, pair := range [][2]float64{{got.Min.X, b.Min.X}, {got.Min.Y, b.Min.Y}, {got.Max.X, b.Max.X}, {got.Max.Y, b.Max.Y}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%v round-trips to %v (coordinate %d)", b, got, i)
			}
		}
		if z := BoxFromBytes(enc[2 : 2+BoxSize-1]); z != (Box{}) {
			t.Fatalf("a short box reads as %v", z)
		}
	}
}

func TestSegmentIntersectsSegment(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Segment{Point{0, 0}, Point{4, 4}}, Segment{Point{0, 4}, Point{4, 0}}, true},
		{Segment{Point{0, 0}, Point{4, 0}}, Segment{Point{2, 0}, Point{6, 0}}, true},  // collinear overlap
		{Segment{Point{0, 0}, Point{4, 0}}, Segment{Point{5, 0}, Point{6, 0}}, false}, // collinear disjoint
		{Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{2, 2}, Point{3, 1}}, false},
		{Segment{Point{0, 0}, Point{2, 2}}, Segment{Point{2, 2}, Point{4, 0}}, true}, // shared endpoint
	}
	for _, c := range cases {
		if got := c.s.IntersectsSegment(c.u); got != c.want {
			t.Errorf("%v x %v = %v, want %v", c.s, c.u, got, c.want)
		}
		if got := c.u.IntersectsSegment(c.s); got != c.want {
			t.Errorf("symmetric %v x %v = %v, want %v", c.u, c.s, got, c.want)
		}
	}
}

func TestSegmentIntersectsBox(t *testing.T) {
	b := MakeBox(2, 2, 6, 6)
	cases := []struct {
		s    Segment
		want bool
	}{
		{Segment{Point{3, 3}, Point{5, 5}}, true},  // fully inside
		{Segment{Point{0, 0}, Point{8, 8}}, true},  // crosses through
		{Segment{Point{0, 4}, Point{3, 4}}, true},  // one end inside
		{Segment{Point{0, 0}, Point{1, 8}}, false}, // passes left of box
		{Segment{Point{0, 2}, Point{8, 2}}, true},  // runs along bottom edge
		{Segment{Point{7, 0}, Point{7, 8}}, false}, // right of box
	}
	for _, c := range cases {
		if got := c.s.IntersectsBox(b); got != c.want {
			t.Errorf("IntersectsBox(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},
		{Point{-3, 0}, 3},
		{Point{13, 4}, 5},
		{Point{7, 0}, 0},
	}
	for _, c := range cases {
		if got := s.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	// Degenerate segment behaves like a point.
	d := Segment{Point{1, 1}, Point{1, 1}}
	if got := d.DistToPoint(Point{4, 5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate DistToPoint = %g, want 5", got)
	}
}

func TestSegmentEq(t *testing.T) {
	s := Segment{Point{1, 2}, Point{3, 4}}
	if !s.Eq(Segment{Point{3, 4}, Point{1, 2}}) {
		t.Error("Eq should ignore endpoint order")
	}
	if s.Eq(Segment{Point{1, 2}, Point{3, 5}}) {
		t.Error("Eq false positive")
	}
}

// Property: union always contains both inputs; intersection test agrees
// with a sampled containment check.
func TestQuickUnionContains(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		a := MakeBox(clamp(x1), clamp(y1), clamp(x2), clamp(y2))
		b := MakeBox(clamp(x3), clamp(y3), clamp(x4), clamp(y4))
		u := a.Union(b)
		return u.ContainsBox(a) && u.ContainsBox(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

// Property: box/point distance is zero iff the box contains the point.
func TestQuickDistZeroIffContains(t *testing.T) {
	f := func(x1, y1, x2, y2, px, py float64) bool {
		b := MakeBox(clamp(x1), clamp(y1), clamp(x2), clamp(y2))
		p := Point{clamp(px), clamp(py)}
		return (b.DistToPoint(p) == 0) == b.Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a segment intersects the box of its own MBR, and any segment
// intersects a box containing one of its endpoints.
func TestQuickSegmentBox(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		s := Segment{
			Point{r.Float64() * 100, r.Float64() * 100},
			Point{r.Float64() * 100, r.Float64() * 100},
		}
		if !s.IntersectsBox(s.MBR()) {
			t.Fatalf("segment %v does not intersect own MBR", s)
		}
		b := MakeBox(s.A.X-1, s.A.Y-1, s.A.X+1, s.A.Y+1)
		if !s.IntersectsBox(b) {
			t.Fatalf("segment %v does not intersect box around endpoint", s)
		}
	}
}

// Property: segment-box intersection agrees with dense point sampling along
// the segment (sampling can only prove intersection, not absence; so check
// one direction).
func TestQuickSegmentBoxSampling(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		s := Segment{
			Point{r.Float64() * 100, r.Float64() * 100},
			Point{r.Float64() * 100, r.Float64() * 100},
		}
		b := MakeBox(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		sampleHit := false
		for j := 0; j <= 200; j++ {
			t := float64(j) / 200
			p := Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
			if b.Contains(p) {
				sampleHit = true
				break
			}
		}
		if sampleHit && !s.IntersectsBox(b) {
			t.Fatalf("sampling found hit but IntersectsBox=false: %v %v", s, b)
		}
	}
}

// TestTextFormsMatchFmt: Point, Box and Segment write their text forms
// with strconv instead of fmt, and must write exactly what fmt's %g wrote
// — the forms are what result rows carry and what ANALYZE counts distinct
// values by. Checked on the floats %g formats specially and on 10 000
// random coordinates of every magnitude; appending into a buffer with
// room allocates nothing.
func TestTextFormsMatchFmt(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e21, 1e20, 1e-5, 1e-4, -1e21, 123456789, 0.1, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64}
	r := rand.New(rand.NewSource(1))
	coord := func() float64 {
		switch r.Intn(4) {
		case 0:
			return special[r.Intn(len(special))]
		case 1:
			return float64(r.Intn(1000000)) / 1000
		case 2:
			return math.Float64frombits(r.Uint64())
		}
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(60)-30))
	}
	buf := make([]byte, 0, 256)
	for i := 0; i < 10000; i++ {
		p, q := Point{coord(), coord()}, Point{coord(), coord()}
		if i < len(special)*len(special) {
			p = Point{special[i/len(special)], special[i%len(special)]}
		}
		b, s := Box{p, q}, Segment{p, q}
		for _, c := range []struct{ got, want string }{
			{p.String(), fmt.Sprintf("(%g,%g)", p.X, p.Y)},
			{b.String(), fmt.Sprintf("(%g,%g,%g,%g)", b.Min.X, b.Min.Y, b.Max.X, b.Max.Y)},
			{s.String(), fmt.Sprintf("[(%g,%g)-(%g,%g)]", s.A.X, s.A.Y, s.B.X, s.B.Y)},
			{string(s.Append(buf[:0])), s.String()},
		} {
			if c.got != c.want {
				t.Fatalf("text form %q, fmt writes %q", c.got, c.want)
			}
		}
	}
	s := Segment{Point{-1.5e-300, math.Inf(1)}, Point{math.NaN(), 1e21}}
	if allocs := testing.AllocsPerRun(100, func() { buf = s.Append(buf[:0]) }); allocs != 0 {
		t.Errorf("Segment.Append into a buffer with room: %.0f allocations, want 0", allocs)
	}
}
