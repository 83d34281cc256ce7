// Package catalog is the miniature system catalog of this reproduction:
// data types and typed datums (this file), the operator table with
// PostgreSQL-style selectivity procedures (operator.go), the access
// method table mirroring the paper's pg_am entry (am.go), and the
// operator classes that tie an access method to a type and its strategy
// operators (opclass.go) — the paper's Tables 2, 4 and 5.
package catalog

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// Type enumerates the column types of the mini engine.
type Type uint8

const (
	Int Type = iota + 1
	Float
	Text
	Point
	Box
	Segment
)

func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Text:
		return "VARCHAR"
	case Point:
		return "POINT"
	case Box:
		return "BOX"
	case Segment:
		return "SEGMENT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// TypeByName resolves SQL type names (VARCHAR, TEXT, INT, POINT, ...).
func TypeByName(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT":
		return Int, nil
	case "FLOAT", "REAL", "DOUBLE":
		return Float, nil
	case "VARCHAR", "TEXT", "STRING":
		return Text, nil
	case "POINT":
		return Point, nil
	case "BOX":
		return Box, nil
	case "SEGMENT", "LSEG":
		return Segment, nil
	default:
		return 0, fmt.Errorf("catalog: unknown type %q", name)
	}
}

// Datum is one typed value.
type Datum struct {
	Typ Type
	I   int64
	F   float64
	S   string
	P   geom.Point
	B   geom.Box
	G   geom.Segment
}

// Constructors.
func NewInt(v int64) Datum            { return Datum{Typ: Int, I: v} }
func NewFloat(v float64) Datum        { return Datum{Typ: Float, F: v} }
func NewText(v string) Datum          { return Datum{Typ: Text, S: v} }
func NewPoint(v geom.Point) Datum     { return Datum{Typ: Point, P: v} }
func NewBox(v geom.Box) Datum         { return Datum{Typ: Box, B: v} }
func NewSegment(v geom.Segment) Datum { return Datum{Typ: Segment, G: v} }

// Equal reports deep equality of two datums of the same type.
func (d Datum) Equal(o Datum) bool {
	if d.Typ != o.Typ {
		return false
	}
	switch d.Typ {
	case Int:
		return d.I == o.I
	case Float:
		return d.F == o.F
	case Text:
		return d.S == o.S
	case Point:
		return d.P.Eq(o.P)
	case Box:
		return d.B == o.B
	case Segment:
		return d.G.Eq(o.G)
	}
	return false
}

func (d Datum) String() string {
	switch d.Typ {
	case Int:
		return strconv.FormatInt(d.I, 10)
	case Float:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case Text:
		return d.S
	case Point:
		return d.P.String()
	case Box:
		return d.B.String()
	case Segment:
		return d.G.String()
	default:
		return "?"
	}
}

// Append appends the datum's String form to b without building the
// string (result rendering, plan text, ANALYZE's tie order).
func (d Datum) Append(b []byte) []byte {
	switch d.Typ {
	case Int:
		return strconv.AppendInt(b, d.I, 10)
	case Float:
		return strconv.AppendFloat(b, d.F, 'g', -1, 64)
	case Text:
		return append(b, d.S...)
	case Point:
		return d.P.Append(b)
	case Box:
		return d.B.Append(b)
	case Segment:
		return d.G.Append(b)
	default:
		return append(b, '?')
	}
}

// ParseLiteral converts the text form of a literal to a datum of the
// required type, PostgreSQL-style: the paper's Table 6 queries write
// points as '(0,1)' and boxes as '(0,0,5,5)'.
func ParseLiteral(t Type, text string) (Datum, error) {
	switch t {
	case Int:
		v, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return Datum{}, fmt.Errorf("catalog: bad INT literal %q", text)
		}
		return NewInt(v), nil
	case Float:
		v, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return Datum{}, fmt.Errorf("catalog: bad FLOAT literal %q", text)
		}
		return NewFloat(v), nil
	case Text:
		return NewText(text), nil
	case Point:
		fs, err := parseFloats(text, 2)
		if err != nil {
			return Datum{}, fmt.Errorf("catalog: bad POINT literal %q: %v", text, err)
		}
		return NewPoint(geom.Point{X: fs[0], Y: fs[1]}), nil
	case Box:
		fs, err := parseFloats(text, 4)
		if err != nil {
			return Datum{}, fmt.Errorf("catalog: bad BOX literal %q: %v", text, err)
		}
		return NewBox(geom.MakeBox(fs[0], fs[1], fs[2], fs[3])), nil
	case Segment:
		fs, err := parseFloats(text, 4)
		if err != nil {
			return Datum{}, fmt.Errorf("catalog: bad SEGMENT literal %q: %v", text, err)
		}
		return NewSegment(geom.Segment{
			A: geom.Point{X: fs[0], Y: fs[1]},
			B: geom.Point{X: fs[2], Y: fs[3]},
		}), nil
	default:
		return Datum{}, fmt.Errorf("catalog: cannot parse literal for type %v", t)
	}
}

func parseFloats(text string, n int) ([]float64, error) {
	clean := strings.Map(func(r rune) rune {
		switch r {
		case '(', ')', '[', ']':
			return -1
		}
		return r
	}, text)
	parts := strings.Split(clean, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d coordinates, got %d", n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Tuple is one table row.
type Tuple []Datum

// EncodeTuple serializes a tuple for heap storage.
func EncodeTuple(t Tuple) []byte {
	sz := 2
	for _, d := range t {
		sz += 1 + datumSize(d)
	}
	buf := make([]byte, sz)
	binary.LittleEndian.PutUint16(buf, uint16(len(t)))
	off := 2
	for _, d := range t {
		buf[off] = byte(d.Typ)
		off++
		off += encodeDatum(buf[off:], d)
	}
	return buf
}

func datumSize(d Datum) int {
	switch d.Typ {
	case Int, Float:
		return 8
	case Text:
		return 2 + len(d.S)
	case Point:
		return 16
	case Box, Segment:
		return 32
	}
	return 0
}

func encodeDatum(buf []byte, d Datum) int {
	switch d.Typ {
	case Int:
		binary.LittleEndian.PutUint64(buf, uint64(d.I))
		return 8
	case Float:
		binary.LittleEndian.PutUint64(buf, math.Float64bits(d.F))
		return 8
	case Text:
		binary.LittleEndian.PutUint16(buf, uint16(len(d.S)))
		copy(buf[2:], d.S)
		return 2 + len(d.S)
	case Point:
		putF(buf, d.P.X)
		putF(buf[8:], d.P.Y)
		return 16
	case Box:
		putF(buf, d.B.Min.X)
		putF(buf[8:], d.B.Min.Y)
		putF(buf[16:], d.B.Max.X)
		putF(buf[24:], d.B.Max.Y)
		return 32
	case Segment:
		putF(buf, d.G.A.X)
		putF(buf[8:], d.G.A.Y)
		putF(buf[16:], d.G.B.X)
		putF(buf[24:], d.G.B.Y)
		return 32
	}
	return 0
}

func putF(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getF(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// fixedDatumSize is the encoded size of a datum of each type after its type
// byte; a text's characters follow its two length bytes.
var fixedDatumSize = [...]int{Int: 8, Float: 8, Text: 2, Point: 16, Box: 32, Segment: 32}

// DecodeTuple parses a tuple written by EncodeTuple; bytes that are no
// such tuple — a damaged page — are an error.
func DecodeTuple(buf []byte) (Tuple, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("catalog: short tuple")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	t := make(Tuple, 0, n)
	off := 2
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return nil, fmt.Errorf("catalog: truncated tuple")
		}
		d := Datum{Typ: Type(buf[off])}
		off++
		if int(d.Typ) >= len(fixedDatumSize) || fixedDatumSize[d.Typ] == 0 {
			return nil, fmt.Errorf("catalog: unknown datum type %d", d.Typ)
		}
		size := fixedDatumSize[d.Typ]
		if off+size > len(buf) {
			return nil, fmt.Errorf("catalog: truncated tuple")
		}
		switch d.Typ {
		case Int:
			d.I = int64(binary.LittleEndian.Uint64(buf[off:]))
		case Float:
			d.F = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		case Text:
			l := int(binary.LittleEndian.Uint16(buf[off:]))
			if off+size+l > len(buf) {
				return nil, fmt.Errorf("catalog: truncated tuple")
			}
			d.S = string(buf[off+size : off+size+l])
			off += l
		case Point:
			d.P = geom.Point{X: getF(buf[off:]), Y: getF(buf[off+8:])}
		case Box:
			d.B = geom.Box{
				Min: geom.Point{X: getF(buf[off:]), Y: getF(buf[off+8:])},
				Max: geom.Point{X: getF(buf[off+16:]), Y: getF(buf[off+24:])},
			}
		case Segment:
			d.G = geom.Segment{
				A: geom.Point{X: getF(buf[off:]), Y: getF(buf[off+8:])},
				B: geom.Point{X: getF(buf[off+16:]), Y: getF(buf[off+24:])},
			}
		}
		off += size
		t = append(t, d)
	}
	return t, nil
}
