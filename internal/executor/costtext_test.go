package executor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkCostText fails t unless appendCost formats x byte for byte as
// strconv.AppendFloat(x, 'f', 2, 64) does, after whatever b holds.
func checkCostText(t *testing.T, x float64) {
	t.Helper()
	prefix := []byte("cost=")
	got := string(appendCost(prefix, x))
	want := string(strconv.AppendFloat(prefix, x, 'f', 2, 64))
	if got != want {
		t.Fatalf("appendCost(%v) [bits %#x] = %q, strconv gives %q", x, math.Float64bits(x), got, want)
	}
}

// TestCostTextMatchesStrconv checks the plan line's cost formatter
// against strconv: half-way cases written in decimal (none is a tie in
// binary) and in binary (exact ties, rounded to even), zeros,
// subnormals, the boundary where strconv takes over, negatives, NaN,
// the infinities, and a million seeded values over every magnitude a
// cost can have.
func TestCostTextMatchesStrconv(t *testing.T) {
	for _, x := range []float64{
		0.005, 0.015, 0.025, 0.125, 0.375, 0.625, 0.875, 2.5, 9.995, 99.995,
		1e6 + 0.005, 0.994999, 0.995, 0.9950000001, 1.005, 1.015, 1.125,
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-300, 0.004999,
		0.01, 0.1, 1, 10, 100, 4, 7.5, 12.25, 12.75, 4.0001, 100.27, 4503.6,
		1e14, 1e15 - 0.125, math.Nextafter(1e15, 0), 1e15, math.Nextafter(1e15, 2e15),
		1 << 52, 1 << 53, 1e17, 1e20, math.MaxFloat64,
		-0.005, -0.125, -1.005, -9.995, -1e15, -1e20, -0.001,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkCostText(t, x)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		var x float64
		switch i % 4 {
		case 0: // any magnitude a cost has: 10^-4 .. 10^16
			x = math.Pow(10, r.Float64()*20-4)
		case 1: // the hundredths, then nudged: the ties of the decimal text
			x = (float64(r.Int63n(1e9)) + 0.5) / 100
		case 2: // exact binary ties, k/8
			x = float64(r.Int63n(1<<40)) / 8
		default: // any bit pattern that is a finite non-negative number
			x = math.Abs(math.Float64frombits(r.Uint64()))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
		}
		checkCostText(t, x)
		checkCostText(t, -x)
	}
}

// FuzzCostText checks appendCost against strconv for any float64.
func FuzzCostText(f *testing.F) {
	for _, x := range []float64{0, 0.005, 0.125, 9.995, 99.995, 1e6 + 0.005, 1e15, -1.5, math.NaN(), math.Inf(-1)} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkCostText(t, math.Float64frombits(bits))
	})
}
