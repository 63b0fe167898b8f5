package opt

import (
	"encoding/binary"
	"math"
	"testing"

	"sompi/internal/stats"
)

// hullGrid encodes points for FuzzLowerHull: eight bytes a point, a
// spot cost of c/1024 and an E[Ratio] of e/2³² for uint32s c and e.
func hullGrid(pts ...[2]uint32) []byte {
	raw := make([]byte, 0, 8*len(pts))
	for _, p := range pts {
		raw = binary.LittleEndian.AppendUint32(raw, p[0])
		raw = binary.LittleEndian.AppendUint32(raw, p[1])
	}
	return raw
}

// FuzzLowerHull holds lowerHull to what the loop cut needs of it: the
// hull is drawn from the grid, starts at the grid's cheapest point, and
// its minimum of cs + y·e, deflated by 2⁻³⁰, is at most every grid
// point's value computed the way LeafBound computes it, with the E[Ratio]
// product multiplied in before od.T and the rate. Every input is checked
// at its own factors and at y = 0, 1e-300, 1 and 1e300.
func FuzzLowerHull(f *testing.F) {
	const half = 1 << 31
	r := stats.NewRNG(45)
	for n := 1; n <= 8; n++ {
		pts := make([][2]uint32, n)
		for i := range pts {
			pts[i] = [2]uint32{uint32(r.Float64() * (1 << 24)), uint32(r.Float64() * (1 << 32))}
		}
		f.Add(hullGrid(pts...), 0.37, 41.5, 2.72)
	}
	for _, pts := range [][][2]uint32{
		{{5000, half}}, // a single point
		{{5000, half}, {5000, half / 2}, {5000, 7}},                        // equal costs
		{{9000, half}, {3000, half}, {6000, half}},                         // equal E[Ratio]
		{{1000, 3 * half / 2}, {2000, half}, {3000, half / 2}, {4000, 0}},  // collinear
		{{1000, 3 * half / 2}, {1000, 3 * half / 2}, {4000, 0}, {4000, 0}}, // duplicates
		{{0, 1}, {0, 0}, {1, 0}},                                           // costs and E[Ratio] at zero
	} {
		f.Add(hullGrid(pts...), 0.5, 100.0, 3.0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, eProd, odT, rate float64) {
		if len(raw) > 8*64 {
			return
		}
		var pts []hullPoint
		for ; len(raw) >= 8; raw = raw[8:] {
			pts = append(pts, hullPoint{
				cs: float64(binary.LittleEndian.Uint32(raw)) / 1024,
				e:  float64(binary.LittleEndian.Uint32(raw[4:])) / (1 << 32),
			})
		}
		if len(pts) == 0 {
			return
		}
		hull := lowerHull(nil, pts)
		if len(hull) == 0 || len(hull) > len(pts) {
			t.Fatalf("hull of %d points has %d", len(pts), len(hull))
		}
		cheapest := math.Inf(1)
		for _, p := range pts {
			cheapest = math.Min(cheapest, p.cs)
		}
		if hull[0].cs != cheapest {
			t.Fatalf("hull %v starts above the cheapest point %v of %v", hull, cheapest, pts)
		}
		for _, h := range hull {
			in := false
			for _, p := range pts {
				in = in || p == h
			}
			if !in {
				t.Fatalf("hull point %v is not in the grid %v", h, pts)
			}
		}
		check := func(eProd, odT, rate float64) {
			y := eProd * odT * rate
			min := hullMin(hull, y)
			for _, p := range pts {
				if v := p.cs + eProd*p.e*odT*rate; min*(1-0x1p-30) > v {
					t.Fatalf("y %v: hull %v minimum %v is above %v's value %v", y, hull, min, p, v)
				}
			}
		}
		for _, y := range []float64{0, 1e-300, 1, 1e300} {
			check(y, 1, 1)
		}
		for _, x := range []float64{eProd, odT, rate} {
			if math.IsNaN(x) || x < 0 {
				return
			}
		}
		if y := eProd * odT * rate; !math.IsInf(y, 0) && !math.IsNaN(y) {
			check(eProd, odT, rate)
		}
	})
}
