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

// FuzzLowerHull holds the suffix hulls to what the subtree cut needs of
// them. The points split round-robin into one to three groups, and the
// hull of their combinations — each (Σ cs, Π e), built group by group as
// the search builds it — is drawn from the combinations, starts at the
// cheapest one, and its minimum of cs + y·e, deflated by 2⁻³⁰, is at most
// every combination's value computed the way LeafBound computes it: the
// spot costs summed and the E[Ratio] product multiplied out from the
// first group on, then od.T and the rate. Every input is checked at its
// own factors and at y = 0, 1e-300, 1 and 1e300.
func FuzzLowerHull(f *testing.F) {
	const half = 1 << 31
	r := stats.NewRNG(45)
	for n := 1; n <= 8; n++ {
		pts := make([][2]uint32, n)
		for i := range pts {
			pts[i] = [2]uint32{uint32(r.Float64() * (1 << 24)), uint32(r.Float64() * (1 << 32))}
		}
		f.Add(hullGrid(pts...), uint8(0), 0.37, 41.5, 2.72)
	}
	for groups := uint8(1); groups <= 2; groups++ {
		for n := 2; n <= 18; n += 4 {
			pts := make([][2]uint32, n)
			for i := range pts {
				pts[i] = [2]uint32{uint32(r.Float64() * (1 << 24)), uint32(r.Float64() * (1 << 32))}
			}
			f.Add(hullGrid(pts...), groups, 0.37, 41.5, 2.72)
		}
	}
	for _, pts := range [][][2]uint32{
		{{5000, half}}, // a single point
		{{5000, half}, {5000, half / 2}, {5000, 7}},                        // equal costs
		{{9000, half}, {3000, half}, {6000, half}},                         // equal E[Ratio]
		{{1000, 3 * half / 2}, {2000, half}, {3000, half / 2}, {4000, 0}},  // collinear
		{{1000, 3 * half / 2}, {1000, 3 * half / 2}, {4000, 0}, {4000, 0}}, // duplicates
		{{0, 1}, {0, 0}, {1, 0}},                                           // costs and E[Ratio] at zero
	} {
		for groups := uint8(0); groups <= 2; groups++ {
			f.Add(hullGrid(pts...), groups, 0.5, 100.0, 3.0)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, groups uint8, eProd, odT, rate float64) {
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
		g := 1 + int(groups%3)
		if len(pts) < g {
			return
		}
		grids := make([][]hullPoint, g)
		for i, p := range pts {
			grids[i%g] = append(grids[i%g], p)
		}
		// The set {0, ..., g−1}, reached from its highest group down, as
		// the searcher reaches a subset's suffix.
		h := newSuffixHulls(grids)
		node := int32(0)
		for j := g - 1; j >= 0; j-- {
			node = h.child(node, j)
		}
		hull := h.hull(node)

		// combos holds each combination as the builder sums it, from the
		// last group back; picks the grid index per group.
		type combo struct {
			p     hullPoint
			picks []int
		}
		combos := []combo{{hullPoint{0, 1}, nil}}
		for k := g - 1; k >= 0; k-- {
			var next []combo
			for i, a := range grids[k] {
				for _, b := range combos {
					next = append(next, combo{hullPoint{a.cs + b.p.cs, a.e * b.p.e}, append([]int{i}, b.picks...)})
				}
			}
			combos = next
		}
		if len(hull) == 0 || len(hull) > len(combos) {
			t.Fatalf("hull of %d combinations has %d points", len(combos), len(hull))
		}
		cheapest := math.Inf(1)
		for _, c := range combos {
			cheapest = math.Min(cheapest, c.p.cs)
		}
		if hull[0].cs != cheapest {
			t.Fatalf("hull %v starts above the cheapest combination %v of %v", hull, cheapest, grids)
		}
		for _, p := range hull {
			in := false
			for _, c := range combos {
				in = in || c.p == p
			}
			if !in {
				t.Fatalf("hull point %v is not a combination of %v", p, grids)
			}
		}
		check := func(eProd, odT, rate float64) {
			y := eProd * odT * rate
			min := hullMin(hull, y)
			for _, c := range combos {
				cs, e := 0.0, eProd
				for k, i := range c.picks {
					cs += grids[k][i].cs
					e *= grids[k][i].e
				}
				if v := cs + e*odT*rate; min*(1-0x1p-30) > v {
					t.Fatalf("y %v: hull %v minimum %v is above the value %v of %v", y, hull, min, v, c.picks)
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
