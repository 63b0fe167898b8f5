package opt

import (
	"math"

	"sompi/internal/model"
)

// hullPoint is one grid bid of a group as a leaf bound sees it: its spot
// cost and its E[Ratio].
type hullPoint struct{ cs, e float64 }

// loopDeflate is LeafBound's 2⁻³⁰ deflation taken twice: once for the
// bound itself, once for the loop cut's different association of the
// E[Ratio] product and its hull minimum, whose rounding is ~1e-15
// relative.
const loopDeflate = (1 - 0x1p-30) * (1 - 0x1p-30)

// lowerHull appends to dst the points of pts that minimize cs + y·e for
// some y ≥ 0, in order of rising y: first the cheapest point (on a tie,
// the one with the lower E[Ratio]), last the one with the lowest
// E[Ratio]. Points between two hull points on one line are left out. Each
// step moves to the lower-E[Ratio] point whose break-even y against the
// current one is smallest, so it takes at most len(pts) steps of
// len(pts) each.
func lowerHull(dst, pts []hullPoint) []hullPoint {
	if len(pts) == 0 {
		return dst
	}
	cur := pts[0]
	for _, p := range pts[1:] {
		if p.cs < cur.cs || p.cs == cur.cs && p.e < cur.e {
			cur = p
		}
	}
	for {
		dst = append(dst, cur)
		found, next, at := false, hullPoint{}, 0.0
		for _, p := range pts {
			if !(p.e < cur.e) {
				continue
			}
			y := (p.cs - cur.cs) / (cur.e - p.e)
			if !found || y < at || y == at && p.e < next.e {
				found, next, at = true, p, y
			}
		}
		if !found {
			return dst
		}
		cur = next
	}
}

// hullMin is min over the hull of cs + y·e.
func hullMin(hull []hullPoint, y float64) float64 {
	m := math.Inf(1)
	for _, p := range hull {
		if v := p.cs + y*p.e; v < m {
			m = v
		}
	}
	return m
}

// buildHulls returns every group's lower hull over its bid grid, cut from
// one slab.
func buildHulls(prepared [][]*model.PreparedGroup) [][]hullPoint {
	total := 0
	for _, bids := range prepared {
		total += len(bids)
	}
	hulls := make([][]hullPoint, len(prepared))
	slab := make([]hullPoint, 2*total)
	pts, out := slab[:total], slab[total:total]
	for i, bids := range prepared {
		grid := pts[:len(bids):len(bids)]
		pts = pts[len(bids):]
		for j, pg := range bids {
			grid[j] = hullPoint{pg.CostSpot(), pg.ERatio()}
		}
		h := lowerHull(out, grid)
		hulls[i], out = h[:len(h):len(h)], h[len(h):]
	}
	return hulls
}
