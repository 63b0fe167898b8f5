package opt

import (
	"cmp"
	"math"
	"slices"

	"sompi/internal/model"
)

// hullPoint is one bid combination of some groups as a leaf bound sees
// it: its summed spot cost and its product of E[Ratio]. For one group it
// is a grid bid.
type hullPoint struct{ cs, e float64 }

// loopDeflate is LeafBound's 2⁻³⁰ deflation taken twice: once for the
// bound itself, once for the subtree cut's different association of the
// spot-cost sum, the E[Ratio] product and its hull minimum, whose
// rounding is ~1e-15 relative.
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

// sortedGrids returns every group's grid points in ascending spot cost,
// cut from one slab: the bulk count's sorted levels and the suffix
// hulls' inputs.
func sortedGrids(prepared [][]*model.PreparedGroup) [][]hullPoint {
	total := 0
	for _, bids := range prepared {
		total += len(bids)
	}
	grids := make([][]hullPoint, len(prepared))
	slab := make([]hullPoint, total)
	for i, bids := range prepared {
		grid := slab[:len(bids):len(bids)]
		slab = slab[len(bids):]
		for j, pg := range bids {
			grid[j] = hullPoint{pg.CostSpot(), pg.ERatio()}
		}
		slices.SortStableFunc(grid, func(a, b hullPoint) int { return cmp.Compare(a.cs, b.cs) })
		grids[i] = grid
	}
	return grids
}

// suffixHulls builds, once a search, the lower hull of (Σ spot cost,
// Π E[Ratio]) over the bid combinations of each group set the search
// cuts below. A set is a trie node keyed from its highest group down:
// the node of {j} ∪ S, for j below every group of S, is S's kids[j], and
// node 0 is the empty set, whose hull is the one point (0, 1). The best
// completion of a fixed bid of group j lies on S's hull, so {j} ∪ S's
// hull is the lower hull of j's grid points combined with S's hull, and
// a one-group hull is its grid's own: cs + 0 and e·1 are exact. Nodes,
// child tables and hulls are cut from slabs; no key depends on the
// number of groups.
type suffixHulls struct {
	grids [][]hullPoint
	nodes []suffixNode
	kids  []int32     // the unused tail of the child-table slab
	free  []hullPoint // the unused tail of the hull slab
	cand  []hullPoint // one build's candidate points
}

// suffixNode is one group set: its lowest group, the node of the rest,
// the hull once built and the table of its one-lower-group extensions.
type suffixNode struct {
	group, below int32
	hull         []hullPoint
	kids         []int32
}

// Slab sizes: the plan-miss shape (8 groups, κ 4, 6 grid levels) makes
// at most 64 nodes, 162 child slots and a few hundred hull points.
const (
	suffixNodes = 64
	kidsChunk   = 256
	hullChunk   = 512
)

func newSuffixHulls(grids [][]hullPoint) *suffixHulls {
	h := &suffixHulls{grids: grids, nodes: make([]suffixNode, 1, suffixNodes)}
	h.nodes[0] = suffixNode{group: -1, hull: []hullPoint{{0, 1}}, kids: make([]int32, len(grids))}
	return h
}

// child returns the node of {j} ∪ the set at node, making it if it is
// new; j is below every group of that set.
func (h *suffixHulls) child(node int32, j int) int32 {
	if c := h.nodes[node].kids[j]; c != 0 {
		return c
	}
	if len(h.kids) < j {
		h.kids = make([]int32, max(j, kidsChunk))
	}
	c := int32(len(h.nodes))
	h.nodes = append(h.nodes, suffixNode{group: int32(j), below: node, kids: h.kids[:j:j]})
	h.kids = h.kids[j:]
	h.nodes[node].kids[j] = c
	return c
}

// hull returns the set's lower hull, building it (and the hulls below it)
// on first use. Its y = 0 end is the set's cheapest combination.
func (h *suffixHulls) hull(node int32) []hullPoint {
	if hull := h.nodes[node].hull; hull != nil {
		return hull
	}
	below := h.hull(h.nodes[node].below)
	h.cand = h.cand[:0]
	for _, g := range h.grids[h.nodes[node].group] {
		for _, b := range below {
			h.cand = append(h.cand, hullPoint{g.cs + b.cs, g.e * b.e})
		}
	}
	if len(h.free) < len(h.cand) {
		h.free = make([]hullPoint, max(len(h.cand), hullChunk))
	}
	hull := lowerHull(h.free[:0], h.cand)
	hull = hull[:len(hull):len(hull)]
	h.free = h.free[len(hull):]
	h.nodes[node].hull = hull
	return hull
}
