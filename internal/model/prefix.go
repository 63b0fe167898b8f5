package model

// PrefixStack prices the leaves of a depth-first subset search without
// re-deriving what sibling leaves share. The groups placed above a leaf
// are pushed in subset order; each push stands for the running survival
// product Π_i P(Ratio_i > x) as one merged step function, beside the
// running spot-cost sum. The last group of a subset is never pushed:
// LeafCost integrates its own step against the top of the stack in one
// two-way walk, so the grid bids under one prefix share its product.
//
// A level is merged on demand. Push records the group and the level's
// merge cursors; the support points and products are made, a chunk at a
// time and in the order an eager merge would make them, only as a leaf
// walk (or the level above) reads past what is there. Most walks stop
// early, so most of each level is never made.
//
// Only the ratio side is stacked: most leaves are rejected on cost, which
// needs E[min Ratio] and the spot-cost sum only, and most of those stop
// partway, once the partial cost is past the caller's limit; a leaf that
// passes gets its full Estimate from Evaluator.EvaluatePrepared. A walk
// LeafCost finishes equals that Estimate's Cost to the bit (DESIGN §6 has
// the argument). A PrefixStack must not be shared between goroutines.
//
// Beside each level's spot-cost sum runs the product of its groups'
// E[Ratio]: LeafBound prices a leaf from the two alone, a lower bound on
// its cost that lets the caller reject most leaves before any walk.
type PrefixStack struct {
	// steps[0] is the empty product; steps[d] covers the first d pushes.
	steps []ratioStep
}

// ratioStep is a right-continuous step function on x > 0: tail[k] on
// (vals[k-1], vals[k]], tail[n] beyond the last support point once the
// level is done. Until then vals[:n] and tail[:n] are the merged prefix,
// and i and j are the merge cursors into the level below and into the
// pushed group's own step (gx, gv); size bounds n.
type ratioStep struct {
	vals, tail []float64
	n, size    int
	done       bool
	i, j       int
	gx, gv     []float64
	costSpot   float64
	// eProd is Π E[Ratio_i] over the level's groups, 1 at the empty level.
	eProd float64
}

// mergeChunk is how many support points grow merges into a level per call.
const mergeChunk = 8

// ratioStep returns the group's own survival step: its Ratio distribution
// past a leading 0, which lies outside the integral's domain.
func (pg *PreparedGroup) ratioStep() (vals, tail []float64) {
	vals, tail = pg.ratioVals, pg.ratioTail
	if len(vals) > 0 && vals[0] <= 0 {
		vals, tail = vals[1:], tail[1:]
	}
	return vals, tail
}

// NewPrefixStack returns a stack for at most depth pushes, its buffers
// sized once for groups drawn from grid so a search over grid never
// allocates in Push or LeafCost (a larger group grows its level).
func NewPrefixStack(grid [][]*PreparedGroup, depth int) *PrefixStack {
	points := 0
	for _, bids := range grid {
		for _, pg := range bids {
			if n := len(pg.ratioVals); n > points {
				points = n
			}
		}
	}
	// Level d merges at most d·points support points, plus one tail; level
	// 1 is its group's own step and needs no buffer.
	total := 0
	for d := 2; d <= depth; d++ {
		total += 2*d*points + 1
	}
	slab := make([]float64, total)
	steps := make([]ratioStep, depth+1)
	steps[0].tail, steps[0].done, steps[0].eProd = []float64{1}, true, 1
	for d := 2; d <= depth; d++ {
		n := d * points
		steps[d].vals, slab = slab[:n:n], slab[n:]
		steps[d].tail, slab = slab[:n+1:n+1], slab[n+1:]
	}
	return &PrefixStack{steps: steps[:1]}
}

// Push places pg below the groups already on the stack. It merges
// nothing: the new level starts empty, with its cursors at the start.
func (s *PrefixStack) Push(pg *PreparedGroup) {
	if pushAudit != nil {
		pushAudit(s, pg)
	}
	n := len(s.steps)
	s.steps = s.steps[:n+1]
	below, l := &s.steps[n-1], &s.steps[n]
	gx, gv := pg.ratioStep()
	l.costSpot = below.costSpot + pg.costSpot
	l.eProd = below.eProd * pg.eRatio
	if n == 1 {
		// The empty product is 1 and 1·t is exact: the first level is the
		// group's own step, done as it stands.
		l.vals, l.tail, l.n, l.size, l.done = gx, gv, len(gx), len(gx), true
		return
	}
	l.gx, l.gv = gx, gv
	l.n, l.i, l.j, l.done = 0, 0, 0, false
	l.size = below.size + len(gx)
	if len(l.vals) < l.size { // tail's length is always one more
		l.vals, l.tail = make([]float64, l.size), make([]float64, l.size+1)
	}
}

// EProd reports Π E[Ratio_i] over the pushed groups (1 when none is),
// the factor LeafBound multiplies a last group's E[Ratio] by.
func (s *PrefixStack) EProd() float64 { return s.steps[len(s.steps)-1].eProd }

// Pop removes the most recently pushed group.
func (s *PrefixStack) Pop() { s.steps = s.steps[:len(s.steps)-1] }

// grow merges up to mergeChunk more support points into level d, growing
// the level below whenever its cursor reaches the end of what is there.
// The points and the products vs[i]*gv[j] are the ones a whole two-way
// merge of the two steps makes, in its order; the level is done, with its
// last tail element set, once both sides are exhausted.
func (s *PrefixStack) grow(d int) {
	l, below := &s.steps[d], &s.steps[d-1]
	ox, ov, gx, gv := l.vals, l.tail, l.gx, l.gv
	i, j, k := l.i, l.j, l.n
	end := k + mergeChunk
	for k < end {
		if i == below.n {
			if !below.done {
				s.grow(d - 1)
				continue
			}
			// The level below is exhausted and holds at its last tail element.
			hold := below.tail[i]
			for ; j < len(gx) && k < end; j, k = j+1, k+1 {
				ox[k], ov[k] = gx[j], hold*gv[j]
			}
			if j == len(gx) {
				ov[k], l.done = hold*gv[j], true
			}
			break
		}
		xs, vs := below.vals[:below.n], below.tail
		if j == len(gx) {
			// The group is exhausted and holds at its last tail element.
			for hold := gv[j]; i < len(xs) && k < end; i, k = i+1, k+1 {
				ox[k], ov[k] = xs[i], vs[i]*hold
			}
			continue
		}
		for ; i < len(xs) && j < len(gx) && k < end; k++ {
			ov[k] = vs[i] * gv[j]
			next := xs[i]
			switch g := gx[j]; {
			case next < g:
				i++
			case g < next:
				next = g
				j++
			default:
				i++
				j++
			}
			ox[k] = next
		}
	}
	if mergeAudit != nil {
		mergeAudit(k - l.n)
	}
	l.i, l.j, l.n = i, j, k
}

// pushAudit and mergeAudit are test-only observers: every group Push
// places, and how many support points each grow merges. Nothing outside
// the package's tests sets them.
var (
	pushAudit  func(s *PrefixStack, pg *PreparedGroup)
	mergeAudit func(points int)
)

// boundDeflate scales LeafBound down by 2⁻³⁰ relative, far more than the
// ~1e-13 the walk's and the product's rounding can differ by, so a bound
// above a limit means the exact cost is above it too.
const boundDeflate = 1 - 0x1p-30

// LeafBound is a lower bound on LeafCost(last, odT, rate, +Inf), in O(1).
// Each group's Ratio lies in [0, 1] and its survival P(Ratio_i > x) does
// not increase there, so Chebyshev's integral inequality for similarly
// ordered functions gives E[min_i Ratio_i] = ∫₀¹ Π_i P(Ratio_i > x) dx
// ≥ Π_i ∫₀¹ P(Ratio_i > x) dx = Π_i E[Ratio_i]; DESIGN §6 has the rest.
// A bound strictly above a limit means LeafCost at that limit would
// return within false.
func (s *PrefixStack) LeafBound(last *PreparedGroup, odT, rate float64) float64 {
	top := &s.steps[len(s.steps)-1]
	return (top.costSpot + last.costSpot + top.eProd*last.eRatio*odT*rate) * boundDeflate
}

// LeafCost prices the plan made of the pushed groups followed by last;
// odT and rate are the recovery fleet's OnDemand.T and Rate(). The walk
// stops once the partial cost, which only grows along it (DESIGN §6), is
// strictly above limit, and returns it with within false. Otherwise cost
// is the Estimate.Cost Evaluator.EvaluatePrepared returns for the same
// groups in that order, to the bit; limit +Inf always walks in full.
func (s *PrefixStack) LeafCost(last *PreparedGroup, odT, rate, limit float64) (cost float64, within bool) {
	costSpot, eMinRatio, within := s.leaf(last, odT, rate, limit)
	return costSpot + eMinRatio*odT*rate, within
}

// leaf integrates the top step against last's own, stopping as LeafCost
// describes: the leaf's Estimate.CostSpot and (the partial sum of)
// Estimate.EMinRatio. It grows the top level as the walk reaches the end
// of what is merged.
func (s *PrefixStack) leaf(last *PreparedGroup, odT, rate, limit float64) (costSpot, e float64, within bool) {
	d := len(s.steps) - 1
	top := &s.steps[d]
	costSpot = top.costSpot + last.costSpot
	if costSpot > limit {
		return costSpot, 0, false
	}
	gx, gv := last.ratioStep()
	i, j := 0, 0
	prev := 0.0
	for {
		xs, vs := top.vals[:top.n], top.tail
		for i < len(xs) && j < len(gx) {
			prod := vs[i] * gv[j]
			next := xs[i]
			switch g := gx[j]; {
			case next < g:
				i++
			case g < next:
				next = g
				j++
			default:
				i++
				j++
			}
			e += (next - prev) * prod
			prev = next
			if costSpot+e*odT*rate > limit {
				return costSpot, e, false
			}
		}
		if j == len(gx) || top.done {
			break
		}
		s.grow(d)
	}
	// One side is exhausted and holds at its last tail element; the other
	// walks on alone (the product's two factors commute exactly).
	if j < len(gx) {
		hold := top.tail[i]
		for k, x := range gx[j:] {
			e += (x - prev) * (gv[j+k] * hold)
			prev = x
			if costSpot+e*odT*rate > limit {
				return costSpot, e, false
			}
		}
		return costSpot, e, true
	}
	for hold := gv[j]; ; s.grow(d) {
		xs, vs := top.vals[:top.n], top.tail
		for ; i < len(xs); i++ {
			e += (xs[i] - prev) * (vs[i] * hold)
			prev = xs[i]
			if costSpot+e*odT*rate > limit {
				return costSpot, e, false
			}
		}
		if top.done {
			return costSpot, e, true
		}
	}
}
