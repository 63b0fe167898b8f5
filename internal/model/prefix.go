package model

// PrefixStack prices the leaves of a depth-first subset search without
// re-deriving what sibling leaves share. The groups placed above a leaf
// are pushed in subset order; each push stores the running survival
// product Π_i P(Ratio_i > x) as one merged step function, beside the
// running spot-cost sum. The last group of a subset is never pushed:
// LeafCost integrates its own step against the top of the stack in one
// two-way walk, so the grid bids under one prefix share its product.
//
// Only the ratio side is stacked: most leaves are rejected on cost, which
// needs E[min Ratio] and the spot-cost sum only, and most of those stop
// partway, once the partial cost is past the caller's limit; a leaf that
// passes gets its full Estimate from Evaluator.EvaluatePrepared. A walk
// LeafCost finishes equals that Estimate's Cost to the bit (DESIGN §6 has
// the argument). A PrefixStack must not be shared between goroutines.
type PrefixStack struct {
	// steps[0] is the empty product; steps[d] covers the first d pushes.
	steps []ratioStep
}

// ratioStep is a right-continuous step function on x > 0: tail[k] on
// (vals[k-1], vals[k]], tail[len(vals)] beyond the last support point.
type ratioStep struct {
	vals, tail []float64
	costSpot   float64
}

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
	// Level d merges at most d·points support points, plus one tail.
	slab := make([]float64, 1+depth+depth*(depth+1)*points)
	steps := make([]ratioStep, depth+1)
	slab[0] = 1
	steps[0].tail, slab = slab[:1:1], slab[1:]
	for d := 1; d <= depth; d++ {
		n := d * points
		steps[d].vals, slab = slab[:0:n], slab[n:]
		steps[d].tail, slab = slab[:0:n+1], slab[n+1:]
	}
	return &PrefixStack{steps: steps[:1]}
}

// Push places pg below the groups already on the stack.
func (s *PrefixStack) Push(pg *PreparedGroup) {
	n := len(s.steps)
	s.steps = s.steps[:n+1]
	top, out := &s.steps[n-1], &s.steps[n]
	xs, vs := top.vals, top.tail
	gx, gv := pg.ratioStep()
	need := len(xs) + len(gx)
	if cap(out.vals) < need { // tail's capacity is always one more
		out.vals, out.tail = make([]float64, need), make([]float64, need+1)
	}
	ox, ov := out.vals[:need], out.tail[:need+1]
	i, j, k := 0, 0, 0
	for ; i < len(xs) && j < len(gx); k++ {
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
	// One side is exhausted and holds at its last tail element.
	for ; i < len(xs); i, k = i+1, k+1 {
		ox[k], ov[k] = xs[i], vs[i]*gv[j]
	}
	for ; j < len(gx); j, k = j+1, k+1 {
		ox[k], ov[k] = gx[j], vs[i]*gv[j]
	}
	ov[k] = vs[i] * gv[j]
	out.vals, out.tail, out.costSpot = ox[:k], ov[:k+1], top.costSpot+pg.costSpot
}

// Pop removes the most recently pushed group.
func (s *PrefixStack) Pop() { s.steps = s.steps[:len(s.steps)-1] }

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
// Estimate.EMinRatio.
func (s *PrefixStack) leaf(last *PreparedGroup, odT, rate, limit float64) (costSpot, e float64, within bool) {
	top := &s.steps[len(s.steps)-1]
	costSpot = top.costSpot + last.costSpot
	if costSpot > limit {
		return costSpot, 0, false
	}
	xs, vs := top.vals, top.tail
	gx, gv := last.ratioStep()
	i, j := 0, 0
	prev := 0.0
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
	// One side is exhausted and holds at its last tail element; the other
	// walks on alone (the product's two factors commute exactly).
	rx, rv, hold := xs[i:], vs[i:], gv[j]
	if j < len(gx) {
		rx, rv, hold = gx[j:], gv[j:], vs[i]
	}
	for k, x := range rx {
		e += (x - prev) * (rv[k] * hold)
		prev = x
		if costSpot+e*odT*rate > limit {
			return costSpot, e, false
		}
	}
	return costSpot, e, true
}
