package opt

import "sort"

// workUnit is one schedulable slice of the κ-subset space: the subsets
// that start with exactly this group-index prefix. expand=false means
// only the prefix subset itself (its bid grid); expand=true means the
// prefix plus every extension by higher indices, i.e. the whole subtree
// below it. Splitting by prefix keeps the recursion's visit order
// inside each unit, which is what the strict-< canonical-order merge
// needs for a tie-break independent of the dispatch order.
type workUnit struct {
	prefix []int
	expand bool
	// est is the unit's leaf count (bid combinations), the balance
	// measure the splitter equalizes.
	est float64
	// hint is the prefix's spot-cost floor; dispatching cheap-floor
	// units first tends to tighten the incumbent early.
	hint float64
}

// unit sizing targets: enough units that the largest is a small
// fraction of the space (so the cheap-floor-first order reaches into
// every region early), but never so fine that units drop below a
// meaningful grain of leaves. The unit set fixes the visit order, so
// changing either constant moves Evals and Pruned (never the plan).
const (
	targetUnits  = 64
	minUnitGrain = 256
)

// buildUnits splits the subset space — all subsets of up to kappa of
// len(gridLen) groups — into balanced work units.
//
// The old first-index partitioning is the special case of stopping at
// prefix length 1, and it is heavily skewed: partition 0 contains every
// subset starting at 0, the lion's share of the space. buildUnits
// instead recursively splits any prefix whose subtree exceeds the grain
// into (a) the prefix's own subset and (b) one unit per child prefix,
// so unit sizes converge toward the grain regardless of skew.
//
// Unit boundaries depend only on (gridLen, kappa) — never on timing —
// so the unit set, and therefore the merged result and the search's
// counters, are a pure function of the grid shape.
func buildUnits(gridLen []int, minSpot []float64, kappa int) []workUnit {
	n := len(gridLen)
	// ext[i][r]: leaves contributed by all subsets of up to r further
	// groups drawn from indices >= i (including the empty extension,
	// which contributes the prefix's own leaf product factor 1).
	ext := make([][]float64, n+1)
	for i := range ext {
		ext[i] = make([]float64, kappa+1)
	}
	for r := 0; r <= kappa; r++ {
		ext[n][r] = 1
	}
	for i := n - 1; i >= 0; i-- {
		ext[i][0] = 1
		for r := 1; r <= kappa; r++ {
			ext[i][r] = ext[i+1][r] + float64(gridLen[i])*ext[i+1][r-1]
		}
	}

	total := ext[0][kappa] - 1 // all non-empty subsets
	grain := total / targetUnits
	if grain < minUnitGrain {
		grain = minUnitGrain
	}

	var units []workUnit
	var emit func(prefix []int, prod, hint float64)
	emit = func(prefix []int, prod, hint float64) {
		last := prefix[len(prefix)-1]
		slots := kappa - len(prefix)
		subtree := prod * ext[last+1][slots]
		if subtree <= grain || slots == 0 || last == n-1 {
			units = append(units, workUnit{
				prefix: append([]int(nil), prefix...),
				expand: true,
				est:    subtree,
				hint:   hint,
			})
			return
		}
		// Too big: the prefix's own subset becomes one unit, each child
		// prefix recurses.
		units = append(units, workUnit{
			prefix: append([]int(nil), prefix...),
			est:    prod,
			hint:   hint,
		})
		for j := last + 1; j < n; j++ {
			emit(append(prefix, j), prod*float64(gridLen[j]), hint+minSpot[j])
		}
	}
	scratch := make([]int, 0, kappa)
	for i := 0; i < n; i++ {
		emit(append(scratch, i), float64(gridLen[i]), minSpot[i])
	}
	return units
}

// dispatchOrder returns unit indices in execution order: ascending
// spot-cost floor, so the likeliest-cheap regions run first and the
// incumbent tightens while most of the space is still ahead.
// Ties break on canonical (slice) order. The order affects only how
// fast pruning bites, never the merged result — that merge always walks
// canonical order.
func dispatchOrder(units []workUnit) []int {
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return units[order[a]].hint < units[order[b]].hint
	})
	return order
}
