package opt

import (
	"context"
	"testing"

	"sompi/internal/app"
)

// TestWorkUnitsCoverSpaceExactly: the units — one per first group —
// must partition the subset space, every leaf in exactly one unit, and
// run in ascending spot-cost floor, ties in index order. The exhaustive
// serial search's Evals count is the ground truth: 1 baseline evaluation
// plus one per leaf, which must equal the units' leaves summed, each
// first group's grid times every extension by up to κ−1 higher groups.
func TestWorkUnitsCoverSpaceExactly(t *testing.T) {
	m := testMarket(7)
	cfg := smallConfig(m, app.BT(), 60)
	cfg.DisablePruning = true
	cfg.Candidates = m.Keys()[:4] // = MaxGroups: no ranking evals
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	groups, _, err := buildGroups(cfg.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gridLen := make([]int, len(groups))
	for i, g := range groups {
		gridLen[i] = len(BidGrid(g, cfg.withDefaults().GridLevels))
	}
	kappa := cfg.Kappa
	if kappa > len(groups) {
		kappa = len(groups)
	}
	// ext(start, slots): the leaf factor of every extension by at most
	// slots groups drawn from start on, the empty one included.
	var ext func(start, slots int) int
	ext = func(start, slots int) int {
		n := 1
		for j := start; slots > 0 && j < len(gridLen); j++ {
			n += gridLen[j] * ext(j+1, slots-1)
		}
		return n
	}
	// Floors with a tie, out of index order.
	minSpot := []float64{3, 1, 3, 2}[:len(groups)]
	order := dispatchOrder(minSpot)
	seen := make([]bool, len(groups))
	total := 0
	for k, first := range order {
		if seen[first] {
			t.Fatalf("order %v runs unit %d twice", order, first)
		}
		seen[first] = true
		if k > 0 {
			if prev := order[k-1]; minSpot[prev] > minSpot[first] || minSpot[prev] == minSpot[first] && prev > first {
				t.Fatalf("order %v is not ascending in floors %v, ties by index", order, minSpot)
			}
		}
		total += gridLen[first] * ext(first+1, kappa-1)
	}
	if got := res.Evals - 1; len(order) != len(groups) || got != total {
		t.Fatalf("%d units account for %d leaves, exhaustive search evaluated %d", len(order), total, got)
	}
}
