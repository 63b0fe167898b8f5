package opt

import "sort"

// dispatchOrder returns the search's work units in the order the searcher
// drains them. Unit i is every subset whose lowest group is i: group i's
// own bid grid and every extension by higher groups, in the serial
// recursion's order. Units run in ascending spot-cost floor of their
// first group, ties in index order, so the likeliest-cheap regions run
// first and the incumbent tightens while most of the space is still
// ahead. The order moves Evals and Pruned, never the plan: the running
// best breaks cost ties toward the lower first group.
func dispatchOrder(minSpot []float64) []int {
	order := make([]int, len(minSpot))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return minSpot[order[a]] < minSpot[order[b]]
	})
	return order
}
