// Deadline study (Figure 7 style): how the cost of a compute-intensive
// campaign falls as its deadline loosens, and how the selected on-demand
// recovery type steps down the catalog.
package main

import (
	"context"
	"fmt"
	"log"

	"sompi"
)

func main() {
	market := sompi.GenerateMarket(24*30, 7)
	bt := sompi.WorkloadBT()

	var baseline float64
	for _, it := range sompi.DefaultCatalog() {
		if h := sompi.EstimateHours(bt, it); baseline == 0 || h < baseline {
			baseline = h
		}
	}

	fmt.Println("deadline-mult  expected-cost  groups  recovery")
	for _, mult := range []float64{1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0} {
		res, err := sompi.OptimizeContext(context.Background(), sompi.Config{
			Profile:  bt,
			Market:   market.Window(0, 96),
			Deadline: baseline * mult,
		})
		if err != nil {
			log.Printf("mult %.2f: %v", mult, err)
			continue
		}
		fmt.Printf("%12.2f  $%11.0f  %6d  %s\n",
			mult, res.Est.Cost, len(res.Plan.Groups), res.Plan.Recovery.Instance.Name)
	}
}
