// LAMMPS scaling study (Section 5.3.1): with few processes the run is
// computation-intensive and cheap small instances win; with many
// processes communication dominates and cc2.8xlarge becomes the right
// fleet. Compares SOMPI against the paper's comparison strategies at both
// scales.
package main

import (
	"context"
	"fmt"
	"log"

	"sompi"
)

func main() {
	market := sompi.GenerateMarket(24*30, 11)

	for _, procs := range []int{32, 128} {
		p := sompi.WorkloadLAMMPS(procs)
		var baseCost, baseTime float64
		for _, it := range sompi.DefaultCatalog() {
			h := sompi.EstimateHours(p, it)
			if baseTime == 0 || h < baseTime {
				baseTime = h
				m := (p.Procs + it.Cores - 1) / it.Cores
				baseCost = h * it.OnDemand * float64(m)
			}
		}
		deadline := baseTime * 1.5
		fmt.Printf("== LAMMPS with %d processes (%s): baseline $%.0f in %.1fh ==\n",
			procs, p.Class, baseCost, baseTime)

		runner := &sompi.Runner{Market: market, Profile: p}
		for _, s := range []sompi.Strategy{
			sompi.NewOnDemand(),
			sompi.NewMaratheOpt(market),
			sompi.NewSOMPI(market),
		} {
			st, err := sompi.MonteCarloContext(context.Background(), s, runner, sompi.MCConfig{
				Deadline: deadline, Runs: 5, Seed: 3,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-12s $%6.0f (%.2fx baseline), %.1fh\n",
				st.Name, st.Cost.Mean(), st.Cost.Mean()/baseCost, st.Hours.Mean())
		}
		fmt.Println()
	}
}
