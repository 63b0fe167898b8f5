// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -id fig5 [-runs 30] [-seed 42] [-hours 720] [-csv out.csv]
//	experiments -all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sompi/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		list     = flag.Bool("list", false, "list experiment ids and exit")
		id       = flag.String("id", "", "experiment id to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		runs     = flag.Int("runs", 0, "Monte Carlo replications per configuration (0 = default)")
		seed     = flag.Uint64("seed", 0, "market + sampling seed (0 = default)")
		hours    = flag.Float64("hours", 0, "synthesized market length in hours (0 = default)")
		csv      = flag.String("csv", "", "also write the table as CSV to this file")
		parallel = flag.Int("parallel", 0, "replay and tournament-cell worker count (0 = GOMAXPROCS, 1 = serial; results are identical)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Artifact)
		}
		return
	}

	params := experiments.Params{Seed: *seed, MarketHours: *hours, Runs: *runs, Workers: *parallel}
	switch {
	case *all:
		for _, e := range experiments.Registry() {
			tab, dur := experiments.Timing(e.ID, e.Run, params)
			fmt.Println(tab)
			fmt.Printf("[%s took %v]\n\n", e.ID, dur.Round(1e7))
		}
	case *id != "":
		e, err := experiments.ByID(*id)
		if err != nil {
			log.Fatal(err)
		}
		tab, dur := experiments.Timing(e.ID, e.Run, params)
		fmt.Println(tab)
		fmt.Printf("[%s took %v]\n", e.ID, dur.Round(1e7))
		if *csv != "" {
			f, err := os.Create(*csv)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := tab.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
