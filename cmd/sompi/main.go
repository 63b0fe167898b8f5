// Command sompi optimizes one MPI application run: given a workload, a
// deadline factor and a market seed, it prints the plan SOMPI chooses
// (circle groups, bids, checkpoint intervals, on-demand recovery type)
// and its expected cost/time, then optionally replays it.
//
// Usage:
//
//	sompi -app BT -deadline 1.5 [-seed 42] [-hours 720] [-replay 20] [-parallel N]
//	sompi explain -app BT -deadline 1.5 [-seed 42] [-hours 720] [-json]
//	sompi tournament [-strategies a,b] [-scenarios x,y] [-apps BT,FT]
//	                 [-deadlines 1.5,3] [-runs N] [-seed S] [-parallel N]
//	                 [-out FILE] [-json] [-smoke]
//
// The explain subcommand runs the same optimization with the decision
// trail enabled and renders why each candidate market was kept or
// rejected, how long every pipeline stage took, and what the search
// selected (-json dumps the raw trail instead). The tournament
// subcommand Monte Carlo-evaluates every registered planning strategy
// against every market scenario and prints a deterministic ranking
// report (see internal/strategy).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/opt"
	"sompi/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sompi: ")
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		runExplain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "tournament" {
		runTournament(os.Args[2:])
		return
	}
	var (
		name     = flag.String("app", "BT", "workload: BT SP LU FT IS BTIO LAMMPS-32 LAMMPS-128")
		deadline = flag.Float64("deadline", 1.5, "deadline as a multiple of Baseline Time")
		seed     = flag.Uint64("seed", 42, "market seed")
		hours    = flag.Float64("hours", 720, "market history length")
		replays  = flag.Int("replay", 0, "Monte Carlo replays of the adaptive strategy (0 = skip)")
		parallel = flag.Int("parallel", 0, "replay worker count (0 = GOMAXPROCS, 1 = serial; results are identical)")
	)
	flag.Parse()

	profile, ok := app.ByName(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), *hours, *seed)
	baselineFleet := opt.FastestOnDemand(nil, profile)
	dl := baselineFleet.T * *deadline

	fmt.Printf("workload %s (%s), %d processes\n", profile.Name, profile.Class, profile.Procs)
	fmt.Printf("baseline: %s x%d, %.1fh, $%.0f\n",
		baselineFleet.Instance.Name, baselineFleet.M, baselineFleet.T, baselineFleet.FullCost())
	fmt.Printf("deadline: %.1fh (%.2fx baseline)\n\n", dl, *deadline)

	train := m.Window(0, baselines.History)
	res, err := opt.OptimizeContext(context.Background(), opt.Config{Profile: profile, Market: train, Deadline: dl})
	if err != nil {
		log.Fatalf("optimization failed: %v", err)
	}
	printPlan(res)

	if *replays > 0 {
		r := &replay.Runner{Market: m, Profile: profile}
		st, err := replay.MonteCarloContext(context.Background(), baselines.SOMPI(m), r, replay.MCConfig{
			Deadline: dl, Runs: *replays, Seed: *seed, Workers: *parallel,
		})
		if err != nil {
			log.Fatalf("replay failed: %v", err)
		}
		fmt.Printf("\nadaptive replay: %s\n", st.String())
		fmt.Printf("normalized cost vs baseline: %.2f\n", st.Cost.Mean()/baselineFleet.FullCost())
	}
}

// runExplain is the `sompi explain` subcommand: the same optimization
// with the decision trail on, rendered for a human (or as JSON).
func runExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	var (
		name     = fs.String("app", "BT", "workload: BT SP LU FT IS BTIO LAMMPS-32 LAMMPS-128")
		deadline = fs.Float64("deadline", 1.5, "deadline as a multiple of Baseline Time")
		seed     = fs.Uint64("seed", 42, "market seed")
		hours    = fs.Float64("hours", 720, "market history length")
		asJSON   = fs.Bool("json", false, "dump the raw trail as JSON instead of rendering it")
	)
	fs.Parse(args)

	profile, ok := app.ByName(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), *hours, *seed)
	baselineFleet := opt.FastestOnDemand(nil, profile)
	dl := baselineFleet.T * *deadline

	train := m.Window(0, baselines.History)
	res, err := opt.OptimizeContext(context.Background(),
		opt.Config{Profile: profile, Market: train, Deadline: dl, Explain: true})
	if err != nil {
		log.Fatalf("optimization failed: %v", err)
	}
	ex := res.Explain

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ex); err != nil {
			log.Fatalf("encoding trail: %v", err)
		}
		return
	}

	fmt.Printf("workload %s, deadline %.1fh (%.2fx baseline)\n", profile.Name, dl, *deadline)
	fmt.Printf("search: kappa=%d grid=%d  baseline $%.0f on-demand\n\n",
		ex.Kappa, ex.GridLevels, ex.BaselineCost)
	fmt.Println("stages:")
	for _, st := range ex.Stages {
		fmt.Printf("  %-22s %s\n", st.Name, time.Duration(st.DurationNs).Round(time.Microsecond))
	}
	fmt.Printf("  %-22s %s\n", "total", time.Duration(ex.TotalNs).Round(time.Microsecond))
	fmt.Printf("\ncandidates (%d):\n", len(ex.Candidates))
	for _, d := range ex.Candidates {
		mark := "-"
		switch {
		case d.Selected:
			mark = "*"
		case d.Kept:
			mark = "+"
		}
		fmt.Printf("  %s %-26s %s\n", mark, d.Market, d.Reason)
	}
	fmt.Printf("\nselected: %v\n", ex.Selected)
	fmt.Printf("%d evaluations, %d pruned\n", ex.Evals, ex.Pruned)
	printPlan(res)
}

func printPlan(res opt.Result) {
	fmt.Printf("plan (expected cost $%.0f, expected time %.1fh, %d evaluations, %d pruned):\n",
		res.Est.Cost, res.Est.Time, res.Evals, res.Pruned)
	if len(res.Plan.Groups) == 0 {
		fmt.Println("  pure on-demand execution")
	}
	for _, gp := range res.Plan.Groups {
		fmt.Printf("  circle group %-24s x%-3d bid $%.3f/h, checkpoint every %.2fh\n",
			gp.Group.Key, gp.Group.M, gp.Bid, gp.Interval)
	}
	rec := res.Plan.Recovery
	fmt.Printf("  on-demand recovery: %s x%d ($%.2f/h fleet)\n",
		rec.Instance.Name, rec.M, rec.Rate())
	fmt.Printf("  P(all groups fail) = %.3f, E[recovered fraction] = %.3f\n",
		res.Est.PAllFail, res.Est.EMinRatio)
}
