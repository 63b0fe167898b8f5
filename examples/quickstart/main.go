// Quickstart for the v1 API: synthesize a spot market, ask SOMPI for a
// plan for the NPB BT campaign with a 1.5x deadline (cancellable,
// typed-error optimization), ingest fresh prices into the versioned
// market, and replay the adaptive strategy a few times to see realized
// costs. The same flow is served over HTTP by cmd/sompid.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"sompi"
)

func main() {
	// A month of spot-price history for every (type, zone) market.
	// Construction yields market version 1; every ingestion bumps it.
	market := sompi.GenerateMarket(24*30, 42)

	// The workload: NPB BT at 128 processes, profiled per Section 4.4.
	bt := sompi.WorkloadBT()
	var baseline float64
	for _, it := range sompi.DefaultCatalog() {
		if h := sompi.EstimateHours(bt, it); baseline == 0 || h < baseline {
			baseline = h
		}
	}
	deadline := baseline * 1.5
	fmt.Printf("BT baseline %.1fh; deadline %.1fh\n", baseline, deadline)

	// One-shot optimization from the first four days of history. The v1
	// entry point takes a context (cancel it and the κ-subset search
	// stops at the next evaluation) and a Config whose zero fields take
	// their defaults; out-of-range knobs come back as ErrInvalidConfig,
	// an unmeetable deadline as ErrDeadlineInfeasible — match them with
	// errors.Is.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sompi.OptimizeContext(ctx, sompi.Config{
		Profile:  bt,
		Market:   market.Window(0, 96),
		Deadline: deadline,
		Kappa:    4,
	})
	switch {
	case errors.Is(err, sompi.ErrDeadlineInfeasible):
		log.Fatalf("no fleet meets %.1fh: %v", deadline, err)
	case err != nil:
		log.Fatal(err)
	}
	fmt.Printf("plan: %d circle group(s), expected $%.0f in %.1fh (v%d market)\n",
		len(res.Plan.Groups), res.Est.Cost, res.Est.Time, market.Version())
	for _, gp := range res.Plan.Groups {
		fmt.Printf("  %s x%d, bid $%.3f/h, checkpoint every %.2fh\n",
			gp.Group.Key, gp.Group.M, gp.Bid, gp.Interval)
	}

	// Streaming ingestion: append an hour of fresh ticks to one market.
	// Traces are immutable — views captured above stay consistent — and
	// the version bump is what invalidates sompid's plan cache.
	fresh := []float64{0.05, 0.05, 0.06, 0.05, 0.07, 0.05, 0.05, 0.05, 0.06, 0.05, 0.05, 0.05}
	version, err := market.Append(sompi.MarketKey{Type: "m1.medium", Zone: "us-east-1a"}, fresh)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d samples; market now v%d\n", len(fresh), version)

	// Replay the full adaptive strategy against the market. The context
	// variant validates the config (typed errors instead of panics) and
	// is deterministic at any worker count for a fixed seed.
	runner := &sompi.Runner{Market: market, Profile: bt}
	stats, err := sompi.MonteCarloContext(ctx, sompi.NewSOMPI(market), runner, sompi.MCConfig{
		Deadline: deadline, Runs: 5, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive SOMPI over %d replays: mean $%.0f, mean %.1fh, %d deadline misses\n",
		stats.Runs, stats.Cost.Mean(), stats.Hours.Mean(), stats.DeadlineMisses)
}
