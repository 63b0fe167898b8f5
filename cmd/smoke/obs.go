package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/opt"
)

// The obs stage holds the observability layer's overhead contract: the
// κ-subset search with no collector installed must run within
// obsTolerance of the serial-pruned ns/op recorded in obsBaselineFile,
// proving the disabled tracing path costs nothing measurable.
const (
	obsBaselineFile = "BENCH_opt.json"
	obsTolerance    = 0.02
	obsRuns         = 5
)

// obsBaseline is BENCH_opt.json: the search the gate times, the number
// it compares against, and the shape of the machine that number was
// taken on — nanoseconds do not transfer between machines.
type obsBaseline struct {
	MarketHours  float64 `json:"market_hours"`
	Seed         uint64  `json:"seed"`
	Profile      string  `json:"profile"`
	SerialPruned int64   `json:"serial_pruned_ns_per_op"`
	machineShape
}

type machineShape struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func thisMachine() machineShape {
	return machineShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

// timeSearch runs the baseline's serial pruned search obsRuns times with
// tracing disabled (no collector in the context) after one warm-up and
// returns each run's wall time.
func timeSearch(b obsBaseline) ([]time.Duration, error) {
	p, ok := app.ByName(b.Profile)
	if !ok {
		return nil, fmt.Errorf("baseline profile %q unknown", b.Profile)
	}
	cfg := opt.Config{
		Profile:  p,
		Market:   cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), b.MarketHours, b.Seed),
		Deadline: opt.FastestOnDemand(nil, p).T * 1.5,
		Workers:  1,
	}
	runs := make([]time.Duration, 0, obsRuns)
	for i := -1; i < obsRuns; i++ {
		start := time.Now()
		if _, err := opt.OptimizeContext(context.Background(), cfg); err != nil {
			return nil, fmt.Errorf("optimize: %w", err)
		}
		if i >= 0 {
			runs = append(runs, time.Since(start))
		}
	}
	return runs, nil
}

// obsStage compares best-of-obsRuns against the baseline. Best-of:
// scheduling noise only inflates individual runs, so the fastest run is
// the honest measure of the code path's cost, while genuine
// instrumentation overhead still shows in it. On a machine shaped
// unlike the baseline's the comparison means nothing and the stage is
// skipped rather than passed or failed on another CPU's nanoseconds.
func obsStage(e *env) error {
	raw, err := os.ReadFile(obsBaselineFile)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base obsBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", obsBaselineFile, err)
	}
	if base.SerialPruned <= 0 {
		return fmt.Errorf("%s has no serial_pruned_ns_per_op", obsBaselineFile)
	}
	if here := thisMachine(); here != base.machineShape {
		return skipped(fmt.Sprintf("%s was recorded on %+v, this machine is %+v (rewrite it here with `smoke obs-baseline`)",
			obsBaselineFile, base.machineShape, here))
	}
	runs, err := timeSearch(base)
	if err != nil {
		return err
	}
	best := runs[0]
	for _, r := range runs {
		best = min(best, r)
	}
	overhead := float64(best.Nanoseconds()-base.SerialPruned) / float64(base.SerialPruned)
	e.say("disabled-tracing serial-pruned best-of-%d %d ns/op, baseline %d ns/op, overhead %+.2f%% (budget %.0f%%)",
		obsRuns, best.Nanoseconds(), base.SerialPruned, 100*overhead, 100*obsTolerance)
	if overhead > obsTolerance {
		return fmt.Errorf("overhead %.2f%% exceeds the %.0f%% budget — the disabled observability path got slower (rewrite %s with `smoke obs-baseline` only if the slowdown is intended)",
			100*overhead, 100*obsTolerance, obsBaselineFile)
	}
	return nil
}

// obsBaselineStage rewrites the baseline on this machine: the mean of
// obsRuns runs (what a benchmark's ns/op is), beside the machine shape.
func obsBaselineStage(e *env) error {
	base := obsBaseline{MarketHours: 24 * 14, Seed: 42, Profile: app.BT().Name, machineShape: thisMachine()}
	runs, err := timeSearch(base)
	if err != nil {
		return err
	}
	var total time.Duration
	for _, r := range runs {
		total += r
	}
	base.SerialPruned = total.Nanoseconds() / int64(len(runs))
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(obsBaselineFile, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	e.say("wrote %s: serial-pruned %d ns/op on %+v", obsBaselineFile, base.SerialPruned, base.machineShape)
	return nil
}
