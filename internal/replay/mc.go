package replay

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"sompi/internal/model"
	"sompi/internal/obs"
	"sompi/internal/stats"
)

// Strategy is anything that can execute the runner's application against
// the market starting at a given absolute trace hour: the SOMPI adaptive
// loop, the paper's baselines, or a fixed plan.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Run executes the application with the given deadline, starting at
	// absolute market hour start. Implementations may consult history
	// strictly before start for training but must not peek forward.
	Run(r *Runner, deadline, start float64) (Outcome, error)
}

// MCStats aggregates the Monte Carlo replications of one strategy — the
// paper repeats each configuration over random trace start points and
// reports expected cost (Section 5.1).
type MCStats struct {
	Name string
	// Cost and Hours summarize the per-run totals.
	Cost, Hours stats.Summary
	// DeadlineMisses counts runs whose wall time exceeded the deadline.
	DeadlineMisses int
	// Runs is the number of successful replications; Failures counts
	// strategy errors (e.g. no feasible plan).
	Runs, Failures int
}

// MissRate reports the fraction of runs that missed the deadline.
func (s *MCStats) MissRate() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.DeadlineMisses) / float64(s.Runs)
}

// merge folds another worker's replications into s. Merging worker
// chunks in run order reproduces the serial accumulation exactly.
func (s *MCStats) merge(other *MCStats) {
	s.Cost.Merge(&other.Cost)
	s.Hours.Merge(&other.Hours)
	s.DeadlineMisses += other.DeadlineMisses
	s.Runs += other.Runs
	s.Failures += other.Failures
}

// String renders a one-line summary.
func (s *MCStats) String() string {
	return fmt.Sprintf("%-14s cost $%.0f ±%.0f  time %.1fh  miss %.0f%%  (n=%d, errors=%d)",
		s.Name, s.Cost.Mean(), s.Cost.Std(), s.Hours.Mean(), 100*s.MissRate(), s.Runs, s.Failures)
}

// MCConfig controls a Monte Carlo evaluation.
type MCConfig struct {
	// Deadline in hours.
	Deadline float64
	// Runs is the number of replications (the paper uses 100+ on EC2 and
	// up to 10^6 in simulation).
	Runs int
	// History is how many hours of price history before each start point
	// strategies may train on.
	History float64
	// Seed drives start-point sampling.
	Seed uint64
	// Workers is the number of concurrent replay workers. Zero means
	// runtime.GOMAXPROCS(0); 1 forces serial replay. Results are
	// identical at every worker count: replication i draws its start
	// point from its own RNG stream derived from (Seed, i), so the
	// sampled starts — and therefore every statistic — depend only on
	// Seed and Runs.
	Workers int
}

// Validate reports ErrInvalidConfig-wrapped errors for numeric fields
// that make the evaluation meaningless.
func (c MCConfig) Validate() error {
	switch {
	case math.IsNaN(c.Deadline) || c.Deadline <= 0:
		return fmt.Errorf("%w: non-positive deadline %v", ErrInvalidConfig, c.Deadline)
	case c.Runs <= 0:
		return fmt.Errorf("%w: non-positive run count %d", ErrInvalidConfig, c.Runs)
	case c.History < 0:
		return fmt.Errorf("%w: negative history %v", ErrInvalidConfig, c.History)
	case c.Workers < 0:
		return fmt.Errorf("%w: negative worker count %d", ErrInvalidConfig, c.Workers)
	}
	return nil
}

// MonteCarloContext replays the strategy Runs times from random start
// points and aggregates cost, time and deadline-miss statistics.
// Replications run concurrently on Workers goroutines; each replication
// owns a splitmix-derived RNG stream (stats.StreamRNG(Seed, i)), making
// the aggregate reproducible for a fixed Seed regardless of worker count
// and identical to a serial run.
//
// An invalid config is reported as ErrInvalidConfig and a market with no
// usable price history as ErrMarketTooShort. Cancelling ctx stops
// launching new replications; the partial statistics accumulated so far
// are returned together with ctx.Err().
func MonteCarloContext(ctx context.Context, st Strategy, r *Runner, cfg MCConfig) (MCStats, error) {
	if err := cfg.Validate(); err != nil {
		return MCStats{}, err
	}
	if r.Market.NumMarkets() == 0 || r.Market.MinDuration() <= 0 {
		return MCStats{}, fmt.Errorf("%w: no price samples to draw start points from", ErrMarketTooShort)
	}
	if cfg.History == 0 {
		cfg.History = 96
	}

	// Leave room after the start point for the run itself (deadline
	// overruns included) so the replay doesn't spend most of its time
	// clamped at the trace's final sample. The shortest trace governs:
	// sampling past it would run a strategy off the end of that market.
	// A start point also needs History hours of retained prices behind
	// it: on a compacted market, starts must clear the retention head by
	// the full training window, or strategies would train on windows
	// silently clamped (possibly to empty) by the ring buffer.
	dur := r.Market.MinDuration()
	lo := r.Market.RetainedStartFor(nil) + cfg.History
	hi := dur - 3*cfg.Deadline
	if lo >= dur {
		return MCStats{}, fmt.Errorf("%w: retained history ends at %.1fh, but a start point needs %.1fh of training prices behind it", ErrMarketTooShort, dur, cfg.History)
	}
	if hi <= lo {
		hi = lo + 1
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Runs {
		workers = cfg.Runs
	}

	ctx, msp := obs.StartSpan(ctx, "replay.montecarlo")
	if msp != nil {
		msp.AttrStr("strategy", st.Name())
		msp.AttrInt("runs", int64(cfg.Runs))
		msp.AttrInt("workers", int64(workers))
		msp.AttrInt("seed", int64(cfg.Seed))
		defer msp.End()
	}

	// Contiguous chunks per worker, merged in chunk order, reproduce the
	// serial insertion order of every observation.
	chunk := func(w int) (int, int) {
		base, rem := cfg.Runs/workers, cfg.Runs%workers
		lo := w*base + min(w, rem)
		size := base
		if w < rem {
			size++
		}
		return lo, lo + size
	}
	parts := make([]MCStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := &parts[w]
			first, last := chunk(w)
			// Each replication i draws from RNG stream (Seed, i); the chunk
			// span records the stream-ID range so a trace pins down exactly
			// which replications — and which random start points — it ran.
			_, csp := obs.StartSpan(ctx, "replay.mc.chunk")
			if csp != nil {
				csp.AttrInt("stream_first", int64(first))
				csp.AttrInt("stream_last", int64(last-1))
			}
			for i := first; i < last; i++ {
				if ctx.Err() != nil {
					break
				}
				rng := stats.StreamRNG(cfg.Seed, uint64(i))
				start := lo + rng.Float64()*(hi-lo)
				o, err := st.Run(r, cfg.Deadline, start)
				if err != nil {
					local.Failures++
					continue
				}
				local.Runs++
				local.Cost.Add(o.Cost)
				local.Hours.Add(o.Hours)
				if o.Hours > cfg.Deadline {
					local.DeadlineMisses++
				}
			}
			if csp != nil {
				csp.AttrInt("runs", int64(local.Runs))
				csp.AttrInt("failures", int64(local.Failures))
				csp.End()
			}
		}(w)
	}
	wg.Wait()

	out := MCStats{Name: st.Name()}
	for w := range parts {
		out.merge(&parts[w])
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// FixedPlan is the simplest strategy: build one plan from history at the
// start point, then replay it to completion (spot groups first, on-demand
// recovery if they all die). The paper's non-adaptive comparison
// algorithms are all FixedPlan strategies with different providers.
type FixedPlan struct {
	Label string
	// Provider builds the plan from the market history strictly before
	// start (no forward peeking).
	Provider func(r *Runner, deadline, start float64) (model.Plan, error)
}

// Name implements Strategy.
func (f FixedPlan) Name() string { return f.Label }

// Run implements Strategy.
func (f FixedPlan) Run(r *Runner, deadline, start float64) (Outcome, error) {
	plan, err := f.Provider(r, deadline, start)
	if err != nil {
		return Outcome{}, err
	}
	return r.RunToCompletion(plan, start), nil
}
