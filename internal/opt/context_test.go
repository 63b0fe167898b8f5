package opt

import (
	"context"
	"errors"
	"testing"
	"time"

	"sompi/internal/app"
	"sompi/internal/cloud"
)

// fullSearchConfig is a deliberately large search (exhaustive, serial,
// all twelve markets on an eight-level grid): ~2·10^6 leaves, several
// hundred milliseconds, long enough that a mid-flight cancellation lands
// while workers are still descending the bid grids on any machine. (The
// default knobs' ~10^5 leaves finish in about 30 ms.)
func fullSearchConfig(m *cloud.Market) Config {
	return Config{
		Profile:        app.BT(),
		Market:         m,
		Deadline:       200,
		Workers:        1,
		DisablePruning: true,
		MaxGroups:      12,
		GridLevels:     8,
	}
}

func TestConfigKnobsOverrideDefaults(t *testing.T) {
	m := testMarket(5)
	cfg := smallConfig(m, app.BT(), 60)
	cfg.Kappa, cfg.Workers, cfg.GridLevels, cfg.MaxGroups = 1, 1, 2, 2
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Groups) > 1 {
		t.Fatalf("Kappa 1 produced %d groups", len(res.Plan.Groups))
	}

	// A knob that invalidates the config surfaces as ErrInvalidConfig.
	cfg = smallConfig(m, app.BT(), 60)
	cfg.Kappa = 9
	if _, err := OptimizeContext(context.Background(), cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("kappa 9 > max groups 8 returned %v, want ErrInvalidConfig", err)
	}
}

func TestOptimizeContextCancellationStopsSearchEarly(t *testing.T) {
	m := testMarket(7)
	full, err := OptimizeContext(context.Background(), fullSearchConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	if full.Evals < 1_000_000 {
		t.Fatalf("full search only evaluated %d plans; too small to observe cancellation", full.Evals)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	partial, err := OptimizeContext(ctx, fullSearchConfig(m))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	// The Evals counter is the proof of early abort: the cancelled search
	// must have evaluated strictly fewer plans than the full one. The 5ms
	// fuse is orders of magnitude shorter than the full search even under
	// the race detector, so equality would mean cancellation was ignored.
	if partial.Evals >= full.Evals {
		t.Fatalf("cancelled search ran to completion: %d evals (full search: %d)", partial.Evals, full.Evals)
	}
	t.Logf("full search %d evals; cancelled after %d", full.Evals, partial.Evals)
}

func TestOptimizeContextPreCancelled(t *testing.T) {
	m := testMarket(7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeContext(ctx, fullSearchConfig(m)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context returned %v, want context.Canceled", err)
	}
}

func TestConfigValidation(t *testing.T) {
	m := testMarket(5)
	base := smallConfig(m, app.BT(), 60)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil market", func(c *Config) { c.Market = nil }},
		{"negative deadline", func(c *Config) { c.Deadline = -1 }},
		{"zero deadline", func(c *Config) { c.Deadline = 0 }},
		{"slack >= 1", func(c *Config) { c.Slack = 1.5 }},
		{"negative kappa", func(c *Config) { c.Kappa = -1 }},
		{"negative grid levels", func(c *Config) { c.GridLevels = -2 }},
		{"kappa over max groups", func(c *Config) { c.Kappa = 6; c.MaxGroups = 4 }},
		{"max-all-fail over 1", func(c *Config) { c.MaxAllFail = 1.5 }},
		{"negative workers", func(c *Config) { c.Workers = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := OptimizeContext(context.Background(), cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("got %v, want ErrInvalidConfig", err)
			}
		})
	}
}

func TestSentinelErrorsAreDistinct(t *testing.T) {
	if errors.Is(ErrInvalidConfig, ErrDeadlineInfeasible) || errors.Is(ErrNoCandidates, ErrInvalidConfig) {
		t.Fatal("sentinels must be distinct")
	}
}

func TestBuildGroupsReturnsErrNoCandidates(t *testing.T) {
	m := testMarket(5)
	cfg := smallConfig(m, app.BT(), 60)
	cfg.Candidates = []cloud.MarketKey{{Type: "no-such-type", Zone: "us-east-1a"}}
	if _, err := OptimizeContext(context.Background(), cfg); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("unknown candidate type returned %v, want ErrNoCandidates", err)
	}
	cfg.Candidates = []cloud.MarketKey{{Type: cloud.M1Small.Name, Zone: "nowhere-9z"}}
	if _, err := OptimizeContext(context.Background(), cfg); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("unknown candidate zone returned %v, want ErrNoCandidates", err)
	}
}
