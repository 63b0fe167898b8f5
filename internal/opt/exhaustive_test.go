package opt

import (
	"context"
	"errors"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/stats"
	"sompi/internal/trace"
)

// fuzzBytes hands out a fuzz input a byte at a time, zeros once it runs
// out, so every input decodes to some case.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// tinyCase decodes raw into a small adversarial search: a market of 1–5
// shards, each 1–5 flat price runs of 48–250 h at 0–1.5× its type's
// on-demand price, free runs included, some levels drawn from a pool
// every shard shares and some shards copying the previous one's runs, so
// spot costs tie within a type; and a preset, a deadline of 1–5× its
// fastest on-demand run, κ 1–4, 3–6 grid levels and MaxAllFail 0 or 0.1.
func tinyCase(raw []byte) Config {
	b := fuzzBytes(raw)
	p := planMissPresets[b.next()%len(planMissPresets)]
	profile, _ := app.ByName(p)
	cat := cloud.DefaultCatalog()
	cfg := Config{
		Profile:    profile,
		Deadline:   FastestOnDemand(cat, profile).T * (1 + float64(b.next())/64),
		Kappa:      1 + b.next()%4,
		GridLevels: 3 + b.next()%4,
	}
	if b.next()%2 == 1 {
		cfg.MaxAllFail = 0.1
	}
	shards := 1 + b.next()%5
	var pool [4]float64
	for i := range pool {
		pool[i] = float64(b.next()) / 255 * 1.5
	}
	type run struct{ frac, hours float64 }
	var keys []cloud.MarketKey
	for _, it := range cat {
		for _, z := range cloud.DefaultZones() {
			keys = append(keys, cloud.MarketKey{Type: it.Name, Zone: z})
		}
	}
	traces := make(map[cloud.MarketKey]*trace.Trace)
	var runs []run
	for k := 0; k < shards; k++ {
		key := keys[b.next()%len(keys)]
		if copyPrev := b.next(); k == 0 || copyPrev%4 != 0 {
			runs = runs[:0:0]
			for l := 1 + b.next()%5; l > 0; l-- {
				frac := float64(b.next()&0x7f) / 127 * 1.5
				if v := b.next(); v&0x80 != 0 {
					frac = pool[v%len(pool)]
				}
				runs = append(runs, run{frac, float64(48 + b.next()%203)})
			}
		}
		it, _ := cat.ByName(key.Type)
		var prices []float64
		for _, r := range runs {
			for n := int(r.hours / trace.DefaultStep); n > 0; n-- {
				prices = append(prices, r.frac*it.OnDemand)
			}
		}
		traces[key] = trace.New(trace.DefaultStep, prices)
	}
	cfg.Market = cloud.NewMarket(cat, cloud.DefaultZones(), traces)
	return cfg
}

// FuzzOptimizeMatchesExhaustive holds the pruned search to the exhaustive
// one on tiny adversarial markets (tinyCase): the same plan and estimate
// to the bit, the same error, a plan Validate accepts and a spot plan
// within the deadline. Every leaf counts once, in Evals if the search
// visited it or in Pruned if a bound settled it, so the pruned search's
// Evals + Pruned equals the exhaustive search's Evals: a cut that counts
// its leaves twice, or not at all, fails here, on tied spot costs too.
func FuzzOptimizeMatchesExhaustive(f *testing.F) {
	r := stats.NewRNG(46)
	for i := 0; i < 24; i++ {
		raw := make([]byte, 64)
		for j := range raw {
			raw[j] = byte(r.Float64() * 256)
		}
		if i%2 == 1 {
			// The largest space: 5× deadline, κ 4, 6 levels, 5 shards.
			raw[1], raw[2], raw[3], raw[5] = 255, 3, 3, 4
		}
		f.Add(raw)
	}
	// Four m1 shards running the same levels, two of them drawn from the
	// shared pool, and a fifth on one pooled level: spot costs tie across
	// zones and across shards.
	f.Add([]byte{
		0, 64, 3, 3, 1, 4, // BT, 2× deadline, κ 4, 6 levels, MaxAllFail 0.1, 5 shards
		40, 40, 90, 200, // the pool
		0, 1, 2, 60, 0x80, 4, 90, 0, 150, 20, 0x81, 0, // m1.small/a: 3 runs
		1, 0, 2, 0, 3, 0, // three shards copy it
		4, 1, 0, 10, 0x80, 200, // m1.medium/b: one pooled run
	})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 256 {
			return
		}
		cfg := tinyCase(raw)
		ctx := context.Background()
		pruned, err := OptimizeContext(ctx, cfg)
		full := cfg
		full.DisablePruning = true
		want, wantErr := OptimizeContext(ctx, full)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("pruned error %v, exhaustive %v", err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrDeadlineInfeasible) {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if got := fingerprint(pruned); got != fingerprint(want) {
			t.Fatalf("pruned plan\n%sexhaustive plan\n%s", got, fingerprint(want))
		}
		if pruned.Evals+pruned.Pruned != want.Evals {
			t.Fatalf("pruned search counted %d + %d leaves and evaluations, exhaustive %d",
				pruned.Evals, pruned.Pruned, want.Evals)
		}
		if err != nil {
			return
		}
		if err := pruned.Plan.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(pruned.Plan.Groups) > 0 && pruned.Est.Time > cfg.Deadline {
			t.Fatalf("spot plan takes %v h past the %v h deadline", pruned.Est.Time, cfg.Deadline)
		}
	})
}
