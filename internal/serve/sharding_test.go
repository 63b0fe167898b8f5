package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/opt"
	"sompi/internal/serve"
	"sompi/internal/trace"
)

// shardTick is one deterministic ingestion event for the equivalence
// test: a few fresh samples appended to a single (type, zone) shard.
type shardTick struct {
	key     cloud.MarketKey
	samples []float64
}

// concat is the monolithic reference append: a fresh trace holding tr's
// samples followed by samples, on tr's clock.
func concat(tr *trace.Trace, samples []float64) *trace.Trace {
	prices := append(append([]float64(nil), tr.Prices...), samples...)
	return &trace.Trace{Step: tr.Step, Prices: prices, Head: tr.Head}
}

// equivalenceTicks spreads appends unevenly across shards — some keys
// get several ticks, most get none — so the sharded store's per-shard
// logs genuinely diverge in length before the comparison.
func equivalenceTicks() []shardTick {
	keys := []cloud.MarketKey{
		{Type: cloud.M1Medium.Name, Zone: cloud.ZoneA},
		{Type: cloud.M1Small.Name, Zone: cloud.ZoneB},
		{Type: cloud.C3XLarge.Name, Zone: cloud.ZoneC},
		{Type: cloud.M1Medium.Name, Zone: cloud.ZoneA}, // second tick, same shard
	}
	var ticks []shardTick
	for i, k := range keys {
		n := 2 + i%3
		s := make([]float64, n)
		for j := range s {
			s[j] = 0.02 + 0.001*float64(i*7+j)
		}
		ticks = append(ticks, shardTick{key: k, samples: s})
	}
	return ticks
}

// TestShardedPlanEquivalence is the refactor's acceptance bar: after an
// identical tick sequence, the sharded store and a monolithic-semantics
// reference market (traces concatenated by hand, then frozen into a new
// market) must produce byte-identical plans through the same optimizer
// config and response encoding.
func TestShardedPlanEquivalence(t *testing.T) {
	sharded := testMarket()

	// Reference path: capture the pre-tick traces, concatenate appends
	// manually, and build a fresh single-shot market from the result.
	refTraces := map[cloud.MarketKey]*trace.Trace{}
	for _, k := range sharded.Keys() {
		refTraces[k], _ = sharded.TraceFor(k)
	}
	for _, tk := range equivalenceTicks() {
		if _, err := sharded.Append(tk.key, tk.samples); err != nil {
			t.Fatalf("sharded append %v: %v", tk.key, err)
		}
		refTraces[tk.key] = concat(refTraces[tk.key], tk.samples)
	}
	ref := cloud.NewMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), refTraces)

	profile, _ := app.ByName("BT")
	req := smallPlan(60)
	plan := func(m cloud.MarketView) []byte {
		frontier := m.MinDuration()
		lo := math.Max(0, frontier-baselines.History)
		res, err := opt.OptimizeContext(context.Background(), req.Config(profile, m.Window(lo, frontier-lo)))
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		// Same version constant on both sides: the comparison is about
		// prices and plan bytes, not the stores' version counters.
		b, _ := json.Marshal(serve.BuildPlanResponse(1, res))
		return b
	}

	got, want := plan(sharded), plan(ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded plan differs from monolithic reference:\n got %s\nwant %s", got, want)
	}

	// The stores also agree on the raw substrate: every shard's trace is
	// sample-identical to the hand-concatenated reference.
	for _, k := range sharded.Keys() {
		a, _ := sharded.TraceFor(k)
		b, _ := ref.TraceFor(k)
		if a.Len() != b.Len() || a.Duration() != b.Duration() {
			t.Fatalf("%v: sharded %d samples / %vh, reference %d samples / %vh",
				k, a.Len(), a.Duration(), b.Len(), b.Duration())
		}
		for i := range a.Prices {
			if a.Prices[i] != b.Prices[i] {
				t.Fatalf("%v sample %d: %v vs %v", k, i, a.Prices[i], b.Prices[i])
			}
		}
	}
}

// TestShardedPlanEquivalenceOverHTTP repeats the equivalence check
// through the full service path: ticks ingested via /v1/prices, plan
// served via /v1/plan, compared against a library run on the
// hand-concatenated reference market.
func TestShardedPlanEquivalenceOverHTTP(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	refTraces := map[cloud.MarketKey]*trace.Trace{}
	base := testMarket()
	for _, k := range base.Keys() {
		refTraces[k], _ = base.TraceFor(k)
	}
	ticks := equivalenceTicks()
	for _, tk := range ticks {
		status, _, body := postJSON(t, ts.URL+"/v1/prices",
			serve.PriceTick{Type: tk.key.Type, Zone: tk.key.Zone, Prices: tk.samples})
		if status != http.StatusOK {
			t.Fatalf("ingest %v: %d %s", tk.key, status, body)
		}
		refTraces[tk.key] = concat(refTraces[tk.key], tk.samples)
	}
	ref := cloud.NewMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), refTraces)

	req := smallPlan(60)
	status, _, got := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, got)
	}

	profile, _ := app.ByName("BT")
	frontier := ref.MinDuration()
	lo := math.Max(0, frontier-baselines.History)
	res, err := opt.OptimizeContext(context.Background(), req.Config(profile, ref.Window(lo, frontier-lo)))
	if err != nil {
		t.Fatalf("library optimize: %v", err)
	}
	// The served market has seen len(ticks) appends past its base version.
	want, _ := json.Marshal(serve.BuildPlanResponse(uint64(1+len(ticks)), res))
	if !bytes.Equal(got, want) {
		t.Fatalf("served plan differs from monolithic-reference library plan:\n got %s\nwant %s", got, want)
	}
}

// TestCacheSurvivesUnrelatedShardTick is the fine-grained invalidation
// guarantee: a cached plan keyed to a restricted candidate set stays a
// byte-identical hit across ticks on shards outside its version vector,
// and is evicted the moment one of its own shards advances.
func TestCacheSurvivesUnrelatedShardTick(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := smallPlan(60)
	req.Types = []string{cloud.M1Medium.Name}
	req.Zones = []string{cloud.ZoneA}

	status, hdr, first := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "miss" {
		t.Fatalf("first restricted plan: %d, cache %q, want 200 miss", status, hdr.Get("X-Sompid-Cache"))
	}
	var resp serve.PlanResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, g := range resp.Plan.Groups {
		if g.Type != cloud.M1Medium.Name || g.Zone != cloud.ZoneA {
			t.Fatalf("restricted plan used group %s/%s outside types/zones filter", g.Type, g.Zone)
		}
	}

	// Tick a shard the request never touches: the plan's version vector
	// is unchanged, so the entry must remain a hit — this is the whole
	// point of vector cache keys over a global version.
	tick := serve.PriceTick{Type: cloud.C3XLarge.Name, Zone: cloud.ZoneC, Prices: []float64{0.4, 0.41}}
	if status, _, body := postJSON(t, ts.URL+"/v1/prices", tick); status != http.StatusOK {
		t.Fatalf("unrelated ingest: %d %s", status, body)
	}
	status, hdr, second := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "hit" {
		t.Fatalf("plan after unrelated tick: %d, cache %q, want 200 hit", status, hdr.Get("X-Sompid-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("post-unrelated-tick hit is not byte-identical:\n%s\n%s", first, second)
	}

	// Tick the request's own shard: its vector entry advances, the key
	// changes, and the next request recomputes.
	tick = serve.PriceTick{Type: cloud.M1Medium.Name, Zone: cloud.ZoneA, Prices: []float64{0.05, 0.05}}
	if status, _, body := postJSON(t, ts.URL+"/v1/prices", tick); status != http.StatusOK {
		t.Fatalf("own-shard ingest: %d %s", status, body)
	}
	status, hdr, _ = postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "miss" {
		t.Fatalf("plan after own-shard tick: %d, cache %q, want 200 miss", status, hdr.Get("X-Sompid-Cache"))
	}

	// An unrestricted request reads every shard, so both ticks are in its
	// vector and the pre-tick global cache state never applied to it.
	status, hdr, _ = postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "miss" {
		t.Fatalf("unrestricted plan: %d, cache %q, want 200 miss", status, hdr.Get("X-Sompid-Cache"))
	}
}

// TestPlanRequestFilterValidation: filters that match no shard are a 422
// planning failure (no candidates), not a panic or an empty plan.
func TestPlanRequestFilterValidation(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := smallPlan(60)
	req.Types = []string{"no-such-type"}
	status, _, body := postJSON(t, ts.URL+"/v1/plan", req)
	if status == http.StatusOK {
		t.Fatalf("plan with unmatched type filter succeeded: %s", body)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("filter failure is not an error envelope: %d %s", status, body)
	}
}

// TestHealthzReportsShards covers the per-shard health surface: one
// entry per (type, zone) with its version and tick count, plus the
// composite market version.
func TestHealthzReportsShards(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	tick := serve.PriceTick{Type: cloud.M1Medium.Name, Zone: cloud.ZoneA, Prices: []float64{0.05}}
	if status, _, body := postJSON(t, ts.URL+"/v1/prices", tick); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}

	var hz serve.HealthResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/healthz"), &hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	wantShards := len(cloud.DefaultCatalog()) * len(cloud.DefaultZones())
	if hz.Status != "ok" || hz.MarketVersion != 2 || len(hz.Shards) != wantShards {
		t.Fatalf("healthz: status %q version %d shards %d, want ok/2/%d",
			hz.Status, hz.MarketVersion, len(hz.Shards), wantShards)
	}
	ticked := fmt.Sprintf("%s/%s", cloud.M1Medium.Name, cloud.ZoneA)
	for _, sh := range hz.Shards {
		wantVersion, wantTicks := uint64(1), uint64(0)
		if sh.Market == ticked {
			wantVersion, wantTicks = 2, 1
		}
		if sh.Version != wantVersion || sh.Ticks != wantTicks {
			t.Errorf("shard %s: version %d ticks %d, want %d/%d",
				sh.Market, sh.Version, sh.Ticks, wantVersion, wantTicks)
		}
		if sh.Samples <= 0 || sh.DurationHours <= 0 {
			t.Errorf("shard %s: implausible samples %d / duration %v", sh.Market, sh.Samples, sh.DurationHours)
		}
	}
}
