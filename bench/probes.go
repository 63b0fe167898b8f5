package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/cluster"
	"sompi/internal/failure"
	"sompi/internal/model"
	"sompi/internal/obs"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/serve"
	"sompi/internal/store"
	"sompi/internal/strategy"
)

// A probe times one public function of one layer from outside, on
// inputs drawn from the workload generators. Probes are the per-layer
// metrics a /metrics scrape cannot give: ns, allocations and bytes per
// call. They run in-process, single-threaded, after the child-process
// runs, and claim nothing about end-to-end behaviour on their own.

// cost is what one probe measured, per operation.
type cost struct {
	ns, allocs float64
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink any

// measure times fn in batches until budget is spent (at least three
// batches, each of iters calls) and reports the median batch's ns/op
// beside the allocations per op over all batches.
func measure(budget time.Duration, iters int, fn func()) cost {
	var perOp []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops := 0
	start := time.Now()
	for len(perOp) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(iters))
		ops += iters
	}
	runtime.ReadMemStats(&ms1)
	return cost{
		ns:     median(perOp),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
	}
}

// probeInputs are the requests and feeds the probes run on: the first
// pass of the generators the workloads themselves use.
type probeInputs struct {
	plans    []serve.PlanRequest // plan-miss pass 0, default knobs
	sessions []serve.PlanRequest // boundary-reopt pass 0, distinct registrations
	round    [][]float64         // one NDJSON round: a one-sample tick per shard
	keys     []cloud.MarketKey
}

func newProbeInputs(seed uint64) probeInputs {
	var in probeInputs
	pm := newGenerator(wlPlanMiss, seed)
	pm.warmup()
	for _, r := range pm.pass(0) {
		var req serve.PlanRequest
		json.Unmarshal([]byte(r.Body), &req)
		in.plans = append(in.plans, req)
	}
	// Registrations come app preset by app preset; take them stratum by
	// stratum instead, so any prefix covers every preset.
	br := newGenerator(wlBoundary, seed)
	br.warmup()
	regs := br.pass(0)[:len(appPresets)*boundaryStrata]
	for s := 0; s < boundaryStrata; s++ {
		for a := range appPresets {
			var req serve.PlanRequest
			json.Unmarshal([]byte(regs[a*boundaryStrata+s].Body), &req)
			req.Track = false
			in.sessions = append(in.sessions, req)
		}
	}
	ig := newGenerator(wlIngest, seed)
	in.keys = ig.keys
	for _, k := range ig.keys {
		in.round = append(in.round, ig.next(k, 1))
	}
	return in
}

// prober runs the probes: one method per layer, each writing its
// metrics into out. scale stretches or shrinks every probe's time
// budget: 1 is the driver's trace run, the suite uses more.
type prober struct {
	e       *env
	seed    uint64
	scale   float64
	in      probeInputs
	out     map[string]float64
	skipped []skippedGate
}

func (p *prober) budget(ms float64) time.Duration {
	return time.Duration(ms * p.scale * float64(time.Millisecond))
}

// runProbes measures every probe-sourced per-layer metric into out.
func (e *env) runProbes(seed uint64, scale float64, out map[string]float64) ([]skippedGate, error) {
	p := &prober{e: e, seed: seed, scale: scale, in: newProbeInputs(seed), out: out}
	results, err := p.opt()
	if err != nil {
		return nil, err
	}
	for _, probe := range []func() error{
		func() error { return p.modelAndFailure(results) },
		p.replayAndStrategy,
		p.cloud,
		p.store,
		func() error { return p.serve(results) },
		p.cluster,
		p.obs,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "bench: probes done\n")
	return p.skipped, nil
}

// opt probes the search: cold, on two workers, with the reuse cache
// after a one-shard tick, and warm as a session re-optimizes. It returns
// the cold results for the probes that need a real plan.
func (p *prober) opt() ([]opt.Result, error) {
	ctx := context.Background()
	m := baseMarket()
	nPlans := min(len(p.in.plans), int(math.Max(4, 6*p.scale)))
	var coldMS []float64
	var evals, pruned int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	coldStart := time.Now()
	results := make([]opt.Result, nPlans)
	for i, req := range p.in.plans[:nPlans] {
		profile, _ := app.ByName(req.App)
		t0 := time.Now()
		r, err := opt.OptimizeContext(ctx, req.Config(profile, trainView(m, req)))
		if err != nil {
			return nil, fmt.Errorf("probe opt cold: %w", err)
		}
		coldMS = append(coldMS, time.Since(t0).Seconds()*1000)
		evals += r.Evals
		pruned += r.Pruned
		results[i] = r
	}
	coldNS := float64(time.Since(coldStart).Nanoseconds())
	runtime.ReadMemStats(&ms1)
	p.out["opt.optimize_cold_ms"] = median(coldMS)
	p.out["opt.evals_per_plan"] = float64(evals) / float64(nPlans)
	p.out["opt.ns_per_eval"] = coldNS / float64(max(evals, 1))
	p.out["opt.pruned_share"] = float64(pruned) / float64(max(evals+pruned, 1))
	p.out["opt.allocs_per_plan"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(nPlans)
	p.out["opt.bytes_per_plan"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(nPlans)

	if oneCore() {
		p.skipped = append(p.skipped, skippedGate{"opt.optimize_w2_ms", "one core: two search workers would time-slice it"})
	} else {
		var w2 []float64
		for _, req := range p.in.plans[:nPlans] {
			profile, _ := app.ByName(req.App)
			cfg := req.Config(profile, trainView(m, req))
			cfg.Workers = 2
			t0 := time.Now()
			if _, err := opt.OptimizeContext(ctx, cfg); err != nil {
				return nil, fmt.Errorf("probe opt w2: %w", err)
			}
			w2 = append(w2, time.Since(t0).Seconds()*1000)
		}
		p.out["opt.optimize_w2_ms"] = median(w2)
	}

	// Reuse: fill a shared cache with the same plans, tick one shard, run
	// them again — what a plan costs sompid after a one-shard tick.
	reuse := opt.NewReuseCache()
	optimizeAll := func() (ms []float64, ev, saved int, err error) {
		for _, req := range p.in.plans[:nPlans] {
			profile, _ := app.ByName(req.App)
			cfg := req.Config(profile, trainView(m, req))
			cfg.Reuse = reuse
			t0 := time.Now()
			r, err := opt.OptimizeContext(ctx, cfg)
			if err != nil {
				return nil, 0, 0, err
			}
			ms = append(ms, time.Since(t0).Seconds()*1000)
			ev += r.Evals
			saved += r.SavedEvals
		}
		return ms, ev, saved, nil
	}
	if _, _, _, err := optimizeAll(); err != nil {
		return nil, fmt.Errorf("probe opt reuse fill: %w", err)
	}
	if _, err := m.Append(p.in.keys[0], p.in.round[0]); err != nil {
		return nil, err
	}
	reuseMS, ev, saved, err := optimizeAll()
	if err != nil {
		return nil, fmt.Errorf("probe opt reuse: %w", err)
	}
	p.out["opt.optimize_reuse_ms"] = median(reuseMS)
	p.out["opt.saved_evals_share"] = float64(saved) / float64(max(ev+saved, 1))

	// Warm re-optimization, as a session does at a T_m boundary: the
	// market moves one window on every shard, the previous plan re-priced
	// seeds the incumbent, the reuse cache is shared.
	wm := baseMarket()
	wreuse := opt.NewReuseCache()
	nSess := min(len(p.in.sessions), int(math.Max(8, 16*p.scale)))
	prev := make([]model.Plan, nSess)
	for i, req := range p.in.sessions[:nSess] {
		profile, _ := app.ByName(req.App)
		cfg := req.Config(profile, trainView(wm, req))
		cfg.Reuse = wreuse
		r, err := opt.OptimizeContext(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("probe warm fill: %w", err)
		}
		prev[i] = r.Plan
	}
	bg := newGenerator(wlBoundary, p.seed)
	for _, k := range bg.keys {
		if _, err := wm.Append(k, bg.next(k, boundarySamples)); err != nil {
			return nil, err
		}
	}
	var warmMS []float64
	for i, req := range p.in.sessions[:nSess] {
		profile, _ := app.ByName(req.App)
		cfg := req.Config(profile, trainView(wm, req))
		cfg.Reuse = wreuse
		t0 := time.Now()
		if hint, ok := opt.WarmBound(cfg, prev[i]); ok {
			cfg.InitialIncumbent = hint
		}
		if _, err := opt.OptimizeContext(ctx, cfg); err != nil {
			return nil, fmt.Errorf("probe warm reopt: %w", err)
		}
		warmMS = append(warmMS, time.Since(t0).Seconds()*1000)
	}
	p.out["opt.warm_reopt_ms"] = median(warmMS)
	return results, nil
}

// modelAndFailure probes one evaluation, one group preparation and one
// failure-distribution estimate, on the first probed plan with a spot
// group.
func (p *prober) modelAndFailure(results []opt.Result) error {
	var plan model.Plan
	for _, r := range results {
		if len(r.Plan.Groups) > 0 {
			plan = r.Plan
			break
		}
	}
	if len(plan.Groups) == 0 {
		return fmt.Errorf("probe model: no probed plan has a spot group")
	}
	c := measure(p.budget(60), 20, func() { sink = model.Evaluate(plan) })
	p.out["model.evaluate_ns"], p.out["model.evaluate_allocs_op"] = c.ns, c.allocs
	gp := plan.Groups[0]
	c = measure(p.budget(60), 20, func() { sink = model.Prepare(gp) })
	p.out["model.prepare_us"] = c.ns / 1e3
	c = measure(p.budget(60), 5, func() { sink = failure.Estimate(gp.Group.Hist, gp.Bid, gp.Group.T) })
	p.out["failure.estimate_us"] = c.ns / 1e3
	return nil
}

// replayAndStrategy probes a Monte Carlo replication and a named
// strategy's plan, as the mixed workloads request them.
func (p *prober) replayAndStrategy() error {
	ctx := context.Background()
	snap := baseMarket().Capture()
	profile, _ := app.ByName(appPresets[0])
	mcRuns := 0
	c := measure(p.budget(150), 1, func() {
		st, err := replay.MonteCarloContext(ctx, baselines.Marathe(snap), &replay.Runner{Market: snap, Profile: profile},
			replay.MCConfig{Deadline: 100, Runs: mixedMCRuns, History: mixedHistory, Seed: p.seed, Workers: 1})
		if err == nil {
			mcRuns = st.Runs
		}
		sink = st
	})
	if mcRuns != mixedMCRuns {
		return fmt.Errorf("probe replay: Monte Carlo ran %d of %d replications", mcRuns, mixedMCRuns)
	}
	p.out["replay.mc_rep_us"] = c.ns / 1e3 / mixedMCRuns
	p.out["replay.mc_reps_per_s"] = 1e9 / (c.ns / mixedMCRuns)
	p.out["replay.mc_allocs_rep"] = c.allocs / mixedMCRuns
	var stratMS []float64
	train := trainView(baseMarket(), serve.PlanRequest{HistoryHours: mixedHistory})
	for _, name := range namedStrategies {
		st, err := strategy.New(name, nil)
		if err != nil {
			return fmt.Errorf("probe strategy %s: %w", name, err)
		}
		strategy.Configure(st, nil, nil)
		var perr error
		c = measure(p.budget(40), 1, func() {
			var p strategy.Plan
			p, _, perr = st.Plan(ctx, train, strategy.Workload{Profile: profile}, strategy.Deadline{Hours: 100})
			sink = p
		})
		if perr != nil {
			return fmt.Errorf("probe strategy %s: %w", name, perr)
		}
		stratMS = append(stratMS, c.ns/1e6)
	}
	p.out["strategy.plan_ms"] = median(stratMS)
	return nil
}

// cloud probes the market an NDJSON round lands on.
func (p *prober) cloud() error {
	cm := baseMarket()
	c := measure(p.budget(30), 200, func() { sink = cm.ValidateTick(p.in.keys[0], p.in.round[0]) })
	p.out["cloud.validate_tick_ns"] = c.ns
	tick := [][]float64{p.in.round[0]}
	c = measure(p.budget(60), 50, func() { cm.AppendBatch(p.in.keys[0], tick) })
	p.out["cloud.append_batch_us"], p.out["cloud.append_allocs_op"] = c.ns/1e3, c.allocs
	c = measure(p.budget(30), 100, func() { sink = cm.Capture() })
	p.out["cloud.capture_us"] = c.ns / 1e3
	csnap := cm.Capture()
	frontier := csnap.MinDurationFor(nil)
	c = measure(p.budget(30), 100, func() { sink = csnap.Window(frontier-baselines.History, baselines.History) })
	p.out["cloud.window_us"] = c.ns / 1e3
	return nil
}

// store probes the WAL, in the same place and mode the durable
// workloads' sompid uses.
func (p *prober) store() error {
	dir, err := p.e.tempDir("probe-store")
	if err != nil {
		return err
	}
	defer p.e.removeDir(dir)
	st, err := store.Open(dir, store.Options{Fsync: p.e.fsync})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := recoverEmpty(st); err != nil {
		return err
	}
	recs := make([]store.Record, len(p.in.keys))
	for i, k := range p.in.keys {
		payload, err := store.EncodeTick(store.Tick{Type: k.Type, Zone: k.Zone, Version: 2, Prices: p.in.round[i]})
		if err != nil {
			return err
		}
		recs[i] = store.Record{Type: store.RecordTick, Payload: payload}
	}
	seg0, off0 := st.Position()
	batches := 0
	var aerr error
	c := measure(p.budget(60), 20, func() {
		if _, err := st.AppendBatch(recs); err != nil {
			aerr = err
		}
		batches++
	})
	if aerr != nil {
		return fmt.Errorf("probe store batch append: %w", aerr)
	}
	p.out["store.append_batch_us"] = c.ns / 1e3
	if seg1, off1 := st.Position(); seg1 == seg0 {
		p.out["store.wal_bytes_per_tick"] = float64(off1-off0) / float64(batches*len(recs))
	} else {
		// Rotated mid-probe: the frame size is exact anyway.
		p.out["store.wal_bytes_per_tick"] = float64(len(store.EncodeRecord(recs[0])))
	}
	c = measure(p.budget(60), 50, func() {
		if err := st.Append(recs[0]); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return fmt.Errorf("probe store append: %w", aerr)
	}
	p.out["store.append_us"] = c.ns / 1e3
	sm := baseMarket()
	c = measure(p.budget(80), 1, func() {
		if err := st.Snapshot(func() ([]byte, error) { return json.Marshal(sm.ExportShards()) }); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return fmt.Errorf("probe store snapshot: %w", aerr)
	}
	p.out["store.snapshot_ms"] = c.ns / 1e6
	return nil
}

// serve probes the cache-hit path and the response encoder.
func (p *prober) serve(results []opt.Result) error {
	srv, err := serve.New(serve.Config{Market: baseMarket()})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	hitBody := string(mustJSON(p.in.sessions[0]))
	hit := func() int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/plan", strings.NewReader(hitBody)))
		return w.Code
	}
	if code := hit(); code != 200 {
		return fmt.Errorf("probe serve hit: filling the cache answered %d", code)
	}
	c := measure(p.budget(40), 100, func() { sink = hit() })
	p.out["serve.plan_hit_us"] = c.ns / 1e3
	c = measure(p.budget(30), 100, func() { sink, _ = json.Marshal(serve.BuildPlanResponse(1, results[0])) })
	p.out["serve.encode_plan_ns"] = c.ns
	return nil
}

// cluster probes the ownership lookup and the WAL-shipping frame codec.
func (p *prober) cluster() error {
	topo, err := cluster.NewTopology("a", []cluster.Node{{Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}})
	if err != nil {
		return err
	}
	shard := p.in.keys[0].String()
	c := measure(p.budget(20), 1000, func() { sink = topo.Owner(shard) })
	p.out["cluster.owner_lookup_ns"] = c.ns
	chunk := bytes.Repeat([]byte{0xa5}, 4096)
	var frame bytes.Buffer
	var ferr error
	c = measure(p.budget(20), 200, func() {
		frame.Reset()
		if err := cluster.WriteChunkFrame(&frame, 1, 0, chunk); err != nil {
			ferr = err
		}
		if _, _, err := cluster.ReadFrame(&frame); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		return fmt.Errorf("probe cluster frame: %w", ferr)
	}
	p.out["cluster.frame_roundtrip_ns"] = c.ns
	return nil
}

// obs probes a span with and without a collector, and one observation.
func (p *prober) obs() error {
	ctx := context.Background()
	c := measure(p.budget(20), 1000, func() {
		_, sp := obs.StartSpan(ctx, "probe")
		sp.End()
	})
	p.out["obs.span_disabled_ns"] = c.ns
	col := obs.NewCollector(1 << 10)
	rctx, root := obs.StartRoot(ctx, col, "probe.root", "probe")
	c = measure(p.budget(20), 1000, func() {
		_, sp := obs.StartSpan(rctx, "probe")
		sp.End()
	})
	root.End()
	p.out["obs.span_enabled_ns"] = c.ns
	hist := obs.NewHistogram(obs.DefaultLatencyBounds)
	c = measure(p.budget(20), 1000, func() { hist.Observe(0.0031) })
	p.out["obs.observe_ns"] = c.ns
	return nil
}
