package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"

	"sompi/internal/cloud"
	"sompi/internal/harness"
	"sompi/internal/serve"
	"sompi/internal/stats"
)

// Workload names. They are final: later changes claim gains by them.
const (
	wlPlanMiss = "plan-miss"
	wlIngest   = "ingest-feed"
	wlBoundary = "boundary-reopt"
	wlMixed    = "mixed-replay"
	wlCluster  = "cluster-mixed"
)

var workloadNames = []string{wlPlanMiss, wlIngest, wlBoundary, wlMixed, wlCluster}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// Sizing. Every pass is the same fixed amount of work whatever the run
// length; a longer run makes more passes, never bigger ones. README.md
// records how each number was chosen.
const (
	// marketSeed is the one market every run measures on. What a plan or
	// a re-optimization costs depends on the price history it trains on
	// far more than on the request, so the run's --seed draws the
	// requests and the market stays put: runs with different seeds stay
	// comparable.
	marketSeed   = 2015
	marketHours  = 336 // synthesized history sompid boots with
	futureHours  = 500 // generated past that, the source of every tick
	samplesPerHr = 12

	planStrata = 6 // plan-miss: deadline strata per app preset per pass

	ingestFeedsPerPass = 1500
	ingestBackfillOf   = 5 // one feed in five is a single-shard backfill
	ingestWarmupFeeds  = 200

	boundaryStrata  = 12 // distinct sessions per app preset per pass
	boundaryCopies  = 4  // identical registrations of each distinct session
	boundaryWindow  = 2  // sompid -window, hours
	boundarySamples = boundaryWindow * samplesPerHr
	// Deadlines are at most boundaryMaxDeadline hours and a session
	// whose deadline has passed goes terminal, so this many boundary
	// feeds complete every session whatever the prices do.
	boundaryMaxDeadline = 80
	boundaryFeeds       = boundaryMaxDeadline/boundaryWindow + 1

	mixedRate     = 125 // records per second over both connections
	mixedPool     = 600 // distinct plan requests, more than the 256-entry cache
	mixedZipfS    = 1.1
	mixedWarmup   = 200
	mixedSegments = 5
	mixedMCRuns   = 50
	// mixedHistory is the training history, in hours, every plan of the
	// mixed workloads asks for. A plan that misses the cache re-derives
	// the failure distributions of the shards that ticked, at a cost
	// linear in the history; a day of it keeps 250 rec/s inside one core.
	mixedHistory = 24
)

var appPresets = []string{"BT", "SP", "LU", "FT", "IS", "BTIO", "LAMMPS-32", "LAMMPS-128"}

// Endpoint labels, as internal/serve names them.
const (
	epPlan       = "plan"
	epPrices     = "prices"
	epEvaluate   = "evaluate"
	epMonteCarlo = "montecarlo"
	epSessions   = "sessions"
	epStrategies = "strategies"
)

// rec is one generated request: the harness.Record a dump writes and
// sompi-replay can re-send, plus what only the benchmark needs to know.
type rec struct {
	harness.Record
	// conn is the connection that sends the record in an open loop.
	// Closed loops ignore it: clients pull from one queue.
	conn int
	// ticks names the shard of every tick in a prices record, for the
	// final version-vector check.
	ticks []string
	// keep asks the driver to retain the response body for a check.
	keep bool
	// plan is the decoded request of a kept plan record, for the
	// library-path reference.
	plan *serve.PlanRequest
	// register marks a tracked-session registration (boundary-reopt).
	register bool
}

// generator makes a workload's requests from a seed and nothing else:
// equal seeds give byte-identical captures. Every pass of a closed-loop
// workload runs on a freshly started sompid that has seen only the
// warm-up, so every pass continues the market (and the sequence
// numbers) from where the warm-up stopped; warmup must be drawn first.
type generator struct {
	name   string
	seed   uint64
	keys   []cloud.MarketKey
	future map[cloud.MarketKey][]float64 // samples past marketHours
	cursor map[cloud.MarketKey]int
	seq    int
	// warmCursor and warmSeq are the state right after the warm-up.
	warmCursor map[cloud.MarketKey]int
	warmSeq    int

	// mixed workloads
	pool    []poolEntry
	zipfCDF []float64
	ownerOf map[cloud.MarketKey]int // shard -> connection that owns it
	altConn int
}

// poolEntry is one of the mixed workloads' distinct plan requests.
type poolEntry struct {
	req  serve.PlanRequest
	body string
	conn int  // owning connection, -1 for an unrestricted plan
	one  bool // restricted to exactly one shard: digest-checked
}

func newGenerator(name string, seed uint64) *generator {
	long := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), marketHours+futureHours, marketSeed)
	g := &generator{
		name:   name,
		seed:   seed,
		keys:   long.Keys(),
		future: make(map[cloud.MarketKey][]float64),
		cursor: make(map[cloud.MarketKey]int),
	}
	for _, k := range g.keys {
		tr, _ := long.TraceFor(k)
		// The generator is prefix-stable, so the first marketHours of the
		// long market are exactly what sompid synthesizes for itself and
		// the rest is that market's own future.
		g.future[k] = tr.Prices[marketHours*samplesPerHr:]
	}
	if name == wlMixed || name == wlCluster {
		g.buildPool()
	}
	return g
}

// rng returns the deterministic stream for one purpose of one pass.
func (g *generator) rng(stream uint64) *stats.RNG { return streamRNG(g.seed, stream) }

// streamRNG derives an independent generator per (seed, stream).
// stats.StreamRNG's adjacent streams are one draw apart — right for one
// draw per stream, wrong for a pass that draws hundreds — so the stream
// index is folded into the seed and the result split once more.
func streamRNG(seed, stream uint64) *stats.RNG {
	return stats.NewRNG(seed ^ (stream+1)*0xd6e8feb86659fd93).Split()
}

// next takes the shard's next n future samples, wrapping at the end of
// the generated future (no pass of the shipped sizing gets there).
func (g *generator) next(k cloud.MarketKey, n int) []float64 {
	f := g.future[k]
	out := make([]float64, n)
	for i := range out {
		out[i] = f[(g.cursor[k]+i)%len(f)]
	}
	g.cursor[k] += n
	return out
}

func (g *generator) record(endpoint, method, path string, body []byte) rec {
	r := rec{Record: harness.Record{
		Seq:      g.seq,
		TimeMS:   float64(g.seq), // closed loops have no pacing; keep it monotonic
		Endpoint: endpoint,
		Method:   method,
		Path:     path,
		Body:     string(body),
		Status:   200,
	}}
	g.seq++
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only bench-built request structs reach here
	}
	return b
}

func (g *generator) planRec(req serve.PlanRequest) rec {
	return g.record(epPlan, "POST", "/v1/plan", mustJSON(req))
}

// round is an NDJSON feed: one tick of n samples for every shard.
func (g *generator) round(path string, n int) rec {
	var body bytes.Buffer
	ticks := make([]string, 0, len(g.keys))
	for _, k := range g.keys {
		body.Write(mustJSON(serve.PriceTick{Type: k.Type, Zone: k.Zone, Prices: g.next(k, n)}))
		body.WriteByte('\n')
		ticks = append(ticks, k.String())
	}
	r := g.record(epPrices, "POST", path, body.Bytes())
	r.ticks = ticks
	return r
}

// backfill is a JSON-array feed: one tick of n samples for one shard.
func (g *generator) backfill(k cloud.MarketKey, n int) rec {
	body := mustJSON([]serve.PriceTick{{Type: k.Type, Zone: k.Zone, Prices: g.next(k, n)}})
	r := g.record(epPrices, "POST", "/v1/prices", body)
	r.ticks = []string{k.String()}
	return r
}

// deadline draws the stratum's deadline in [lo, hi): strata keep every
// pass's mix of cheap and expensive searches the same, the draw inside
// the stratum keeps requests distinct.
func deadline(r *stats.RNG, stratum, strata int, lo, hi float64) float64 {
	w := (hi - lo) / float64(strata)
	d := lo + (float64(stratum)+r.Float64())*w
	return math.Round(d*1e4) / 1e4
}

// warmup is the workload's untimed first traffic; it is part of setup_s.
func (g *generator) warmup() []rec {
	var out []rec
	switch g.name {
	case wlPlanMiss:
		for _, a := range appPresets {
			out = append(out, g.planRec(serve.PlanRequest{App: a, DeadlineHours: 100, Workers: 1}))
		}
	case wlIngest:
		out = g.ingestFeeds(g.rng(1<<32), ingestWarmupFeeds)
	case wlBoundary:
		out = g.boundaryPass(g.rng(1<<32), 1, 1)
	case wlMixed, wlCluster:
		out = g.mixedRecords(g.rng(1<<32), mixedWarmup, 0)
	}
	g.warmSeq = g.seq
	g.warmCursor = make(map[cloud.MarketKey]int, len(g.cursor))
	for k, v := range g.cursor {
		g.warmCursor[k] = v
	}
	return out
}

// rewind puts the market cursor and the sequence numbers back to where
// the warm-up left them.
func (g *generator) rewind() {
	g.seq = g.warmSeq
	for k, v := range g.warmCursor {
		g.cursor[k] = v
	}
}

// pass is the i-th measured pass of a closed-loop workload, to be sent
// to a sompid that has seen exactly the warm-up.
func (g *generator) pass(i int) []rec {
	g.rewind()
	r := g.rng(uint64(i))
	switch g.name {
	case wlPlanMiss:
		return g.planMissPass(r)
	case wlIngest:
		return g.ingestFeeds(r, ingestFeedsPerPass)
	case wlBoundary:
		return g.boundaryPass(r, boundaryStrata, boundaryCopies)
	}
	panic("pass: open-loop workload " + g.name)
}

// planMissPass is every app preset at planStrata deadlines in U[40,120) h
// with default optimizer knobs, shuffled. One deadline per stratum makes
// the (app, deadline) pairs of a pass distinct, and the pass runs on a
// sompid that has planned nothing but the warm-up's 100 h, so the plan
// cache never answers.
func (g *generator) planMissPass(r *stats.RNG) []rec {
	var reqs []serve.PlanRequest
	for _, a := range appPresets {
		for s := 0; s < planStrata; s++ {
			reqs = append(reqs, serve.PlanRequest{App: a, DeadlineHours: deadline(r, s, planStrata, 40, 120), Workers: 1})
		}
	}
	out := make([]rec, 0, len(reqs))
	for n, i := range r.Perm(len(reqs)) {
		rc := g.planRec(reqs[i])
		if n%10 == 0 {
			req := reqs[i]
			rc.keep, rc.plan = true, &req
		}
		out = append(out, rc)
	}
	return out
}

// ingestFeeds is n feeds, exactly one in ingestBackfillOf of them a
// twelve-sample backfill of one shard (shards taken in turn), the rest
// NDJSON rounds of one sample per shard, at shuffled positions.
func (g *generator) ingestFeeds(r *stats.RNG, n int) []rec {
	isBackfill := make([]bool, n)
	for i, p := range r.Perm(n) {
		isBackfill[p] = i < n/ingestBackfillOf
	}
	shardOrder := r.Perm(len(g.keys))
	out := make([]rec, 0, n)
	b := 0
	for i := 0; i < n; i++ {
		if isBackfill[i] {
			out = append(out, g.backfill(g.keys[shardOrder[b%len(shardOrder)]], 12))
			b++
		} else {
			out = append(out, g.round("/v1/prices", 1))
		}
	}
	return out
}

// boundaryPass registers strata distinct tracked sessions per app
// preset, copies times each, then crosses boundaryFeeds T_m boundaries
// with synchronous feeds of one window of samples per shard.
func (g *generator) boundaryPass(r *stats.RNG, strata, copies int) []rec {
	var distinct []serve.PlanRequest
	for _, a := range appPresets {
		for s := 0; s < strata; s++ {
			distinct = append(distinct, serve.PlanRequest{
				App: a, DeadlineHours: deadline(r, s, strata, 40, boundaryMaxDeadline),
				Workers: 1, Kappa: 2, GridLevels: 4, MaxGroups: 4, Track: true,
			})
		}
	}
	var out []rec
	for c := 0; c < copies; c++ {
		for _, req := range distinct {
			rc := g.planRec(req)
			rc.register = true
			out = append(out, rc)
		}
	}
	for f := 0; f < boundaryFeeds; f++ {
		rc := g.round("/v1/prices?sync=1", boundarySamples)
		rc.keep = true
		out = append(out, rc)
	}
	return out
}

// buildPool makes the mixed workloads' distinct plan requests and the
// Zipf table they are drawn by. Connection 0 owns the shards of the
// first half of the catalog's types, connection 1 the rest: a
// connection's ticks and restricted plans touch only its own shards, so
// what a restricted plan answers depends on that connection's own
// earlier records alone — not on how the two connections interleave.
func (g *generator) buildPool() {
	cat := cloud.DefaultCatalog()
	zones := cloud.DefaultZones()
	g.ownerOf = make(map[cloud.MarketKey]int)
	half := len(cat) / 2
	for _, k := range g.keys {
		for i, it := range cat {
			if it.Name == k.Type {
				g.ownerOf[k] = i / half
			}
		}
	}
	// The pool and its popularity ranking are the same for every seed:
	// what a request costs spans two orders of magnitude, so which ones
	// sit at the head of the Zipf curve must not be left to the draw. The
	// run's seed picks which request each plan record sends.
	r := streamRNG(marketSeed, 2<<32)
	strata := mixedPool / len(appPresets)
	for i := 0; i < mixedPool; i++ {
		req := serve.PlanRequest{
			App:           appPresets[i%len(appPresets)],
			DeadlineHours: deadline(r, (i/len(appPresets))%strata, strata, 40, 120),
			HistoryHours:  mixedHistory,
			Workers:       1, Kappa: 2, GridLevels: 4, MaxGroups: 4,
		}
		e := poolEntry{conn: -1}
		// Seven in ten are restricted, in three shapes: one type (three
		// shards), the connection's two types in one zone (two shards),
		// one type in one zone (one shard — the digest-checked shape).
		if shape := i % 10; shape < 7 {
			conn := r.Intn(2)
			types := cat[conn*half : (conn+1)*half]
			e.conn = conn
			switch shape % 3 {
			case 0:
				req.Types = []string{types[r.Intn(len(types))].Name}
			case 1:
				req.Types = []string{types[0].Name, types[1].Name}
				req.Zones = []string{zones[r.Intn(len(zones))]}
			default:
				req.Types = []string{types[r.Intn(len(types))].Name}
				req.Zones = []string{zones[r.Intn(len(zones))]}
				e.one = true
			}
		}
		e.req = req
		e.body = string(mustJSON(req))
		g.pool = append(g.pool, e)
	}
	// Pool order is popularity rank. Shape, app preset and deadline
	// stratum all cycle with the index, so every stretch of the Zipf curve
	// — its head above all — holds the same mix of them.
	var total float64
	g.zipfCDF = make([]float64, len(g.pool))
	for i := range g.pool {
		total += 1 / math.Pow(float64(i+1), mixedZipfS)
		g.zipfCDF[i] = total
	}
	for i := range g.zipfCDF {
		g.zipfCDF[i] /= total
	}
}

// mixedBlock is the kind of each record in a block of one hundred: the
// mix is exact per block, only the order inside a block is drawn.
var mixedBlock = func() []string {
	var b []string
	add := func(kind string, n int) {
		for i := 0; i < n; i++ {
			b = append(b, kind)
		}
	}
	add(epPlan, 55)
	add(epPrices, 30)
	add(epEvaluate, 8)
	add(epSessions, 2)
	add(epStrategies, 2)
	add("named", 2)
	add(epMonteCarlo, 1)
	return b
}()

var namedStrategies = []string{"portfolio", "noft", "adaptive-ckpt"}
var mcStrategies = []string{"marathe", "noft", "portfolio"}

// alternate hands records that belong to no connection to each in turn.
func (g *generator) alternate() int {
	g.altConn ^= 1
	return g.altConn
}

// mixedRecords is n records of the mixed traffic, due every
// 1/mixedRate seconds from startMS. Inside a block of one hundred the
// seed draws the order, and little else: the block's plan requests are a
// systematic sample of the Zipf curve (one random offset, evenly spaced
// quantiles) and its ticks go round the shards, so every block — and
// every seed — carries nearly the same multiset of work.
func (g *generator) mixedRecords(r *stats.RNG, n int, startMS float64) []rec {
	out := make([]rec, 0, n)
	var kinds, ranks, shards []int
	nPlans := 0
	for _, k := range mixedBlock {
		if k == epPlan {
			nPlans++
		}
	}
	for i := 0; i < n; i++ {
		if len(kinds) == 0 {
			kinds = r.Perm(len(mixedBlock))
			u := r.Float64()
			ranks = ranks[:0]
			for _, j := range r.Perm(nPlans) {
				idx := sort.SearchFloat64s(g.zipfCDF, (float64(j)+u)/float64(nPlans))
				ranks = append(ranks, min(idx, len(g.pool)-1))
			}
		}
		kind := mixedBlock[kinds[0]]
		kinds = kinds[1:]
		var rc rec
		switch kind {
		case epPlan:
			idx := ranks[0]
			ranks = ranks[1:]
			e := g.pool[idx]
			rc = g.record(epPlan, "POST", "/v1/plan", []byte(e.body))
			rc.conn = e.conn
			if e.conn < 0 {
				rc.conn = g.alternate()
			}
			if e.one {
				req := e.req
				rc.keep, rc.plan = true, &req
			}
		case epPrices:
			if len(shards) == 0 {
				shards = r.Perm(len(g.keys))
			}
			k := g.keys[shards[0]]
			shards = shards[1:]
			rc = g.record(epPrices, "POST", "/v1/prices",
				mustJSON(serve.PriceTick{Type: k.Type, Zone: k.Zone, Prices: g.next(k, 1)}))
			rc.ticks = []string{k.String()}
			rc.conn = g.ownerOf[k]
		case epEvaluate:
			rc = g.record(epEvaluate, "POST", "/v1/evaluate", mustJSON(serve.EvaluateRequest{
				App: appPresets[r.Intn(len(appPresets))],
				Plan: serve.PlanPayload{
					Groups: []serve.GroupPayload{
						{Type: "m1.medium", Zone: "us-east-1a", Bid: 0.03 + 0.05*r.Float64(), IntervalHours: 1 + float64(r.Intn(3))},
						{Type: "c3.xlarge", Zone: "us-east-1b", Bid: 0.1 + 0.2*r.Float64(), IntervalHours: 2},
					},
					Recovery: serve.RecoveryPayload{Type: "cc2.8xlarge"},
				},
			}))
			rc.conn = g.alternate()
		case epSessions:
			rc = g.record(epSessions, "GET", "/v1/sessions", nil)
			rc.conn = g.alternate()
		case epStrategies:
			rc = g.record(epStrategies, "GET", "/v1/strategies", nil)
			rc.conn = g.alternate()
		case "named":
			req := serve.PlanRequest{
				App:           appPresets[r.Intn(len(appPresets))],
				DeadlineHours: deadline(r, r.Intn(4), 4, 60, 120),
				HistoryHours:  mixedHistory,
				Strategy:      namedStrategies[r.Intn(len(namedStrategies))],
			}
			if req.Strategy == "adaptive-ckpt" {
				// The same small search the pool's plans run; its other
				// knobs, like every knob of the other two, stay default.
				req.StrategyParams = map[string]float64{"kappa": 2, "grid_levels": 4}
			}
			rc = g.record(epPlan, "POST", "/v1/plan", mustJSON(req))
			rc.conn = g.alternate()
		case epMonteCarlo:
			rc = g.record(epMonteCarlo, "POST", "/v1/montecarlo", mustJSON(serve.MonteCarloRequest{
				App:           appPresets[r.Intn(len(appPresets))],
				DeadlineHours: 100,
				Runs:          mixedMCRuns,
				Seed:          r.Uint64() >> 12,
				Workers:       1,
				HistoryHours:  mixedHistory,
				Strategy:      mcStrategies[r.Intn(len(mcStrategies))],
			}))
			rc.conn = g.alternate()
		}
		rc.TimeMS = startMS + float64(i)*1000/mixedRate
		out = append(out, rc)
	}
	return out
}

// schedule is the open-loop workloads' whole measured traffic: seconds
// of records at mixedRate, due times counted from the start of the run.
func (g *generator) schedule(seconds float64) []rec {
	return g.mixedRecords(g.rng(0), int(seconds*mixedRate), 0)
}
