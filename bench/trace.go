package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/obs"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/serve"
	"sompi/internal/store"
	"sompi/internal/strategy"
)

// The traced pass replays a workload's first records in-process as a
// ladder of twins — the same request executed with one wrapper fewer at
// every rung:
//
//	rung.http      real HTTP to an httptest.Server over serve.Handler()
//	rung.handler   Handler().ServeHTTP on a recorder
//	layer calls    what the handler would call: opt.OptimizeContext on
//	               the same training view with a mirrored ReuseCache,
//	               Market.AppendBatch on a twin market whose persist hook
//	               is store.AppendBatch, model.Evaluate, MonteCarloContext
//
// Every rung and every layer call is one span of a benchmark-owned
// obs.Collector; nothing inside the program is instrumented. The twins
// run one after the other, so when the span file is written each rung is
// re-based onto the start of the rung above and linked to it as its
// child: the file then reads as one nested request, and a span's self
// time — its duration minus what its children cover — is what that
// wrapper added. A child twin that happened to run longer than its
// parent is clipped to the parent (the cut is recorded on the span), so
// in the file self times are never negative and sum to the real-HTTP
// request time by construction. What the pass is judged on is taken
// before the clip: how much the twins outran the rung above them
// over the whole pass (excess_ns, gated) and how much of the handler's
// time the layer calls account for (layer_ns over handler_ns, reported).

// ladderResult is what one traced pass measured.
type ladderResult struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Records   int              `json:"records"`
	RequestNs int64            `json:"request_ns"` // sum of rung.http durations
	HandlerNs int64            `json:"handler_ns"` // sum of rung.handler durations, unclipped
	LayerNs   int64            `json:"layer_ns"`   // sum of the layer calls' durations, unclipped
	ExcessNs  int64            `json:"excess_ns"`  // by how much a rung's sum outran the sum of the rung above
	SelfNs    map[string]int64 `json:"self_ns_by_span"`
	Note      string           `json:"note"`
	Spans     []obs.SpanData   `json:"spans"`

	layer map[string]float64 // the trace-sourced per-layer metrics
}

// twin is one in-process sompid.
type twin struct {
	srv     *serve.Server
	handler http.Handler
}

// ladder holds the twins of one traced pass.
type ladder struct {
	env  *env
	name string
	col  *obs.Collector

	httpTwin twin // behind httpSrv
	httpSrv  *httptest.Server
	httpCl   *http.Client
	traced   twin          // rung.handler
	untraced twin          // the same calls with no spans, for trace_overhead_pct
	market   *cloud.Market // the layer twin's market
	reuse    *opt.ReuseCache
	wal      *store.Store
	cur      context.Context // the span context the persist hook nests under
	dirs     []string
}

// newTwin builds an in-process sompid configured like the workload's
// child: the same market, window and — for the durable workloads — a
// WAL in the same place and mode.
func (l *ladder) newTwin() (twin, error) {
	cfg := serve.Config{Market: baseMarket()}
	if l.name == wlBoundary {
		cfg.WindowHours = boundaryWindow
	}
	if l.name != wlPlanMiss {
		st, err := l.openStore()
		if err != nil {
			return twin{}, err
		}
		cfg.Store = st
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return twin{}, err
	}
	return twin{srv: srv, handler: srv.Handler()}, nil
}

func (l *ladder) openStore() (*store.Store, error) {
	dir, err := l.env.tempDir("ladder-" + l.name)
	if err != nil {
		return nil, err
	}
	l.dirs = append(l.dirs, dir)
	return store.Open(filepath.Join(dir, "data"), store.Options{Fsync: l.env.fsync})
}

func (e *env) newLadder(name string) (*ladder, error) {
	l := &ladder{env: e, name: name, col: obs.NewCollector(1 << 17), market: baseMarket(), reuse: opt.NewReuseCache()}
	var err error
	for _, t := range []*twin{&l.httpTwin, &l.traced, &l.untraced} {
		if *t, err = l.newTwin(); err != nil {
			l.close()
			return nil, err
		}
	}
	l.httpSrv = httptest.NewServer(l.httpTwin.handler)
	l.httpCl = l.httpSrv.Client()
	if name != wlPlanMiss {
		if l.wal, err = l.openStore(); err == nil {
			err = recoverEmpty(l.wal)
		}
		if err != nil {
			l.close()
			return nil, err
		}
		// The layer twin's durability hook: what serve's own hook does —
		// encode the ticks, append them as one batch — inside a span.
		l.market.SetPersistBatch(func(key cloud.MarketKey, ticks [][]float64, first uint64) (int, error) {
			_, sp := obs.StartSpan(l.cur, "store.append_batch")
			defer sp.End()
			recs := make([]store.Record, len(ticks))
			for i, samples := range ticks {
				payload, err := store.EncodeTick(store.Tick{Type: key.Type, Zone: key.Zone, Version: first + uint64(i), Prices: samples})
				if err != nil {
					return i, err
				}
				recs[i] = store.Record{Type: store.RecordTick, Payload: payload}
			}
			return l.wal.AppendBatch(recs)
		})
	}
	return l, nil
}

func (l *ladder) close() {
	if l.httpSrv != nil {
		l.httpSrv.Close()
	}
	for _, t := range []twin{l.httpTwin, l.traced, l.untraced} {
		if t.srv != nil {
			t.srv.Close()
		}
	}
	if l.wal != nil {
		l.wal.Close()
	}
	for _, d := range l.dirs {
		l.env.removeDir(d)
	}
}

// recoverEmpty runs the recovery a store insists on before its first
// append; the directory is fresh, so there is nothing to replay.
func recoverEmpty(st *store.Store) error {
	return st.Recover(func([]byte) error { return nil }, func(store.Record) error { return nil })
}

// overHTTP sends the record to the HTTP twin.
func (l *ladder) overHTTP(rc *rec) (int, error) {
	var body io.Reader
	if rc.Body != "" {
		body = strings.NewReader(rc.Body)
	}
	req, err := http.NewRequest(rc.Method, l.httpSrv.URL+rc.Path, body)
	if err != nil {
		return 0, err
	}
	resp, err := l.httpCl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// onRecorder hands the record straight to a twin's handler.
func onRecorder(h http.Handler, rc *rec) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(rc.Method, rc.Path, strings.NewReader(rc.Body)))
	return w
}

// layerCalls makes the calls the handler would make for the record,
// each in a span under ctx. missed says the handler twin's plan cache
// did not answer (a hit makes no layer call at all).
func (l *ladder) layerCalls(ctx context.Context, rc *rec, missed bool) error {
	// The layers are called with a context that carries no collector: the
	// spans here are the benchmark's, the program records none of its own.
	bg := context.Background()
	switch rc.Endpoint {
	case epPlan:
		if !missed {
			return nil
		}
		var req serve.PlanRequest
		if err := json.Unmarshal([]byte(rc.Body), &req); err != nil {
			return err
		}
		profile, _ := app.ByName(req.App)
		train := trainView(l.market, req)
		if req.Strategy != "" {
			st, err := strategy.New(req.Strategy, req.StrategyParams)
			if err != nil {
				return err
			}
			_, sp := obs.StartSpan(ctx, "strategy.plan")
			defer sp.End()
			strategy.Configure(st, req.CandidateKeys(l.market), l.reuse)
			_, _, err = st.Plan(bg, train, strategy.Workload{Profile: profile}, strategy.Deadline{Hours: req.DeadlineHours})
			return err
		}
		cfg := req.Config(profile, train)
		cfg.Reuse = l.reuse
		_, sp := obs.StartSpan(ctx, "opt.optimize")
		defer sp.End()
		_, err := opt.OptimizeContext(bg, cfg)
		return err
	case epPrices:
		ts, err := decodeTicks(rc.Body)
		if err != nil {
			return err
		}
		for _, t := range ts {
			actx, sp := obs.StartSpan(ctx, "cloud.append_batch")
			l.cur = actx
			_, _, err := l.market.AppendBatch(cloud.MarketKey{Type: t.Type, Zone: t.Zone}, [][]float64{t.Prices})
			sp.End()
			if err != nil {
				return err
			}
		}
	case epEvaluate:
		var req serve.EvaluateRequest
		if err := json.Unmarshal([]byte(rc.Body), &req); err != nil {
			return err
		}
		profile, _ := app.ByName(req.App)
		_, sp := obs.StartSpan(ctx, "model.evaluate")
		defer sp.End()
		plan, err := serve.DecodePlan(req.Plan, profile, trainView(l.market, serve.PlanRequest{HistoryHours: req.HistoryHours}))
		if err != nil {
			return err
		}
		sink = model.Evaluate(plan)
	case epMonteCarlo:
		var req serve.MonteCarloRequest
		if err := json.Unmarshal([]byte(rc.Body), &req); err != nil {
			return err
		}
		profile, _ := app.ByName(req.App)
		snap := l.market.Capture()
		var strat replay.Strategy
		if req.Strategy == "marathe" {
			strat = baselines.Marathe(snap)
		} else {
			st, err := strategy.New(req.Strategy, req.StrategyParams)
			if err != nil {
				return err
			}
			strat = strategy.Replay(st, snap, req.HistoryHours)
		}
		_, sp := obs.StartSpan(ctx, "replay.montecarlo")
		defer sp.End()
		_, err := replay.MonteCarloContext(bg, strat, &replay.Runner{Market: snap, Profile: profile}, replay.MCConfig{
			Deadline: req.DeadlineHours, Runs: req.Runs, History: req.HistoryHours, Seed: req.Seed, Workers: req.Workers,
		})
		return err
	}
	return nil
}

// ladderRecords is what the traced pass replays: the workload's first
// pass as the child process got it. boundary-reopt replays a pass of the
// same shape with fewer sessions (two strata, two copies) so that the
// feeds — where its time goes — fit any budget.
func ladderRecords(name string, seed uint64, firstPass []rec) []rec {
	if name != wlBoundary {
		return firstPass
	}
	g := newGenerator(name, seed)
	g.warmup()
	return g.boundaryPass(g.rng(0), 2, 2)
}

// runLadder replays warm (untraced) and then recs on every twin, one
// record at a time, until the budget is spent; at least minRecords are
// always replayed.
func (e *env) runLadder(name string, seed uint64, warm, recs []rec, budget time.Duration) (*ladderResult, error) {
	l, err := e.newLadder(name)
	if err != nil {
		return nil, err
	}
	defer l.close()
	bg := context.Background()
	for i := range warm {
		rc := &warm[i]
		if code, err := l.overHTTP(rc); err != nil || code != 200 {
			return nil, fmt.Errorf("ladder warm-up %s %s: status %d err %v", rc.Method, rc.Path, code, err)
		}
		w := onRecorder(l.traced.handler, rc)
		onRecorder(l.untraced.handler, rc)
		if err := l.layerCalls(bg, rc, w.Header().Get("X-Sompid-Cache") != "hit"); err != nil {
			return nil, fmt.Errorf("ladder warm-up layer call: %w", err)
		}
	}

	// One record's twins agree to about ten percent; twenty bring their
	// sums to within a quarter of the excess gate's tolerance.
	const minRecords = 20
	var tracedNs, untracedNs int64
	start := time.Now()
	n := 0
	for ; n < len(recs) && (n < minRecords || time.Since(start) < budget); n++ {
		rc := &recs[n]
		id := fmt.Sprintf("%s-%d", name, rc.Seq)

		_, sp := obs.StartRoot(bg, l.col, "rung.http", id)
		sp.AttrStr("endpoint", rc.Endpoint)
		code, err := l.overHTTP(rc)
		sp.End()
		if err != nil || code != 200 {
			return nil, fmt.Errorf("ladder %s %s over HTTP: status %d err %v", rc.Method, rc.Path, code, err)
		}

		// The traced and untraced handler twins take turns going first.
		var w *httptest.ResponseRecorder
		runTraced := func() {
			t0 := time.Now()
			_, sp := obs.StartRoot(bg, l.col, "rung.handler", id)
			w = onRecorder(l.traced.handler, rc)
			sp.AttrStr("cache", w.Header().Get("X-Sompid-Cache"))
			sp.End()
			tracedNs += time.Since(t0).Nanoseconds()
		}
		runUntraced := func() {
			t0 := time.Now()
			onRecorder(l.untraced.handler, rc)
			untracedNs += time.Since(t0).Nanoseconds()
		}
		if n%2 == 0 {
			runTraced()
			runUntraced()
		} else {
			runUntraced()
			runTraced()
		}
		if w.Code != 200 {
			return nil, fmt.Errorf("ladder %s %s on the handler: status %d %s", rc.Method, rc.Path, w.Code, w.Body.String())
		}

		lctx, lsp := obs.StartRoot(bg, l.col, "rung.layers", id)
		err = l.layerCalls(lctx, rc, w.Header().Get("X-Sompid-Cache") != "hit")
		lsp.End()
		if err != nil {
			return nil, fmt.Errorf("ladder %s %s layer call: %w", rc.Method, rc.Path, err)
		}
	}

	res := nest(l.col.Spans("", 0))
	res.Workload, res.Seed, res.Records = name, seed, n
	res.Note = "rungs ran one after the other on twin servers; each rung is re-based onto the start of the rung above and linked as its child, and a child longer than its parent is clipped; request_ns, handler_ns, layer_ns and excess_ns are sums of the durations as measured, before the clip"
	res.layer["obs.trace_overhead_pct"] = 100 * float64(tracedNs-untracedNs) / float64(max(untracedNs, 1))
	return res, nil
}

// nest turns the ladder's flat spans into nested requests and takes the
// self times. Per trace id it finds the three roots, re-bases
// rung.handler onto rung.http's start and the layer spans onto
// rung.handler's, links each to the rung above (the rung.layers holder
// itself is dropped — its children hang directly under rung.handler)
// and sums self time by span name.
func nest(spans []obs.SpanData) *ladderResult {
	res := &ladderResult{SelfNs: make(map[string]int64), layer: make(map[string]float64)}
	byTrace := make(map[string][]int)
	var order []string
	for i, sp := range spans {
		if _, ok := byTrace[sp.TraceID]; !ok {
			order = append(order, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], i)
	}
	rebased := func(sp *obs.SpanData, by time.Duration) {
		sp.Start = sp.Start.Add(by)
		sp.Attrs = append(sp.Attrs, obs.Attr{Key: "rebased_by_ns", Value: fmt.Sprint(by.Nanoseconds())})
	}
	var out []obs.SpanData
	type perRecord struct {
		endpoint string
		missed   bool
		// unclipped durations of the record's three rungs
		httpNs, handlerNs, layerNs int64
	}
	var records []perRecord
	for _, id := range order {
		var httpI, handlerI, layersI = -1, -1, -1
		for _, i := range byTrace[id] {
			switch spans[i].Name {
			case "rung.http":
				httpI = i
			case "rung.handler":
				handlerI = i
			case "rung.layers":
				layersI = i
			}
		}
		if httpI < 0 || handlerI < 0 || layersI < 0 {
			continue // a record the budget cut mid-ladder
		}
		top, handler, layers := spans[httpI], spans[handlerI], spans[layersI]
		rebased(&handler, top.Start.Sub(handler.Start))
		handler.ParentID = top.SpanID
		shift := handler.Start.Sub(layers.Start)
		pr := perRecord{httpNs: top.DurationNs, handlerNs: handler.DurationNs}
		for _, a := range top.Attrs {
			if a.Key == "endpoint" {
				pr.endpoint = a.Value
			}
		}
		out = append(out, top, handler)
		for _, i := range byTrace[id] {
			if i == httpI || i == handlerI || i == layersI {
				continue
			}
			sp := spans[i]
			rebased(&sp, shift)
			if sp.ParentID == layers.SpanID {
				sp.ParentID = handler.SpanID
				pr.layerNs += sp.DurationNs
			}
			if sp.Name == "opt.optimize" || sp.Name == "strategy.plan" {
				pr.missed = true
			}
			out = append(out, sp)
		}
		records = append(records, pr)
	}
	// The judgement first, on the durations as measured. One record's
	// twins differ by some ten percent either way (GC, the other twins'
	// background work), so rungs are compared by their sums over the pass:
	// a rung whose sum outran the rung above it is time the ladder cannot
	// place. The wrappers' self times are medians of paired differences —
	// the same record on two twins — so they carry no floor and no bias.
	var httpSelf, missSelf, pricesSelf []float64
	for _, pr := range records {
		res.RequestNs += pr.httpNs
		res.HandlerNs += pr.handlerNs
		res.LayerNs += pr.layerNs
		httpSelf = append(httpSelf, float64(pr.httpNs-pr.handlerNs)/1e3)
		switch {
		case pr.endpoint == epPlan && pr.missed:
			missSelf = append(missSelf, float64(pr.handlerNs-pr.layerNs)/1e3)
		case pr.endpoint == epPrices:
			pricesSelf = append(pricesSelf, float64(pr.handlerNs-pr.layerNs)/1e3)
		}
	}
	res.ExcessNs = max(0, res.HandlerNs-res.RequestNs) + max(0, res.LayerNs-res.HandlerNs)
	res.layer["harness.ladder_excess_pct"] = 100 * float64(res.ExcessNs) / float64(max(res.RequestNs, 1))
	res.layer["harness.layer_cover_pct"] = 100 * float64(res.LayerNs) / float64(max(res.HandlerNs, 1))
	res.layer["harness.http_self_us"] = median(httpSelf)
	res.layer["serve.plan_miss_self_us"] = median(missSelf)
	res.layer["serve.prices_self_us"] = median(pricesSelf)

	// Then the span file: clipped, so that it nests.
	clipToParents(out)
	self := selfTimes(out)
	for _, sp := range out {
		res.SelfNs[sp.Name] += self[sp.SpanID].Nanoseconds()
	}
	res.Spans = out
	return res
}

// clipToParents cuts every span down to its parent's interval, parents
// first, recording what was cut. The twins of one request never take
// exactly the same time; after clipping the nested request is
// consistent — no child outlives its parent — and self times add up to
// the top rung's duration.
func clipToParents(spans []obs.SpanData) {
	index := make(map[uint64]int, len(spans))
	for i, sp := range spans {
		index[sp.SpanID] = i
	}
	depth := func(i int) int {
		d := 0
		for p := spans[i].ParentID; p != 0; p = spans[index[p]].ParentID {
			d++
		}
		return d
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return depth(order[a]) < depth(order[b]) })
	for _, i := range order {
		sp := &spans[i]
		if sp.ParentID == 0 {
			continue
		}
		parent := spans[index[sp.ParentID]]
		lo, hi := parent.Start, parent.Start.Add(time.Duration(parent.DurationNs))
		start, end := sp.Start, sp.Start.Add(time.Duration(sp.DurationNs))
		if start.Before(lo) {
			start = lo
		}
		if start.After(hi) {
			start = hi
		}
		if end.After(hi) {
			end = hi
		}
		if end.Before(start) {
			end = start
		}
		if cut := time.Duration(sp.DurationNs) - end.Sub(start); cut > 0 {
			sp.Attrs = append(sp.Attrs, obs.Attr{Key: "clipped_ns", Value: fmt.Sprint(cut.Nanoseconds())})
		}
		sp.Start, sp.DurationNs = start, end.Sub(start).Nanoseconds()
	}
}

// selfTimes returns every span's self time: its duration minus the part
// of its own interval that its child spans cover. Children may overlap
// one another and may stick out of the parent; the cover is the union of
// the children clipped to the parent.
func selfTimes(spans []obs.SpanData) map[uint64]time.Duration {
	children := make(map[uint64][]obs.SpanData)
	for _, sp := range spans {
		if sp.ParentID != 0 {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, sp := range spans {
		lo, hi := sp.Start, sp.Start.Add(time.Duration(sp.DurationNs))
		kids := children[sp.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		cursor := lo
		for _, k := range kids {
			ks, ke := k.Start, k.Start.Add(time.Duration(k.DurationNs))
			if ks.Before(cursor) {
				ks = cursor
			}
			if ke.After(hi) {
				ke = hi
			}
			if ke.After(ks) {
				covered += ke.Sub(ks)
				cursor = ke
			}
		}
		out[sp.SpanID] = time.Duration(sp.DurationNs) - covered
	}
	return out
}

// writeTrace writes the span file of one traced pass.
func (e *env) writeTrace(res *ladderResult) (string, error) {
	path := filepath.Join(e.outDir, "trace-"+res.Workload+".json")
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
