package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/harness"
	"sompi/internal/model"
	"sompi/internal/obs"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/store"
	"sompi/internal/strategy"
)

// StatusClientClosedRequest is reported when the client abandoned the
// request before the work finished (nginx's 499 convention — the client
// never sees it, but logs and metrics do).
const StatusClientClosedRequest = 499

// Config parameterizes a planner service.
type Config struct {
	// Market is the service's live market; ingestion appends to it.
	Market *cloud.Market
	// WindowHours is T_m, the re-optimization window for tracked
	// sessions; zero means opt.DefaultWindow.
	WindowHours float64
	// HistoryHours is the default training history for requests that do
	// not set their own; zero means baselines.History.
	HistoryHours float64
	// CacheSize bounds the plan LRU; zero means 256 entries.
	CacheSize int
	// RequestTimeout bounds each plan/evaluate/montecarlo request; zero
	// means 60s. Ingestion is not bounded by it.
	RequestTimeout time.Duration
	// Collector receives every request's span tree (and the market's
	// append spans); nil means a fresh collector sized by TraceRing, so
	// /debug/trace always works.
	Collector *obs.Collector
	// TraceRing sizes the collector's span ring when Collector is nil;
	// zero means obs.DefaultRing.
	TraceRing int
	// Logger receives the service's structured log lines; nil disables
	// logging (every method on a nil *obs.Logger is a no-op).
	Logger *obs.Logger
	// Store, when set, makes the service durable: New recovers the exact
	// pre-crash market and session state from it before accepting
	// traffic, every tick and session transition is WAL-logged, and
	// Close cuts a clean snapshot. The store must be freshly opened and
	// not yet recovered; the server owns it from here (Close closes it).
	// Nil keeps the service pure in-memory.
	Store *store.Store
	// IngestQueue bounds how many tick batches may wait for one shard
	// behind the batch being applied; one more surfaces as 429 +
	// Retry-After backpressure. Zero means 1024 batches per shard;
	// negative means 1.
	IngestQueue int
	// ReoptWorkers sizes the scheduler's re-optimization worker pool —
	// the goroutines that drive tracked sessions across their T_m
	// boundaries off the ingest path. Zero means 4; negative starts
	// none (boundaries accumulate durably but never run — a test and
	// maintenance hook).
	ReoptWorkers int
	// CaptureLog, when set, records every v1 request to a segmented
	// NDJSON capture log under this directory — one harness.Record per
	// request (endpoint, method, body, relative timestamp, request id,
	// response status and body hash) for cmd/sompi-replay to replay and
	// twin-diff. Empty disables capture.
	CaptureLog string
	// CaptureSegmentRecords bounds records per capture segment before
	// it is sealed; zero means harness.DefaultSegmentRecords.
	CaptureSegmentRecords int
	// Cluster, when set, runs this server as one node of a static
	// multi-node cluster: market shards are owned by rendezvous hash,
	// mis-routed requests forward to their owner, every peer's WAL is
	// replicated into a local standby, and a dead peer's shards are
	// promoted. Requires Store. Nil keeps the server single-node.
	Cluster *ClusterConfig
}

// Server is the sompid planner service. The market synchronizes itself
// per shard — ingestion locks only the target (type, zone) shard and
// readers take lock-free snapshots — and each tracked session carries
// its own t.mu, so the server's RWMutex fences just the session
// registry (the map, ordering and id counter). Lock ordering (see
// DESIGN.md §16): s.mu → t.mu → {shard locks, store mutex}; s.mu →
// sched.mu → shard read locks; never t.mu → sched.mu and never the
// reverse of any edge — shard and store locks are leaves.
type Server struct {
	window  float64
	history float64
	timeout time.Duration

	mu       sync.RWMutex
	market   *cloud.Market
	sessions map[string]*trackedSession
	order    []string // session iteration in creation order
	nextID   int

	// versionKeys is the market's shard list in audit-record order (see
	// newVersionKeys).
	versionKeys []versionKey
	// tickNames interns the market's type and zone names for scanTicks.
	tickNames map[string]string

	// runCtx is the server-lifecycle context every asynchronous
	// re-optimization runs under: a client disconnecting mid-feed must
	// not cancel other sessions' replanning, only Close may. runCancel
	// aborts in-flight work at shutdown.
	runCtx    context.Context
	runCancel context.CancelFunc

	// ing is admission control for the ingest apply path (per-shard
	// slots and the shutdown fence; the feed's own goroutine applies);
	// sched the central re-optimization scheduler; reopts the
	// single-flight cache that coalesces identical optimizer runs.
	ing    *ingester
	sched  *reoptScheduler
	reopts *lru[opt.Result]

	cache *lru[[]byte]
	// reuse carries prepared-group state across every optimization the
	// server runs — plan requests and session re-opts alike. Hits are
	// keyed on the shard version vector, so a tick invalidates exactly
	// the shards it touched.
	reuse *opt.ReuseCache
	met   metrics
	col   *obs.Collector
	log   *obs.Logger

	// capture is the request capture log (nil = capture off).
	capture *harness.Writer

	// store is the durability subsystem (nil = pure in-memory).
	// snapping gates one background snapshot cut in flight, snapWG
	// tracks it so Close can drain it. closed guards Close idempotency
	// (under mu).
	store    *store.Store
	snapping atomic.Bool
	snapWG   sync.WaitGroup
	closed   bool

	// cluster is the multi-node subsystem (nil = single-node).
	cluster *clusterNode
}

// New builds a Server over the given live market.
func New(cfg Config) (*Server, error) {
	if cfg.Market == nil {
		return nil, fmt.Errorf("%w: nil market", opt.ErrInvalidConfig)
	}
	if cfg.WindowHours < 0 || cfg.HistoryHours < 0 {
		return nil, fmt.Errorf("%w: negative window or history", opt.ErrInvalidConfig)
	}
	s := &Server{
		window:   cfg.WindowHours,
		history:  cfg.HistoryHours,
		timeout:  cfg.RequestTimeout,
		market:   cfg.Market,
		sessions: make(map[string]*trackedSession),
		cache:    newLRU[[]byte](cfg.CacheSize),
		reuse:    opt.NewReuseCache(),
		col:      cfg.Collector,
		log:      cfg.Logger,
	}
	s.versionKeys = newVersionKeys(cfg.Market)
	s.tickNames = internNames(cfg.Market.Keys())
	if s.col == nil {
		s.col = obs.NewCollector(cfg.TraceRing)
	}
	s.met.init(cfg.Market.Keys())
	if s.window == 0 {
		s.window = opt.DefaultWindow
	}
	if s.history == 0 {
		s.history = baselines.History
	}
	if s.timeout == 0 {
		s.timeout = 60 * time.Second
	}
	if cfg.CacheSize == 0 {
		s.cache = newLRU[[]byte](256)
	}
	// With ring-buffer retention, a tracked session trains on the
	// trailing HistoryHours behind each T_m boundary; a bound shorter
	// than history + window means reads before the retained head get
	// silently clamped to the oldest surviving sample. Refuse the
	// misconfiguration instead of planning on wrong prices.
	if r := cfg.Market.Retention(); r > 0 && r < s.history+s.window {
		return nil, fmt.Errorf("%w: retention %gh < history %gh + window %gh: tracked sessions would train on silently truncated prices (raise -retain or lower -history/-window)",
			opt.ErrInvalidConfig, r, s.history, s.window)
	}
	if cfg.Store != nil {
		s.store = cfg.Store
		// Recovery runs before the persist hook is installed — replaying
		// the WAL must not re-log it — and before New returns, so no
		// traffic ever sees a partially restored market.
		if err := s.recoverFromStore(); err != nil {
			return nil, fmt.Errorf("serve: recovering from %s: %w", s.store.Dir(), err)
		}
		s.store.SetFsyncObserver(func(seconds float64) { s.met.walFsync.Observe(seconds) })
		s.market.SetPersistBatch(s.persistTickBatch)
	}

	if cfg.CaptureLog != "" {
		w, err := harness.OpenWriter(cfg.CaptureLog, cfg.CaptureSegmentRecords)
		if err != nil {
			return nil, fmt.Errorf("serve: opening capture log: %w", err)
		}
		w.SetAppendObserver(func(seconds float64) { s.met.captureAppend.Observe(seconds) })
		s.capture = w
	}

	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.reopts = newLRU[opt.Result](s.cache.cap)
	workers := cfg.ReoptWorkers
	switch {
	case workers == 0:
		workers = 4
	case workers < 0:
		workers = 0
	}
	s.sched = newReoptScheduler(s, workers)
	queue := cfg.IngestQueue
	switch {
	case queue == 0:
		queue = 1024
	case queue < 0:
		queue = 1
	}
	s.ing = newIngester(s, queue)
	// Recovered live sessions re-enter the scheduler: a boundary the
	// pre-crash server never got to re-optimize is eligible immediately
	// and runs as soon as a worker picks it up — no re-opt is lost to a
	// SIGKILL.
	for _, id := range s.order {
		if t := s.sessions[id]; !t.done {
			s.sched.add(t)
		}
	}
	if cfg.Cluster != nil {
		if err := s.initCluster(*cfg.Cluster); err != nil {
			s.runCancel()
			s.ing.stop()
			s.sched.stop()
			return nil, fmt.Errorf("serve: cluster init: %w", err)
		}
	}
	return s, nil
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.instrument(epPlan, s.handlePlan))
	mux.HandleFunc("POST /v1/evaluate", s.instrument(epEvaluate, s.handleEvaluate))
	mux.HandleFunc("POST /v1/montecarlo", s.instrument(epMonteCarlo, s.handleMonteCarlo))
	mux.HandleFunc("POST /v1/prices", s.instrument(epPrices, s.handlePrices))
	mux.HandleFunc("GET /v1/sessions", s.instrument(epSessions, s.handleSessions))
	mux.HandleFunc("GET /v1/strategies", s.instrument(epStrategies, s.handleStrategies))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cluster != nil {
		mux.HandleFunc("GET /cluster/wal", s.handleClusterWAL)
		mux.HandleFunc("GET /cluster/status", s.handleClusterStatus)
		mux.HandleFunc("GET /cluster/healthz", s.handleClusterHealthz)
		mux.HandleFunc("GET /cluster/metrics", s.handleClusterMetrics)
	}
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusRecorder captures the response code for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) code() int { return r.status }

// instrument wraps a handler with request-ID propagation, a root span and
// the per-endpoint request, latency and error counters. The observation
// is deferred, so a handler that unwinds early on context cancellation
// (the 499/504 path) — or panics — still lands in the latency histogram
// and still gets its span ended.
//
// With capture enabled, the request body is buffered (up to
// maxCaptureBody) and the response hashed, and one capture record —
// carrying the echoed X-Request-Id, so twin-diff replays re-send the
// same identity — is appended after the handler finishes.
func (s *Server) instrument(ep endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)
		ctx, sp := obs.StartRoot(r.Context(), s.col, "http."+endpointNames[ep], reqID)

		var rec interface {
			http.ResponseWriter
			code() int
		}
		var capBody []byte
		var capSum hash.Hash
		capturing := false
		if s.capture != nil {
			body, rd, ok, err := captureBody(r)
			if err != nil {
				// The body never arrived; serve the error, capture nothing.
				writeError(w, http.StatusBadRequest, fmt.Errorf("%w: reading body: %v", opt.ErrInvalidConfig, err))
				sp.End()
				return
			}
			r.Body = rd
			if ok {
				capturing = true
				capBody = body
				capSum = newCaptureSum()
				rec = &captureRecorder{statusRecorder{ResponseWriter: w, status: http.StatusOK}, capSum}
			} else {
				s.met.captureSkipped.Add(1)
			}
		}
		if rec == nil {
			rec = &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		}
		start := time.Now()
		defer func() {
			seconds := time.Since(start).Seconds()
			s.met.observe(ep, seconds, rec.code() >= 400)
			sp.AttrInt("status", int64(rec.code()))
			sp.End()
			if capturing {
				s.captureRequest(ep, r, reqID, capBody, rec.code(), capSum)
			}
			s.log.Debug("request", "endpoint", endpointNames[ep], "request_id", reqID,
				"status", rec.code(), "seconds", seconds)
		}()
		h(rec, r.WithContext(ctx))
	}
}

// statusOf maps the library's typed errors onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, opt.ErrInvalidConfig),
		errors.Is(err, replay.ErrInvalidConfig),
		errors.Is(err, strategy.ErrUnknownStrategy),
		errors.Is(err, strategy.ErrUnknownScenario),
		errors.Is(err, cloud.ErrBadSample):
		return http.StatusBadRequest
	case errors.Is(err, opt.ErrDeadlineInfeasible),
		errors.Is(err, opt.ErrNoCandidates),
		errors.Is(err, replay.ErrMarketTooShort),
		errors.Is(err, cloud.ErrUnknownMarket):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeEncodingError(w)
		return
	}
	writeBody(w, code, body)
}

// writeEncodingError answers a request whose response has no JSON form.
func writeEncodingError(w http.ResponseWriter) {
	http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
}

// writeBody sends pre-marshaled JSON verbatim — the cache stores these
// exact bytes, which is what makes hits byte-identical to misses.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// decodeBody strictly decodes one JSON object request body.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", opt.ErrInvalidConfig, err)
	}
	return nil
}

// historyOr returns the request's training history or the server default.
func (s *Server) historyOr(h float64) float64 {
	if h > 0 {
		return h
	}
	return s.history
}

// trainSnapshot captures everything a planning request needs: a
// consistent market snapshot, the price frontier of the request's
// candidate shards and the trailing training window (immutable views
// later Appends cannot disturb). The frontier is computed over the
// candidate shards only, so a restricted request's training window — and
// therefore its cache key's inputs — move only when its own markets do.
func (s *Server) trainSnapshot(req PlanRequest, history float64) (snap *cloud.MarketSnapshot, keys []cloud.MarketKey, frontier float64, train cloud.MarketView) {
	snap = s.market.Capture()
	keys = req.CandidateKeys(snap)
	frontier = snap.MinDurationFor(keys)
	lo := math.Max(0, frontier-history)
	return snap, keys, frontier, snap.Window(lo, frontier-lo)
}

// planKey is the cache key: every optimizer knob (but the inert
// workers, so requests differing only there share an entry), the
// candidate filters, the strategy selection, and the version vector of
// the shards the request actually touches. A tick on a shard outside the vector leaves
// the key — and the cached entry — valid, so invalidation is O(affected
// plans), not O(cache). The strategy literal gives every strategy its
// own cache namespace: "" and "sompi" plan identically but never
// cross-evict, and parameterized requests key on their exact params.
func planKey(req PlanRequest, vv cloud.VersionVector, keys []cloud.MarketKey) string {
	return fmt.Sprintf("%s|%g|%g|%d|%d|%d|%g|%g|%t|%t|t:%s|z:%s|s:%s|sp{%s}|vv{%s}",
		req.App, req.DeadlineHours, req.HistoryHours, req.Kappa,
		req.GridLevels, req.MaxGroups, req.Slack, req.MaxAllFail,
		req.DisableCheckpoints, req.DisablePruning,
		strings.Join(req.Types, ","), strings.Join(req.Zones, ","),
		req.Strategy, canonicalParams(req.StrategyParams),
		vv.Subset(keys).String())
}

// canonicalParams renders a parameter map in sorted-key order so equal
// maps always produce equal cache keys. It leaves out workers, which is
// as inert here as at the top level, so it splits no cache entry and no
// single-flight.
func canonicalParams(params map[string]float64) string {
	if len(params) == 0 {
		return ""
	}
	names := make([]string, 0, len(params))
	for k := range params {
		if k != "workers" {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", k, params[k])
	}
	return b.String()
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	// In cluster mode the raw body is buffered before decoding: if the
	// request's gating shards belong to a peer it is proxied there
	// verbatim, so the owner decodes exactly the bytes the client sent.
	var rawBody []byte
	if s.cluster != nil && r.Header.Get(forwardedHeader) == "" {
		b, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: reading body: %v", opt.ErrInvalidConfig, err))
			return
		}
		rawBody = b
		r.Body = io.NopCloser(bytes.NewReader(b))
	}
	var req PlanRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	profile, ok := app.ByName(req.App)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: unknown workload %q", opt.ErrInvalidConfig, req.App))
		return
	}
	// Strategy dispatch. The name is validated before anything is
	// recorded under it — the per-strategy metric label set stays
	// bounded by the registry, never by user input.
	d, ok := strategy.Lookup(req.Strategy)
	if !ok {
		err := fmt.Errorf("%w: %q (have %v)", strategy.ErrUnknownStrategy, req.Strategy, strategy.Names())
		writeError(w, statusOf(err), err)
		return
	}
	// Route after validation, before any work: a plan restricted to
	// shards another node owns is served by that node (its plan cache
	// and session scheduler live with the shards), transparently to the
	// client. Forwarded requests never re-forward.
	if rawBody != nil {
		if owner, ok := s.cluster.planOwner(req); ok {
			s.cluster.proxyPlan(w, r, owner, rawBody)
			return
		}
	}
	planStart := time.Now()
	defer func() { s.met.observeStrategy(d.Name, time.Since(planStart).Seconds()) }()
	// The sompi family calls the optimizer directly; any other name
	// plans through the registry. Everything around the planning call —
	// snapshot, cache, tracking, encoding — is shared.
	cfg, st, err := planner(req, profile)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	snap, keys, frontier, train := s.trainSnapshot(req, s.historyOr(req.HistoryHours))
	if len(req.Types)+len(req.Zones) > 0 && len(keys) == 0 {
		err := fmt.Errorf("%w: types/zones filter matches no market", opt.ErrNoCandidates)
		writeError(w, statusOf(err), err)
		return
	}
	version := snap.Version()

	// ?explain=1 rides the decision trail onto the response. Explained
	// responses bypass the cache entirely — both lookup and fill — so the
	// byte-identical hit/miss guarantee of the unexplained path is
	// untouched and cached bodies never grow a trail.
	explain := r.URL.Query().Get("explain") == "1"
	key := planKey(req, snap.VersionVector(), keys)
	if !req.Track && !explain {
		if body, ok := s.cache.get(key); ok {
			s.met.cacheHits.Add(1)
			s.met.strategyCache(d.Name, true)
			w.Header().Set("X-Sompid-Cache", "hit")
			writeBody(w, http.StatusOK, body)
			return
		}
		s.met.cacheMisses.Add(1)
		s.met.strategyCache(d.Name, false)
		w.Header().Set("X-Sompid-Cache", "miss")
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	var notes []string
	cfg.Market, cfg.Candidates = train, keys
	cfg.Explain, cfg.Reuse = explain, s.reuse
	plan := func() (opt.Result, error) { return opt.OptimizeContext(ctx, cfg) }
	if st != nil {
		plan = func() (opt.Result, error) {
			strategy.Configure(st, keys, s.reuse)
			p, ex, err := st.Plan(ctx, train, strategy.Workload{Profile: profile}, strategy.Deadline{Hours: req.DeadlineHours})
			res := opt.Result{Plan: p.Model, Est: p.Est, Evals: p.Evals, Pruned: p.Pruned, SavedEvals: p.SavedEvals}
			if explain && ex != nil {
				res.Explain, notes = ex.Opt, ex.Notes
			}
			return res, err
		}
	}
	run := func() (opt.Result, error) {
		r, e := plan()
		s.met.observeOptimize(r)
		return r, e
	}
	// Identical concurrent sompi-family requests — the byte cache only
	// answers after a leader finishes — coalesce onto one optimizer run.
	// The key includes the version vector (same content pin the byte cache
	// uses), so a share is byte-identical work, and Track requests share
	// too: k tracked registrations of the same workload need one search,
	// not k. Explained runs stay solo — their trail is per-request — and
	// so do registry strategies.
	var res opt.Result
	if explain || st != nil {
		res, err = run()
	} else {
		var shared bool
		res, shared, err = s.reopts.do(ctx, "plan|"+key, run)
		if shared {
			s.met.reoptDeduped.Add(1)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.cancelled.Add(1)
		}
		writeError(w, statusOf(err), err)
		return
	}

	resp := BuildPlanResponse(version, res)
	resp.Strategy, resp.StrategyNotes = req.Strategy, notes
	if req.Track {
		id, rerr := s.registerSession(profile, req, res, version, frontier, keys)
		if rerr != nil {
			writeError(w, http.StatusInternalServerError, rerr)
			return
		}
		resp.SessionID = id
	}
	body, merr := json.Marshal(resp)
	if merr != nil {
		writeError(w, http.StatusInternalServerError, merr)
		return
	}
	if !req.Track && !explain {
		s.cache.put(key, body)
	}
	writeBody(w, http.StatusOK, body)
}

// registerSession creates a tracked session for a freshly served plan,
// starting at the price frontier the plan was optimized at. The
// request's candidate keys are pinned into the session so every
// re-optimization keeps the restriction and the session's boundary
// clock follows only the shards in its universe. Registration is
// fail-closed on a durable server: the record is persisted before the
// session enters the registry, so no id ever reaches a client that a
// restart would silently forget.
func (s *Server) registerSession(profile app.Profile, req PlanRequest, res opt.Result, version uint64, frontier float64, keys []cloud.MarketKey) (string, error) {
	// base.Market stays nil: each re-optimization fills it in.
	base, strat, serr := planner(req, profile)
	if serr != nil {
		return "", serr
	}
	base.Candidates = keys
	history := s.historyOr(req.HistoryHours)
	trainStart := math.Max(0, frontier-history)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	// Cluster nodes namespace their ids so the merged session listing —
	// and a promotion adopting a peer's sessions — never collides.
	if s.cluster != nil {
		id = s.cluster.selfName() + "/" + id
	}
	t := &trackedSession{
		id:      id,
		profile: profile,
		history: history,
		base:    base,
		keys:    keys,
		req:     req,
		strat:   strat,
		sess: replay.NewSession(&replay.Runner{Market: s.market, Profile: profile},
			req.DeadlineHours, frontier),
		plan:        res.Plan,
		boundary:    frontier + s.window,
		planVersion: version,
		planCost:    res.Est.Cost,
		// The initial plan is the full profile trained on the trailing
		// history behind the frontier — the rebuild inputs for recovery.
		planScale:  1,
		trainStart: trainStart,
		trainDur:   frontier - trainStart,
	}
	if err := s.persistSession(t); err != nil {
		s.nextID--
		return "", fmt.Errorf("persisting session registration: %w", err)
	}
	s.sessions[id] = t
	s.order = append(s.order, id)
	s.met.activeSessions.Add(1)
	// Into the scheduler last: t is fully built and published, and
	// s.mu → sched.mu is the sanctioned lock order.
	s.sched.add(t)
	return id, nil
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	profile, ok := app.ByName(req.App)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: unknown workload %q", opt.ErrInvalidConfig, req.App))
		return
	}
	snap, _, _, train := s.trainSnapshot(PlanRequest{}, s.historyOr(req.HistoryHours))
	version := snap.Version()
	plan, err := DecodePlan(req.Plan, profile, train)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	if err := plan.Validate(); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, EvaluateResponse{
		MarketVersion: version,
		Estimate:      EncodeEstimate(model.Evaluate(plan)),
	})
}

// maxMonteCarloWorkers bounds a /v1/montecarlo request's workers, as the
// sompi strategy's workers param is bounded: the replay starts one
// goroutine and one partial summary per worker before its timeout can act.
const maxMonteCarloWorkers = 256

func (s *Server) handleMonteCarlo(w http.ResponseWriter, r *http.Request) {
	var req MonteCarloRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Workers > maxMonteCarloWorkers {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %d workers, at most %d", replay.ErrInvalidConfig, req.Workers, maxMonteCarloWorkers))
		return
	}
	profile, ok := app.ByName(req.App)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: unknown workload %q", opt.ErrInvalidConfig, req.App))
		return
	}

	// Long replays work on a snapshot: ingestion appending mid-run must
	// not race the replay's market reads (traces are immutable, so the
	// per-shard capture is a consistent view).
	snap := s.market.Capture()

	strat, err := strategyFor(req, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	st, err := replay.MonteCarloContext(ctx, strat, &replay.Runner{Market: snap, Profile: profile}, replay.MCConfig{
		Deadline: req.DeadlineHours,
		Runs:     req.Runs,
		History:  req.HistoryHours,
		Seed:     req.Seed,
		Workers:  req.Workers,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.cancelled.Add(1)
		}
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, MonteCarloResponse{
		MarketVersion:  snap.Version(),
		Strategy:       st.Name,
		Runs:           st.Runs,
		Failures:       st.Failures,
		CostMean:       st.Cost.Mean(),
		CostStd:        st.Cost.Std(),
		HoursMean:      st.Hours.Mean(),
		HoursStd:       st.Hours.Std(),
		DeadlineMisses: st.DeadlineMisses,
		MissRate:       st.MissRate(),
	})
}

// strategyFor resolves the request's strategy name against the snapshot.
func strategyFor(req MonteCarloRequest, m cloud.MarketView) (replay.Strategy, error) {
	switch strings.ToLower(req.Strategy) {
	case "", "sompi":
		if req.WindowHours > 0 {
			return baselines.SOMPIWindow(m, req.WindowHours), nil
		}
		return baselines.SOMPI(m), nil
	case "baseline":
		return baselines.Baseline(), nil
	case "on-demand":
		return baselines.OnDemandOnly(), nil
	case "marathe":
		return baselines.Marathe(m), nil
	case "marathe-opt":
		return baselines.MaratheOpt(m), nil
	case "spot-inf":
		return baselines.SpotInf(m), nil
	case "spot-avg":
		return baselines.SpotAvg(m), nil
	default:
		// Registry strategies (portfolio, noft, adaptive-ckpt, ...) replay
		// through the same adapter the tournament uses. Names absent from
		// both vocabularies report the typed unknown-strategy error.
		st, err := strategy.New(req.Strategy, req.StrategyParams)
		if err != nil {
			return nil, err
		}
		return strategy.Replay(st, m, req.HistoryHours), nil
	}
}

// handlePrices ingests spot-price ticks. The body is a stream: either a
// single JSON array of ticks or whitespace/newline-separated tick
// objects (NDJSON). Ticks are validated eagerly, staged per (type,
// zone) shard and applied as batches — one shard lock acquisition and
// one WAL group commit per batch — by this handler, through
// ingester.apply: a batch is this request's run for one shard, cut at
// maxBatchTicks, so an arbitrarily long feed ingests in bounded memory,
// feeds for different markets never contend, and the request path never
// runs a session re-optimization: ingest latency is independent of how
// many sessions the ticks invalidate. A shard with too many batches
// already waiting on it answers 429 with Retry-After — the backpressure
// signal; shards of the same feed flushed before it have applied.
//
// Every batch has applied by the time the response is written, so
// MarketVersion/Ticks/Samples reflect exactly this request's feed.
// Session re-optimization runs asynchronously: the default response
// reports Reoptimized/Completed as 0; ?sync=1 drains the scheduler
// before answering and reports how many re-optimizations and
// completions landed server-wide while the request waited (an empty
// ?sync=1 feed is therefore an operational flush).
func (s *Server) handlePrices(w http.ResponseWriter, r *http.Request) {
	syncMode := r.URL.Query().Get("sync") == "1"

	// In cluster mode a feed may interleave ticks for shards this node
	// owns with ticks for a peer's shards: the former stage locally, the
	// latter collect per owner and forward in one batch each. Forwarded
	// requests (the loop guard) always ingest locally.
	cl := s.cluster
	routing := cl != nil && r.Header.Get(forwardedHeader) == ""
	remote := make(map[string][]PriceTick)

	var reoptBase, doneBase int64
	var peerBase map[string]peerCounts
	if syncMode {
		reoptBase = s.met.reoptimizations.Load()
		doneBase = s.met.completedSessions.Load()
		if routing {
			// Peer re-opts run off the request path as replication lands,
			// so their contribution to this flush is measured as cumulative
			// counter movement from here to after the drain.
			peerBase = cl.peerCounters(r.Context())
		}
	}

	var resp PricesResponse
	staged := make(map[cloud.MarketKey][][]float64)
	ticksSeen := 0

	// flush applies one shard's staged run and folds its outcome into the
	// response. The max composite version across this request's batches
	// is the version after its last applied tick: versions are allotted
	// atomically per applied tick.
	flush := func(key cloud.MarketKey) error {
		ticks := staged[key]
		if len(ticks) == 0 {
			return nil
		}
		delete(staged, key)
		applied, version, err := s.ing.apply(r.Context(), key, ticks)
		resp.Ticks += applied
		for _, t := range ticks[:applied] {
			resp.Samples += len(t)
		}
		if version > resp.MarketVersion {
			resp.MarketVersion = version
		}
		return err
	}
	stage := func(tick PriceTick) error {
		key := cloud.MarketKey{Type: tick.Type, Zone: tick.Zone}
		// Validation is eager — before staging — so a malformed tick is
		// rejected at its position in the stream, exactly as the
		// tick-at-a-time path did.
		if err := s.market.ValidateTick(key, tick.Prices); err != nil {
			return err
		}
		if routing {
			if owner := cl.ownerOf(key.String()); owner.Name != "" && owner.Name != cl.selfName() {
				remote[owner.Name] = append(remote[owner.Name], tick)
				ticksSeen++
				return nil
			}
		}
		staged[key] = append(staged[key], tick.Prices)
		ticksSeen++
		if len(staged[key]) >= maxBatchTicks {
			return flush(key)
		}
		return nil
	}
	// flushAll keeps going after one shard's error — the other shards'
	// staged ticks still apply — and reports the first.
	flushAll := func() error {
		var firstErr error
		for key := range staged {
			if err := flush(key); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	if err := scanTicks(r.Body, s.tickNames, func() int { return ticksSeen }, stage); err != nil {
		// Ticks staged before the error still apply: a feed lands up to
		// its first bad tick, which is the position the error reports.
		flushAll()
		writeIngestError(w, err)
		return
	}
	if err := flushAll(); err != nil {
		// A tick's own failure is positioned in the feed; backpressure and
		// shutdown are about the server, not a tick, and go out bare.
		if !errors.Is(err, errIngestBacklog) && !errors.Is(err, errIngestClosed) {
			err = fmt.Errorf("after %d ticks: %w", resp.Ticks, err)
		}
		writeIngestError(w, err)
		return
	}
	// Forward each peer's collected ticks as one sub-request; the peer
	// answers after its batches applied, so its counts fold in directly.
	if len(remote) > 0 {
		owners := make([]string, 0, len(remote))
		for name := range remote {
			owners = append(owners, name)
		}
		sort.Strings(owners)
		for _, name := range owners {
			pr, ferr := cl.forwardPrices(r.Context(), name, remote[name], false)
			if ferr != nil {
				writeError(w, http.StatusBadGateway, fmt.Errorf("after %d ticks: %w", resp.Ticks, ferr))
				return
			}
			resp.Ticks += pr.Ticks
			resp.Samples += pr.Samples
			if pr.MarketVersion > resp.MarketVersion {
				resp.MarketVersion = pr.MarketVersion
			}
		}
	}
	if resp.Ticks == 0 { // empty feed: report current state
		resp.MarketVersion = s.market.Version()
	}
	resp.FrontierHours = s.market.MinDuration()
	if syncMode {
		if routing {
			// Cluster flush: wait for replication to converge in both
			// directions, settle local re-opts (replicated ticks have landed
			// and woken the scheduler by now), then flush each peer so its
			// re-opts settle too. The post-barrier market version is the
			// converged one every node agrees on.
			cl.syncBarrier(r.Context())
			s.sched.drain()
			cl.drainPeers(r.Context())
			re, co := cl.peerDelta(r.Context(), peerBase)
			resp.Reoptimized = int(s.met.reoptimizations.Load()-reoptBase) + re
			resp.Completed = int(s.met.completedSessions.Load()-doneBase) + co
			resp.MarketVersion = s.market.Version()
			// The pre-barrier frontier lags on forwarded shards whose
			// replicated ticks had not landed locally yet; the converged
			// value is the one a single node would report.
			resp.FrontierHours = s.market.MinDuration()
		} else {
			s.sched.drain()
			resp.Reoptimized = int(s.met.reoptimizations.Load() - reoptBase)
			resp.Completed = int(s.met.completedSessions.Load() - doneBase)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeIngestError answers a failed feed: a shard out of admission
// slots is 429 with Retry-After (the backpressure signal), a closing
// server 503, and anything else the status of the tick error itself.
func writeIngestError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errIngestBacklog):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errIngestClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, statusOf(err), err)
	}
}

// forEachTick decodes the tick stream — any whitespace-separated mix of
// tick objects and arrays of tick objects — applying each tick in order.
// applied reports how many ticks have been applied so far, for error
// positioning. Every element must be a JSON object: the stricter check
// exists because json.Unmarshal happily decodes null (and array
// elements like it) into a zero PriceTick, which the fuzz harness
// surfaced as misleading unknown-market errors for feeds that were
// malformed, not mistargeted. handlePrices reaches it through scanTicks,
// which hands it the stream from the first element outside the
// canonical tick shape on.
func forEachTick(dec *json.Decoder, applied func() int, apply func(PriceTick) error) error {
	applyOne := func(raw json.RawMessage) error {
		tick, err := decodeTick(raw)
		if err != nil {
			return fmt.Errorf("%w: after %d ticks: %v", opt.ErrInvalidConfig, applied(), err)
		}
		return applyTick(tick, applied, apply)
	}
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("%w: after %d ticks: %v", opt.ErrInvalidConfig, applied(), err)
		}
		if strings.HasPrefix(strings.TrimSpace(string(raw)), "[") {
			var elems []json.RawMessage
			if err := json.Unmarshal(raw, &elems); err != nil {
				return fmt.Errorf("%w: after %d ticks: %v", opt.ErrInvalidConfig, applied(), err)
			}
			for _, el := range elems {
				if err := applyOne(el); err != nil {
					return err
				}
			}
			continue
		}
		if err := applyOne(raw); err != nil {
			return err
		}
	}
}

// applyTick applies one decoded tick, positioning its failure in the feed.
func applyTick(tick PriceTick, applied func() int, apply func(PriceTick) error) error {
	if err := apply(tick); err != nil {
		return fmt.Errorf("after %d ticks: %w", applied(), err)
	}
	return nil
}

// decodeTick decodes one stream element, insisting it is a JSON object.
func decodeTick(raw json.RawMessage) (PriceTick, error) {
	trimmed := strings.TrimSpace(string(raw))
	if !strings.HasPrefix(trimmed, "{") {
		return PriceTick{}, fmt.Errorf("tick must be a JSON object, got %q", clip(trimmed, 32))
	}
	var tick PriceTick
	if err := json.Unmarshal(raw, &tick); err != nil {
		return PriceTick{}, err
	}
	return tick, nil
}

// clip bounds an untrusted string for error messages.
func clip(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	sessions := make([]*trackedSession, len(s.order))
	for i, id := range s.order {
		sessions[i] = s.sessions[id]
	}
	s.mu.RUnlock()
	// Sessions are only ever added, so the list is every session
	// registered before the read; each is copied under its own lock only.
	out := make([]sessionListing, len(sessions))
	for i, t := range sessions {
		var err error
		if out[i], err = t.listing(); err != nil {
			writeEncodingError(w)
			return
		}
	}
	// The unforwarded cluster listing is cluster-wide: every live node's
	// sessions in topology order, fetched with the loop guard set.
	if s.cluster != nil && r.Header.Get(forwardedHeader) == "" {
		out = s.cluster.mergeSessions(r.Context(), out)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetricsTo(w)
}

// writeMetricsTo renders this node's full exposition — shared by
// /metrics and the cluster-wide merge, which renders into a buffer.
func (s *Server) writeMetricsTo(w io.Writer) {
	var wal store.Stats
	if s.store != nil {
		wal = s.store.Stats()
	}
	var captureSeg uint64
	if s.capture != nil {
		captureSeg = s.capture.ActiveSegment()
	}
	sample := renderSample{
		marketVersion: s.market.Version(),
		frontier:      s.market.MinDuration(),
		cacheLen:      s.cache.len(),
		shards:        s.market.ShardStats(),
		wal:           wal,
		queueDepths:   s.ing.depths(),
		captureSeg:    captureSeg,
	}
	if s.cluster != nil {
		sample.cluster = s.cluster.sample()
	}
	s.met.render(w, sample)
}

// handleDebugTrace serves the flight recorder: the most recent completed
// spans, optionally filtered to one request's trace (?request_id=...) and
// bounded by ?limit=N.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &limit); err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: bad limit %q", opt.ErrInvalidConfig, v))
			return
		}
	}
	spans := s.col.Spans(q.Get("request_id"), limit)
	if spans == nil {
		spans = []obs.SpanData{}
	}
	writeJSON(w, http.StatusOK, TraceResponse{
		Total: s.col.Total(),
		Spans: spans,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthResponse())
}

// healthResponse assembles this node's health view — shared by /healthz
// and the cluster-wide merge.
func (s *Server) healthResponse() HealthResponse {
	stats := s.market.ShardStats()
	shards := make([]ShardHealth, 0, len(stats))
	for _, st := range stats {
		shards = append(shards, ShardHealth{
			Market:        st.Key.String(),
			Version:       st.Version,
			Ticks:         st.Ticks,
			Samples:       st.Samples,
			Compacted:     st.Compacted,
			DurationHours: st.DurationHours,
		})
	}
	// Failed WAL appends surface as a degraded status: the service is
	// up, but some acknowledged state exists only in memory.
	status := "ok"
	walErrs := s.met.walAppendErrors.Load()
	if walErrs > 0 {
		status = "degraded"
	}
	return HealthResponse{
		Status:          status,
		MarketVersion:   s.market.Version(),
		FrontierHours:   s.market.MinDuration(),
		ActiveSessions:  s.met.activeSessions.Load(),
		WALAppendErrors: walErrs,
		Shards:          shards,
	}
}
