package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/opt"
	"sompi/internal/store"
)

// storeOpen opens a fsync'd WAL store over dir.
func storeOpen(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{Fsync: true})
}

// newMemServer builds an in-memory server plus a test HTTP front, both
// torn down at cleanup.
func newMemServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Market == nil {
		cfg.Market = durableMarket()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if cerr := s.Close(); cerr != nil {
			t.Errorf("server close: %v", cerr)
		}
	})
	return s, ts
}

// A shard with every admission slot taken must answer 429 with
// Retry-After instead of letting requests pile up on its lock without
// bound: the backpressure contract of the ingest path.
func TestIngestBackpressure429(t *testing.T) {
	m := durableMarket()
	s, ts := newMemServer(t, Config{Market: m, IngestQueue: -1}) // capacity 1

	// Stall the first batch inside the persist hook, mid-apply with the
	// shard lock held: the second takes the one waiting slot, the third
	// must bounce.
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	m.SetPersistBatch(func(_ cloud.MarketKey, ticks [][]float64, _ uint64) (int, error) {
		entered <- struct{}{}
		<-release
		return len(ticks), nil
	})

	tick := `{"type":"m1.small","zone":"us-east-1a","prices":[0.05]}`
	post := func() (*http.Response, error) {
		return http.Post(ts.URL+"/v1/prices", "application/json", strings.NewReader(tick))
	}

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := post()
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
		if i == 0 {
			<-entered // batch 1 is applying; batch 2 will wait for the shard lock
		} else {
			// Wait until batch 2 actually holds its slot behind the stalled
			// apply before sending the one that must bounce. White-box:
			// /metrics would wedge here — ShardStats takes the shard read
			// lock the stalled apply holds for writing.
			deadline := time.Now().Add(5 * time.Second)
			for s.ing.depths()["m1.small/us-east-1a"] < 1 {
				if time.Now().After(deadline) {
					t.Fatal("second batch never took its admission slot")
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	resp, err := post()
	if err != nil {
		t.Fatalf("backpressure POST: %v", err)
	}
	body := make([]byte, 512)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full shard answered %d (%s), want 429", resp.StatusCode, body[:n])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	once.Do(func() { close(release) })
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("stalled request %d finished with %d, want 200", i, code)
		}
	}
}

// A one-shard feed longer than maxBatchTicks is applied in bounded
// batches as it streams: every tick lands, in order, and the batch-size
// histogram sees the mid-stream flushes.
func TestLongFeedAppliesInBoundedBatches(t *testing.T) {
	s, ts := newMemServer(t, Config{})
	key := s.market.Keys()[0]
	const ticks = 2*maxBatchTicks + 88
	body := strings.Repeat(fmt.Sprintf("{\"type\":%q,\"zone\":%q,\"prices\":[0.05]}\n", key.Type, key.Zone), ticks)

	versionBefore := s.market.VersionVector()[key]
	batchesBefore := promValue(t, durableGet(t, ts.URL+"/metrics"), "sompid_ingest_batch_size_count")
	resp, err := http.Post(ts.URL+"/v1/prices", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST long feed: %v", err)
	}
	defer resp.Body.Close()
	var pr PricesResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("long feed answered %d (decode err %v)", resp.StatusCode, err)
	}
	if pr.Ticks != ticks || pr.Samples != ticks {
		t.Fatalf("long feed reported %d ticks, %d samples, want %d of each", pr.Ticks, pr.Samples, ticks)
	}
	if got := s.market.VersionVector()[key] - versionBefore; got != ticks {
		t.Fatalf("shard version advanced by %d, want %d", got, ticks)
	}
	batches := promValue(t, durableGet(t, ts.URL+"/metrics"), "sompid_ingest_batch_size_count") - batchesBefore
	if batches != 3 {
		t.Fatalf("%d ticks applied in %v batches, want 3 (%d + %d + 88)", ticks, batches, maxBatchTicks, maxBatchTicks)
	}
}

// Close fences ingest: it waits out an apply already in flight (whose
// request still answers 200), and every feed after it is refused with
// 503 and moves nothing.
func TestIngestAfterCloseAnswers503(t *testing.T) {
	m := durableMarket()
	s, ts := newMemServer(t, Config{Market: m})

	entered := make(chan struct{})
	release := make(chan struct{})
	m.SetPersistBatch(func(_ cloud.MarketKey, ticks [][]float64, _ uint64) (int, error) {
		close(entered) // exactly one apply gets this far
		<-release
		return len(ticks), nil
	})
	tick := `{"type":"m1.small","zone":"us-east-1a","prices":[0.05]}`
	post := func() (int, error) {
		resp, err := http.Post(ts.URL+"/v1/prices", "application/json", strings.NewReader(tick))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	stalled := make(chan int, 1)
	go func() {
		code, _ := post()
		stalled <- code
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while an apply was stalled mid-batch", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if code := <-stalled; code != http.StatusOK {
		t.Fatalf("the apply Close waited for answered %d, want 200", code)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	before := s.market.Version()
	code, err := post()
	if err != nil {
		t.Fatalf("POST after Close: %v", err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("feed after Close answered %d, want 503", code)
	}
	if got := s.market.Version(); got != before {
		t.Fatalf("feed after Close moved the market version %d -> %d", before, got)
	}
}

// k identical tracked sessions crossing one boundary must coalesce onto
// a single optimizer run — every session re-optimizes, k-1 of them
// adopt the leader's shared result, and all k adopt byte-identical
// plans.
func TestReoptDedupCoalescesIdenticalSessions(t *testing.T) {
	s, ts := newMemServer(t, Config{Market: durableMarket(), WindowHours: 2})

	const k = 5
	for i := 0; i < k; i++ {
		var plan PlanResponse
		if err := json.Unmarshal(durablePost(t, ts.URL+"/v1/plan", trackedPlan()), &plan); err != nil || plan.SessionID == "" {
			t.Fatalf("tracked plan %d: err %v, id %q", i, err, plan.SessionID)
		}
	}
	// A sixth session with a different deadline shares nothing: its
	// boundary re-opt must run its own search.
	other := trackedPlan()
	other.DeadlineHours = 90
	durablePost(t, ts.URL+"/v1/plan", other)

	reoptsBefore := s.met.reoptimizations.Load()
	dedupBefore := s.met.reoptDeduped.Load()

	ingestHours(t, ts.URL, 2.5) // one T_m boundary, drained via ?sync=1

	if got := s.met.reoptimizations.Load() - reoptsBefore; got != k+1 {
		t.Fatalf("reoptimizations delta %d, want %d (every session re-planned)", got, k+1)
	}
	if got := s.met.reoptDeduped.Load() - dedupBefore; got != k-1 {
		t.Fatalf("reopt_deduped delta %d, want %d (one shared run for %d twins, a solo run for the odd one)",
			got, k-1, k)
	}

	var sessions []SessionInfo
	json.Unmarshal(durableGet(t, ts.URL+"/v1/sessions"), &sessions)
	if len(sessions) != k+1 {
		t.Fatalf("%d sessions listed, want %d", len(sessions), k+1)
	}
	var wantPlan string
	for _, si := range sessions[:k] {
		if len(si.Audit) == 0 || si.Audit[0].NewPlan == nil {
			t.Fatalf("session %s has no adopted plan after the boundary: %+v", si.ID, si)
		}
		p, _ := json.Marshal(si.Audit[0].NewPlan)
		if wantPlan == "" {
			wantPlan = string(p)
		} else if string(p) != wantPlan {
			t.Fatalf("deduplicated sessions diverged:\n%s\n%s", wantPlan, p)
		}
	}
}

// Identical concurrent plan requests (tracked included) coalesce too:
// registering k sessions costs one optimizer search, whether the request
// names the sompi strategy or leaves it to the default.
func TestTrackedPlanRegistrationDedups(t *testing.T) {
	for _, name := range []string{"", "sompi"} {
		s, ts := newMemServer(t, Config{Market: durableMarket()})
		req := trackedPlan()
		req.Strategy = name

		durablePost(t, ts.URL+"/v1/plan", req) // leader populates the run cache
		dedupBefore := s.met.reoptDeduped.Load()
		evalsBefore := s.met.evals.Load()
		for i := 0; i < 3; i++ {
			durablePost(t, ts.URL+"/v1/plan", req)
		}
		if got := s.met.reoptDeduped.Load() - dedupBefore; got != 3 {
			t.Fatalf("strategy %q: reopt_deduped delta %d, want 3 (every follower shared the leader's run)", name, got)
		}
		if got := s.met.evals.Load() - evalsBefore; got != 0 {
			t.Fatalf("strategy %q: followers spent %d optimizer evals, want 0", name, got)
		}
	}
}

// The asynchronous scheduler path must land sessions in exactly the
// state the synchronous lockstep path does: same audit trail, same
// adopted plan bytes, same cost — only the processing-time-dependent
// market versions may differ.
func TestAsyncSchedulerMatchesLockstep(t *testing.T) {
	_, lockstep := newMemServer(t, Config{Market: durableMarket(), WindowHours: 2})
	_, async := newMemServer(t, Config{Market: durableMarket(), WindowHours: 2})

	reqs := []PlanRequest{trackedPlan()}
	other := trackedPlan()
	other.DeadlineHours = 90
	reqs = append(reqs, other)
	for _, req := range reqs {
		durablePost(t, lockstep.URL+"/v1/plan", req)
		durablePost(t, async.URL+"/v1/plan", req)
	}

	// The same 4.5 hours of flat prices, tick by tick: the lockstep twin
	// drains the scheduler after every tick, the async twin streams the
	// full feed in one request per shard and drains once at the end.
	const hours, tickHours = 4.5, 0.5
	samples := make([]float64, int(tickHours*12))
	for i := range samples {
		samples[i] = 0.05
	}
	keys := durableMarket().Keys()
	for step := 0; step < int(hours/tickHours); step++ {
		var ticks []PriceTick
		for _, k := range keys {
			ticks = append(ticks, PriceTick{Type: k.Type, Zone: k.Zone, Prices: samples})
		}
		durablePost(t, lockstep.URL+"/v1/prices?sync=1", ticks)
	}
	for _, k := range keys {
		var ticks []PriceTick
		for step := 0; step < int(hours/tickHours); step++ {
			ticks = append(ticks, PriceTick{Type: k.Type, Zone: k.Zone, Prices: samples})
		}
		durablePost(t, async.URL+"/v1/prices", ticks)
	}
	durablePost(t, async.URL+"/v1/prices?sync=1", []PriceTick{})

	var a, b []SessionInfo
	json.Unmarshal(durableGet(t, lockstep.URL+"/v1/sessions"), &a)
	json.Unmarshal(durableGet(t, async.URL+"/v1/sessions"), &b)
	normalize := func(ss []SessionInfo) string {
		for i := range ss {
			ss[i].PlanVersion = 0
			for j := range ss[i].Audit {
				ss[i].Audit[j].MarketVersions = nil
			}
		}
		out, _ := json.MarshalIndent(ss, "", " ")
		return string(out)
	}
	na, nb := normalize(a), normalize(b)
	if na != nb {
		t.Fatalf("async scheduler diverged from lockstep:\nlockstep: %s\nasync: %s", na, nb)
	}
	if len(a) != len(reqs) || len(a[0].Audit) == 0 {
		t.Fatalf("twin comparison is vacuous: %d sessions, %d audit records", len(a), len(a[0].Audit))
	}
}

// Invariant B9 under racing feeds: once every shard of a session's
// universe has crossed its boundary the session is pending, whatever
// order the crossings and the dispatcher's drains interleaved in — it is
// never left in the heap of a shard already past the boundary, where no
// later tick need ever come for it. No workers run, so what the
// dispatcher placed stays put and nothing ever reads the (empty) plan.
func TestSchedulerNeverStrandsCrossedSession(t *testing.T) {
	iterations := 150
	if testing.Short() {
		iterations = 30
	}
	const sessions = 8
	req := trackedPlan()
	profile, ok := app.ByName(req.App)
	if !ok {
		t.Fatalf("unknown app %q", req.App)
	}
	samples := strings.TrimSuffix(strings.Repeat("0.05,", int(2.5*12)), ",")
	for iter := 0; iter < iterations; iter++ {
		s, err := New(Config{Market: durableMarket(), WindowHours: 2, ReoptWorkers: -1})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		for i := 0; i < sessions; i++ {
			if _, rerr := s.registerSession(profile, req, opt.Result{}, s.market.Version(), s.market.MinDuration(), nil); rerr != nil {
				t.Fatalf("register %d: %v", i, rerr)
			}
		}
		// One 2.5h tick per shard, all at once: every session's 2h
		// boundary is crossed by whichever shard lands last.
		h := s.Handler()
		var wg sync.WaitGroup
		for _, k := range s.market.Keys() {
			wg.Add(1)
			go func(k cloud.MarketKey) {
				defer wg.Done()
				body := fmt.Sprintf(`{"type":%q,"zone":%q,"prices":[%s]}`, k.Type, k.Zone, samples)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/prices", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("ingest %v: %d %s", k, rec.Code, rec.Body)
				}
			}(k)
		}
		wg.Wait()

		sc := s.sched
		sc.noteMu.Lock()
		for len(sc.dirty) > 0 || sc.inflight {
			sc.noteIdle.Wait()
		}
		sc.noteMu.Unlock()
		sc.mu.Lock()
		parked := 0
		for _, hp := range sc.heaps {
			for _, it := range *hp {
				if it.boundary <= s.market.MinDurationFor(it.t.keys)+1e-9 {
					parked++
				}
			}
		}
		pending := len(sc.pending)
		sc.mu.Unlock()
		if cerr := s.Close(); cerr != nil {
			t.Fatalf("close: %v", cerr)
		}
		if parked != 0 || pending != sessions {
			t.Fatalf("iteration %d: %d crossed sessions parked in shard heaps, %d of %d pending", iter, parked, pending, sessions)
		}
	}
}

// The headline scale test: thousands of tracked sessions advancing
// under concurrent multi-shard NDJSON ingest. Registration is white-box
// (one optimizer run fans out to every session) so the test spends its
// time where the serve path does — shard applies, the scheduler heaps
// and the dedup cache — not in the optimizer.
//
// The ingest_p99_ratio sub-test is the serve path's scaling gate:
// single-tick ingest latency with every session registered must stay
// within 2x of the empty-server baseline, because a feed only marks its
// shard dirty and the scheduler keeps session work off the request path.
func TestManySessionsUnderConcurrentIngest(t *testing.T) {
	sessions := 10000
	if raceEnabled {
		sessions = 1500
	}
	if testing.Short() {
		sessions = 500
	}

	s, ts := newMemServer(t, Config{Market: durableMarket(), WindowHours: 2})
	// 200 single-sample ticks over 12 shards is 1.4h of market time per
	// phase: the loaded phase stays short of the sessions' 2h boundary.
	tickPrice := 0.02
	ingestP99 := func() time.Duration {
		const iters = 200
		h, keys := s.Handler(), s.market.Keys()
		lat := make([]time.Duration, 0, iters)
		for len(lat) < iters {
			key := keys[len(lat)%len(keys)]
			tickPrice += 0.0001
			body := fmt.Sprintf(`{"type":%q,"zone":%q,"prices":[%g]}`, key.Type, key.Zone, tickPrice)
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/prices", strings.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
				lat = append(lat, time.Since(start))
			case http.StatusTooManyRequests: // a backpressure retry is not an apply latency
				time.Sleep(5 * time.Millisecond)
			default:
				t.Fatalf("ingest %v: %d %s", key, rec.Code, rec.Body)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[iters*99/100]
	}
	baselineP99 := ingestP99()

	req := trackedPlan()
	profile, ok := app.ByName(req.App)
	if !ok {
		t.Fatalf("unknown app %q", req.App)
	}
	// keys stays nil for the unfiltered request — "every shard" — so the
	// ingest fan-out below walks the market's concrete key set instead.
	snap, keys, frontier, train := s.trainSnapshot(req, s.historyOr(req.HistoryHours))
	shards := s.market.Keys()
	cfg := req.Config(profile, train)
	cfg.Reuse = s.reuse
	res, err := opt.OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("seed optimization: %v", err)
	}
	for i := 0; i < sessions; i++ {
		if _, rerr := s.registerSession(profile, req, res, snap.Version(), frontier, keys); rerr != nil {
			t.Fatalf("register %d: %v", i, rerr)
		}
	}
	if got := s.met.activeSessions.Load(); got != int64(sessions) {
		t.Fatalf("active sessions %d, want %d", got, sessions)
	}
	loadedP99 := ingestP99()
	t.Run("ingest_p99_ratio", func(t *testing.T) {
		ratio := float64(loadedP99) / float64(baselineP99)
		t.Logf("ingest p99: %v empty, %v with %d sessions (%.2fx)", baselineP99, loadedP99, sessions, ratio)
		// The ratio needs real parallelism to mean anything: below 4 cores
		// the re-opt workers and the client time-slice one CPU, and under
		// the race detector every memory access is instrumented, so a slow
		// loaded phase measures the machine, not the request path.
		if runtime.NumCPU() < 4 || raceEnabled {
			t.Skipf("ratio gate needs >= 4 CPUs without -race (have %d, race=%v)", runtime.NumCPU(), raceEnabled)
		}
		if ratio > 2 {
			t.Fatalf("ingest p99 with %d sessions is %.2fx the empty-server baseline, want <= 2x", sessions, ratio)
		}
	})
	reoptsBefore := s.met.reoptimizations.Load()

	// 2.5 hours of flat prices — one boundary for every session — fed as
	// concurrent NDJSON streams, each goroutine owning a disjoint shard
	// subset, each shard's history split across several requests.
	const workers, requestsPerShard = 4, 5
	samples := strings.Repeat("0.05,", int(2.5*12/requestsPerShard))
	samples = samples[:len(samples)-1]
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < requestsPerShard; r++ {
				var body strings.Builder
				for i := w; i < len(shards); i += workers {
					fmt.Fprintf(&body, "{\"type\":%q,\"zone\":%q,\"prices\":[%s]}\n",
						shards[i].Type, shards[i].Zone, samples)
				}
				resp, err := http.Post(ts.URL+"/v1/prices", "application/json", strings.NewReader(body.String()))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("ingest worker %d: status %d", w, resp.StatusCode)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					r-- // backpressure: retry the same slice
					time.Sleep(10 * time.Millisecond)
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	durablePost(t, ts.URL+"/v1/prices?sync=1", []PriceTick{}) // drain

	if got := s.met.reoptimizations.Load() - reoptsBefore; got < int64(sessions) {
		t.Fatalf("only %d re-optimizations for %d sessions past a boundary", got, sessions)
	}
	if deduped := s.met.reoptDeduped.Load(); deduped < int64(sessions/2) {
		t.Fatalf("dedup did not engage: %d shares across %d identical sessions", deduped, sessions)
	}
	s.mu.RLock()
	var advanced int
	for _, tr := range s.sessions {
		tr.mu.Lock()
		if tr.reopts > 0 || tr.done {
			advanced++
		}
		tr.mu.Unlock()
	}
	s.mu.RUnlock()
	if advanced != sessions {
		t.Fatalf("%d of %d sessions advanced past the boundary", advanced, sessions)
	}
}

// A crash between a boundary-crossing ingest and its re-optimization
// must not lose the re-opt: the restart reschedules the recovered
// session and the scheduler runs it.
func TestRestartReschedulesPendingReopts(t *testing.T) {
	dir := t.TempDir()

	// Server A has no re-opt workers — the ingest crosses the boundary,
	// the WAL records the ticks, and the re-optimization stays pending
	// forever, exactly the window a SIGKILL would hit.
	stA, err := storeOpen(dir)
	if err != nil {
		t.Fatal(err)
	}
	sA, err := New(Config{Market: durableMarket(), WindowHours: 2, Store: stA, ReoptWorkers: -1})
	if err != nil {
		t.Fatalf("serve.New A: %v", err)
	}
	tsA := httptest.NewServer(sA.Handler())
	var plan PlanResponse
	json.Unmarshal(durablePost(t, tsA.URL+"/v1/plan", trackedPlan()), &plan)
	if plan.SessionID == "" {
		t.Fatal("no session id")
	}

	samples := make([]float64, int(2.5*12))
	for i := range samples {
		samples[i] = 0.05
	}
	var ticks []PriceTick
	for _, k := range durableMarket().Keys() {
		ticks = append(ticks, PriceTick{Type: k.Type, Zone: k.Zone, Prices: samples})
	}
	var pr PricesResponse
	json.Unmarshal(durablePost(t, tsA.URL+"/v1/prices", ticks), &pr)
	if pr.Reoptimized != 0 {
		t.Fatalf("a worker-less server re-optimized %d sessions", pr.Reoptimized)
	}

	// Crash: close the WAL out from under the server, never s.Close —
	// no shutdown snapshot, no graceful session persist.
	tsA.Close()
	if err := sA.store.Close(); err != nil {
		t.Fatalf("killing store: %v", err)
	}
	t.Cleanup(func() { sA.Close() })

	stB, err := storeOpen(dir)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := New(Config{Market: durableMarket(), WindowHours: 2, Store: stB})
	if err != nil {
		t.Fatalf("serve.New B: %v", err)
	}
	tsB := httptest.NewServer(sB.Handler())
	t.Cleanup(func() {
		tsB.Close()
		if cerr := sB.Close(); cerr != nil {
			t.Errorf("close B: %v", cerr)
		}
	})

	// An empty ?sync=1 feed is a pure drain: the recovered session was
	// rescheduled at startup, so its pending re-opt has landed by the
	// time this returns (it may already have landed before the request —
	// workers start at New — so assert on the session, not the delta).
	durablePost(t, tsB.URL+"/v1/prices?sync=1", []PriceTick{})
	var sessions []SessionInfo
	json.Unmarshal(durableGet(t, tsB.URL+"/v1/sessions"), &sessions)
	if len(sessions) != 1 || sessions[0].Reoptimized < 1 {
		t.Fatalf("restart lost the pending re-optimization: %+v", sessions)
	}
	if v := promValue(t, durableGet(t, tsB.URL+"/metrics"), "sompid_reoptimizations_total"); v < 1 {
		t.Fatalf("reoptimizations_total %v after restart, want >= 1", v)
	}
}
