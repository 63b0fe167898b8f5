package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/serve"
)

// ownedShards asks a cluster node which shards it owns.
func ownedShards(c *client) (map[string]bool, error) {
	b, err := c.get("/cluster/status")
	if err != nil {
		return nil, err
	}
	var st serve.ClusterStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	for _, s := range st.OwnedShards {
		out[s] = true
	}
	return out, nil
}

// replicationLagCap bounds the wait for the standbys to converge.
const replicationLagCap = 10 * time.Second

// replicationLag is how long after the last acknowledged record the
// followers' cursors equal their leaders' WAL positions, in ms. The
// synchronous flush before it has usually converged them already; what
// remains is the cost of observing that. A cluster that never converges
// reports the cap.
func replicationLag(dep *deployment) float64 {
	start := time.Now()
	for time.Since(start) < replicationLagCap {
		var st [2]serve.ClusterStatus
		ok := true
		for i, n := range dep.nodes {
			b, err := n.ctl.get("/cluster/status")
			if err != nil || json.Unmarshal(b, &st[i]) != nil {
				ok = false
			}
		}
		if ok && st[0].Replicas[st[1].Self] == st[1].WAL && st[1].Replicas[st[0].Self] == st[0].WAL {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start).Seconds() * 1000
}

// checkVersionVector compares /healthz with the ticks the deployment
// was sent: every shard's version, and the composite version.
func checkVersionVector(res *runResult, c *client, sets ...[]rec) error {
	sent := map[string]int{}
	total := 0
	for _, set := range sets {
		for i := range set {
			for _, s := range set[i].ticks {
				sent[s]++
				total++
			}
		}
	}
	b, err := c.get("/healthz")
	if err != nil {
		return err
	}
	var h serve.HealthResponse
	if err := json.Unmarshal(b, &h); err != nil {
		return err
	}
	res.Attempted++
	wrong := 0
	for _, sh := range h.Shards {
		// A shard's version starts at 1 and moves once per applied tick,
		// whichever node ingested it, so it is what a cluster agrees on
		// (the tick counter beside it counts local ingest only).
		if int(sh.Version) != 1+sent[sh.Market] {
			wrong++
			res.fail(0, "shard %s at version %d after %d ticks sent", sh.Market, sh.Version, sent[sh.Market])
		}
	}
	if int(h.MarketVersion) != 1+total || h.Status != "ok" || wrong > 0 {
		res.fail(1, "healthz %q market_version %d after %d ticks sent, %d shards off", h.Status, h.MarketVersion, total, wrong)
	}
	res.Counts["ticks_sent"] += float64(total)
	return nil
}

// stripped reduces a plan response to what must be identical on every
// path: the plan and its estimate. The search-effort counters vary with
// cache warmth and the composite market version with how the
// connections interleaved.
type stripped struct {
	Plan     serve.PlanPayload     `json:"plan"`
	Estimate serve.EstimatePayload `json:"estimate"`
}

// trainView is the training window sompid plans a request on: the
// request's trailing history (the service default when it names none)
// behind the frontier of the request's shards.
func trainView(m *cloud.Market, req serve.PlanRequest) cloud.MarketView {
	snap := m.Capture()
	frontier := snap.MinDurationFor(req.CandidateKeys(snap))
	history := req.HistoryHours
	if history == 0 {
		history = baselines.History
	}
	lo := math.Max(0, frontier-history)
	return snap.Window(lo, frontier-lo)
}

// baseMarket is the benchmark's own copy of the market sompid boots with.
func baseMarket() *cloud.Market {
	return cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), marketHours, marketSeed)
}

// checkPlansAgainstLibrary recomputes each kept plan response on the
// library path — opt.OptimizeContext over the benchmark's own copy of
// the market — and fails the run on any difference. With a history (the
// open-loop workloads) the reference market first applies, in sequence
// order, every tick sent before the checked record. It returns a digest
// of the checked responses, which must equal the digest of the library's
// own answers: that one depends on the capture alone, so mixed-replay and
// cluster-mixed, which share a capture, agree with each other exactly
// when each run agrees with it.
func checkPlansAgainstLibrary(res *runResult, kept []rec, keptResults []result, history []rec) string {
	m := baseMarket()
	reuse := opt.NewReuseCache()
	served, library := sha256.New(), sha256.New()
	next, checked := 0, 0
	for i := range kept {
		for ; next < len(history) && history[next].Seq < kept[i].Seq; next++ {
			applyTicks(m, &history[next])
		}
		req := *kept[i].plan
		profile, _ := app.ByName(req.App)
		cfg := req.Config(profile, trainView(m, req))
		cfg.Reuse = reuse
		want, err := opt.OptimizeContext(context.Background(), cfg)
		if err != nil {
			res.fail(1, "plan seq %d: library path failed: %v", kept[i].Seq, err)
			continue
		}
		ref := stripped{Plan: serve.EncodePlan(want.Plan), Estimate: serve.EncodeEstimate(want.Est)}
		library.Write(mustJSON(ref))
		if !keptResults[i].ok() {
			continue // already counted as failed
		}
		var got stripped
		if err := json.Unmarshal(keptResults[i].body, &got); err != nil {
			res.fail(1, "plan seq %d: undecodable response: %v", kept[i].Seq, err)
			continue
		}
		served.Write(mustJSON(got))
		if !reflect.DeepEqual(got, ref) {
			res.fail(1, "plan seq %d (%s): served %+v, library path %+v", kept[i].Seq, kept[i].Body, got, ref)
			continue
		}
		checked++
	}
	res.Counts["plans_checked"] = float64(checked)
	if checked == 0 {
		res.fail(0, "no plan response was checked against the library path")
	}
	digest := hex.EncodeToString(served.Sum(nil))
	if want := hex.EncodeToString(library.Sum(nil)); digest != want {
		res.fail(0, "digest of the checked responses is %s, the library path's over the same capture %s", digest, want)
	}
	return digest
}

// applyTicks applies a prices record's ticks to the reference market.
func applyTicks(m *cloud.Market, r *rec) {
	if len(r.ticks) == 0 {
		return
	}
	ts, _ := decodeTicks(r.Body) // bench-generated: cannot fail
	for _, t := range ts {
		m.Append(cloud.MarketKey{Type: t.Type, Zone: t.Zone}, t.Prices)
	}
}

// decodeTicks reads a feed body: a JSON array of ticks or NDJSON.
func decodeTicks(body string) ([]serve.PriceTick, error) {
	var ts []serve.PriceTick
	if strings.HasPrefix(body, "[") {
		return ts, json.Unmarshal([]byte(body), &ts)
	}
	for dec := json.NewDecoder(strings.NewReader(body)); dec.More(); {
		var t serve.PriceTick
		if err := dec.Decode(&t); err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// checkIngestRecovery SIGKILLs the ingest-feed sompid and restarts it
// on its data dir: the recovered version vector must equal the one it
// died with. The restart's own recovery gauge is store.recover_ms.
func (e *env) checkIngestRecovery(res *runResult, dep *deployment) error {
	healthOf := func(c *child) (serve.HealthResponse, error) {
		var h serve.HealthResponse
		b, err := c.ctl.get("/healthz")
		if err != nil {
			return h, err
		}
		return h, json.Unmarshal(b, &h)
	}
	before, err := healthOf(dep.nodes[0])
	if err != nil {
		return err
	}
	dep.nodes[0].kill()
	c, err := e.start("", dep.specs[0].args...)
	if err != nil {
		return fmt.Errorf("restarting after SIGKILL: %w", err)
	}
	dep.nodes[0] = c
	if err := c.waitHealthy(); err != nil {
		return err
	}
	after, err := healthOf(c)
	if err != nil {
		return err
	}
	res.Attempted++
	if after.MarketVersion != before.MarketVersion || !reflect.DeepEqual(shardVersions(after), shardVersions(before)) {
		res.fail(1, "recovered market v%d %v, killed at v%d %v", after.MarketVersion,
			shardVersions(after), before.MarketVersion, shardVersions(before))
	}
	s, err := c.ctl.scrape()
	if err != nil {
		return err
	}
	res.Layer["store.recover_ms"] = s.get("sompid_recovery_seconds", "") * 1000
	return nil
}

func shardVersions(h serve.HealthResponse) map[string]uint64 {
	out := make(map[string]uint64)
	for _, sh := range h.Shards {
		out[sh.Market] = sh.Version
	}
	return out
}

// libraryReopts walks one tracked session through Algorithm 1 on the
// library path — replay.Session windows and opt.OptimizeContext on the
// reference market; no scheduler, no dedup, no warm start, no WAL — from
// the frontier it was registered at to the end of the market, and
// returns how many re-optimizations that takes. It mirrors serve's
// window step: replay up to the boundary, stop if the run is over, else
// re-optimize the residual on the trailing history.
func libraryReopts(m *cloud.Market, req serve.PlanRequest, frontier float64) (int, error) {
	bg := context.Background()
	profile, _ := app.ByName(req.App)
	base := req.Config(profile, nil)
	train := func(at float64) cloud.MarketView {
		lo := math.Max(0, at-baselines.History)
		return m.Window(lo, at-lo)
	}
	cfg := base
	cfg.Market = train(frontier)
	res, err := opt.OptimizeContext(bg, cfg)
	if err != nil {
		return 0, err
	}
	plan := res.Plan
	sess := replay.NewSession(&replay.Runner{Market: m, Profile: profile}, req.DeadlineHours, frontier)
	reopts := 0
	for boundary, end := frontier+boundaryWindow, m.MinDurationFor(nil); boundary <= end+1e-9; boundary += boundaryWindow {
		if dur := boundary - sess.Now(); dur > 0 {
			sess.Advance(plan, dur)
		}
		leftover := sess.Remaining()
		if sess.Completed || sess.AllGroupsDead || leftover <= 0 {
			return reopts, nil // finished, or finishes on demand
		}
		resid := profile.Scale(1 - sess.Progress)
		cfg := base
		cfg.Profile, cfg.Deadline, cfg.Market = resid, leftover, train(boundary)
		if fastest := opt.FastestOnDemand(base.OnDemandTypes, resid); leftover-fastest.T*1.02 < 2 {
			cfg.MaxAllFail = 0.1 // too close to the deadline to explore
		}
		res, err := opt.OptimizeContext(bg, cfg)
		if err != nil {
			return reopts, nil // no feasible plan: finishes on demand, uncounted
		}
		reopts++
		if len(res.Plan.Groups) == 0 {
			return reopts, nil // pure on-demand plan: run out
		}
		plan = res.Plan
	}
	return reopts, fmt.Errorf("session %s/%gh still live at the end of the market", req.App, req.DeadlineHours)
}

// checkBoundaryReopts fails the run unless a boundary-reopt pass
// reported exactly the re-optimizations Algorithm 1 takes on the library
// path for the sessions it registered.
func checkBoundaryReopts(res *runResult, warm, recs []rec, got int) {
	m := baseMarket()
	for i := range warm {
		applyTicks(m, &warm[i])
	}
	frontier := m.MinDurationFor(nil) // registrations precede the pass's feeds
	for i := range recs {
		applyTicks(m, &recs[i])
	}
	res.Attempted++
	want := 0
	perRequest := make(map[string]int) // copies register the same body
	for i := range recs {
		if !recs[i].register {
			continue
		}
		n, ok := perRequest[recs[i].Body]
		if !ok {
			var req serve.PlanRequest
			err := json.Unmarshal([]byte(recs[i].Body), &req)
			if err == nil {
				n, err = libraryReopts(m, req, frontier)
			}
			if err != nil {
				res.fail(1, "library path for session %s: %v", recs[i].Body, err)
				return
			}
			perRequest[recs[i].Body] = n
		}
		want += n
	}
	if got != want {
		res.fail(1, "pass reported %d re-optimizations, the library path takes exactly %d", got, want)
	}
	res.Counts["reoptimizations_expected"] += float64(want)
}

// checkSessions reads the session registry after a boundary-reopt pass:
// every session, the warm-up's included, must be done.
func checkSessions(res *runResult, c *client) error {
	b, err := c.get("/v1/sessions")
	if err != nil {
		return err
	}
	var sessions []serve.SessionInfo
	if err := json.Unmarshal(b, &sessions); err != nil {
		return err
	}
	open, reopts := 0, 0
	for _, s := range sessions {
		if !s.Done {
			open++
		}
		reopts += s.Reoptimized
	}
	res.Attempted++
	if open > 0 {
		res.fail(1, "%d of %d sessions still open after the pass", open, len(sessions))
	}
	res.Counts["sessions"] += float64(len(sessions))
	res.Counts["session_reoptimizations"] += float64(reopts)
	return nil
}
