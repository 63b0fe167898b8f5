package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/strategy"
)

// trackedSession is one live application run the service manages per
// Algorithm 1: launched at the market's price frontier, it is replayed
// forward — against the actually ingested prices — every time the
// frontier crosses its next T_m window boundary, then re-optimized on
// the trailing history for the residual work.
//
// The live loop deliberately differs from opt.Adaptive's replay of a
// recorded trace in one place: Adaptive can commit a final window and
// replay it through to completion because the future prices are already
// on disk, while the service has no future — when the deadline gets too
// close for exploration it instead keeps re-planning window by window
// under the same MaxAllFail survival constraint the committed window
// would have used.
type trackedSession struct {
	id      string
	profile app.Profile
	history float64
	// mu guards every mutable field below: session state moved off the
	// global s.mu so scheduler workers advancing different sessions
	// never contend. Lock ordering: t.mu may be taken under s.mu
	// (listing, snapshot capture) and may be held while taking shard
	// read locks or the store mutex (advance + persist), but never
	// while taking sched.mu — workers re-schedule a session only after
	// releasing it.
	mu sync.Mutex
	// base carries the request's optimizer knobs; Market, Profile and
	// Deadline are refilled at every re-optimization. base.Candidates
	// pins the request's Types/Zones restriction across re-plans.
	base opt.Config
	// keys is the session's market universe (nil = every shard): its
	// window boundaries are measured against the frontier of these
	// shards only, so ticks on markets outside its plan's candidate set
	// never trigger a re-optimization.
	keys []cloud.MarketKey
	// sess threads progress/cost/clock between windows — the same
	// vehicle opt.Adaptive uses.
	sess *replay.Session
	// plan is the currently executing plan; boundary is the absolute
	// market hour of the next re-optimization; planVersion the market
	// version the plan was optimized at.
	plan        model.Plan
	boundary    float64
	planVersion uint64
	// planCost is the current plan's estimated cost at its optimization
	// time — the "old" side of the next audit record's cost delta.
	planCost float64
	// planScale, trainStart and trainDur record the inputs the current
	// plan was optimized with — the residual profile fraction and the
	// training window in absolute market hours — so recovery can rebuild
	// the exact model.Plan through DecodePlan without re-optimizing.
	planScale  float64
	trainStart float64
	trainDur   float64
	// strat, when non-nil, re-plans each window through a registry
	// strategy instead of the default Algorithm-1 optimizer call. It is
	// rebuilt from req on recovery (never persisted itself): sessions
	// planned by "" or "sompi" keep strat nil so the default loop — the
	// reuse cache, committed-window MaxAllFail, single-flight dedup —
	// runs exactly as before.
	strat strategy.Strategy
	// req is the original plan request; seq the session's durable
	// transition counter (see sessionState). reqJSON is req's encoding,
	// made by the first durable write and spliced into every one after
	// it: the request never changes.
	req     PlanRequest
	reqJSON []byte
	seq     uint64
	reopts  int
	done    bool
	// audit is the session's append-only decision log, oldest first,
	// bounded at maxAuditRecords (oldest dropped beyond it), each record
	// held as its JSON encoding: encoded once when it is made, then only
	// spliced into WAL records, snapshots and /v1/sessions. auditN counts
	// the records ever appended and auditLogged how many of those a WAL
	// record already carries; the next record logs the rest. A nil record
	// is one that did not encode (a non-finite cost) and auditErr its
	// error: while the log retains it, every WAL record or snapshot that
	// would carry it fails and so does /v1/sessions, as json.Marshal of
	// the record fails; it leaves the log at the bound like any other.
	audit       []json.RawMessage
	auditN      uint64
	auditLogged uint64
	auditErr    error
	// recHead is the length of the session's last WAL record without its
	// audit tail — the size hint for the next one's buffer.
	recHead int
}

// maxAuditRecords bounds a session's audit log; a session re-optimizing
// every window for its whole deadline stays far below it, so a full log
// signals a runaway trigger loop rather than normal operation.
const maxAuditRecords = 256

// recordAudit appends one decision record, encoded. Caller holds t.mu;
// newPlan is nil when the session went terminal without adopting a
// fresh plan.
func (s *Server) recordAudit(t *trackedSession, trigger string, newPlan *model.Plan, newCost float64, optErr error) {
	rec := AuditRecord{
		Window:        t.sess.Windows,
		BoundaryHours: t.boundary,
		Trigger:       trigger,
		OldPlan:       EncodePlan(t.plan),
		OldPlanCost:   t.planCost,
		NewPlanCost:   newCost,
	}
	if newPlan != nil {
		p := EncodePlan(*newPlan)
		rec.NewPlan = &p
		rec.CostDelta = newCost - t.planCost
	}
	if optErr != nil {
		rec.Error = optErr.Error()
	}
	// Sized from the previous record, which differs from this one by a
	// few digits and a plan width; the first starts from a typical size.
	size := 1024
	if n := len(t.audit); n > 0 {
		size = len(t.audit[n-1]) + 64
	}
	b, err := appendAuditHead(make([]byte, 0, size), &rec)
	if err == nil {
		b = s.appendVersions(b, t.keys)
		b, err = appendAuditRest(b, &rec)
	}
	if err != nil {
		b, t.auditErr = nil, err
	}
	if len(t.audit) >= maxAuditRecords {
		t.audit = t.audit[1:]
	}
	t.audit = append(t.audit, b)
	t.auditN++
}

// versionKey is one market shard's entry in an audit record's version
// object: the key and its name, pre-encoded as the object key.
type versionKey struct {
	key  cloud.MarketKey
	name []byte
}

// newVersionKeys lists the market's shards in the order encoding/json
// writes a map[string]uint64 keyed by their names — sorted by name. The
// market's key set is fixed, so the server builds this once.
func newVersionKeys(m *cloud.Market) []versionKey {
	keys := m.Keys()
	slices.SortFunc(keys, func(a, b cloud.MarketKey) int { return strings.Compare(a.String(), b.String()) })
	out := make([]versionKey, len(keys))
	for i, k := range keys {
		out[i] = versionKey{key: k, name: append(appendString(nil, k.String()), ':')}
	}
	return out
}

// appendVersions appends the version object of the shards in keys (nil =
// every shard), read shard by shard — the encoding of
// VersionVector().Subset(keys) with the names as keys, built without
// either map. A key the market lacks is skipped, as Subset skips it.
func (s *Server) appendVersions(b []byte, keys []cloud.MarketKey) []byte {
	b = append(b, '{')
	first := true
	for _, vk := range s.versionKeys {
		if keys != nil && !slices.Contains(keys, vk.key) {
			continue
		}
		v, ok := s.market.ShardVersion(vk.key)
		if !ok {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, vk.name...)
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, '}')
}

// unencoded reports whether recs holds a record that did not encode.
func unencoded(recs []json.RawMessage) bool {
	return slices.ContainsFunc(recs, func(r json.RawMessage) bool { return r == nil })
}

// sessionListing is one /v1/sessions entry: a SessionInfo whose audit
// records are spliced from their encodings instead of decoded and
// re-encoded. Audit is SessionInfo's last field, so the shadowing field
// keeps encoding/json's field order and the listing's bytes are those of
// the SessionInfo the records decode to.
type sessionListing struct {
	SessionInfo
	Audit []json.RawMessage `json:"audit,omitempty"`
}

// listing copies the session's observable state under the session's own
// lock. The audit records' bytes never change once made, so copying the
// slice of them is the whole copy; the caller encodes it after the lock
// is released while re-optimizations keep appending. An unencoded
// record fails the listing with auditErr.
func (t *trackedSession) listing() (sessionListing, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if unencoded(t.audit) {
		return sessionListing{}, t.auditErr
	}
	return sessionListing{
		Audit: slices.Clone(t.audit),
		SessionInfo: SessionInfo{
			ID:            t.id,
			App:           t.profile.Name,
			DeadlineHours: t.sess.Deadline,
			StartHours:    t.sess.Start,
			Progress:      t.sess.Progress,
			ElapsedHours:  t.sess.Elapsed,
			Cost:          t.sess.Cost,
			Windows:       t.sess.Windows,
			Reoptimized:   t.reopts,
			PlanVersion:   t.planVersion,
			Done:          t.done,
			Completed:     t.sess.Completed,
		},
	}, nil
}

// advanceSession drives one session up to the price frontier of its own
// candidate shards, one T_m window at a time, under the session's lock.
// Scheduler workers call it off the request path; the loop holds t.mu
// across each window's replay, re-optimization and WAL append so a
// snapshot capture (which takes the same lock) always sees a state the
// log reaches exactly.
func (s *Server) advanceSession(ctx context.Context, t *trackedSession) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.done && t.boundary <= s.market.MinDurationFor(t.keys)+1e-9 {
		aborted := s.advanceWindow(ctx, t)
		if aborted {
			// Shutdown cancelled the optimization mid-window; the session
			// was restored to its pre-window state and its boundary stays
			// in the WAL for the next boot to reschedule.
			return
		}
		// Every window transition is durable: the session either
		// advanced, re-optimized or went terminal, and a crash right
		// after this line restores exactly that state.
		s.persistSession(t)
	}
}

// advanceWindow replays one window of the session's current plan (up to
// its boundary) and re-optimizes the residual. Caller holds t.mu. It
// reports whether the window was aborted by server shutdown — the only
// outcome that leaves the session unchanged.
func (s *Server) advanceWindow(ctx context.Context, t *trackedSession) (aborted bool) {
	// Capture the replay state first: a shutdown that cancels the
	// optimizer mid-window must not strand the session half-advanced
	// with no adopted plan (it would be misrecorded as a terminal
	// opt_error), so the abort path restores this and retries after
	// restart.
	saved := *t.sess
	// Retention guard: New rejects retain < history + window for the
	// server defaults, but a request can ask for a longer history and a
	// lagging session can fall behind compaction. If this window's
	// replay start or training window reaches before the retained head
	// of the session's shards, the market clamps those reads to the
	// oldest survivor — count it so operators see the wrong-price replay
	// instead of it staying silent.
	if head := s.market.RetainedStartFor(t.keys); head-1e-9 > math.Min(t.sess.Now(), math.Max(0, t.boundary-t.history)) {
		s.met.windowTruncations.Add(1)
	}
	if dur := t.boundary - t.sess.Now(); dur > 0 {
		t.sess.Advance(t.plan, dur)
	}
	if t.sess.Completed {
		s.recordAudit(t, "completed", nil, 0, nil)
		s.finishSession(t)
		return false
	}

	leftover := t.sess.Remaining()
	if t.sess.AllGroupsDead || leftover <= 0 || t.sess.Progress >= 1 {
		// Every group died inside the window (recover on-demand from the
		// best checkpoint) or the deadline has passed (nothing left to
		// optimize for): finish on the fastest fleet. On-demand execution
		// is price-independent, so replaying it past the frontier peeks
		// at nothing.
		s.recordAudit(t, "recovered_on_demand", nil, 0, nil)
		s.recoverOnDemand(t)
		s.finishSession(t)
		return false
	}

	// Algorithm 1's window boundary: train on the trailing history,
	// re-optimize the residual work against the deadline's leftover.
	resid := t.profile.Scale(1 - t.sess.Progress)
	cfg := t.base
	cfg.Profile = resid
	trainStart := math.Max(0, t.boundary-t.history)
	cfg.Deadline = leftover
	if fastest := opt.FastestOnDemand(t.base.OnDemandTypes, resid); leftover-fastest.T*1.02 < 2 {
		// Too close to the deadline for exploration: only plans that are
		// very unlikely to lose every group qualify (the live-service
		// analogue of Adaptive's committed window).
		cfg.MaxAllFail = 0.1
	}

	// Re-optimization is the same cold search /v1/plan runs, on the
	// server's reuse cache: unchanged shards reuse their prepared state
	// and ranking costs, which never changes the plan (see
	// opt.ReuseCache for the bit-identity argument).
	cfg.Reuse = s.reuse
	var res opt.Result
	var err error
	if t.strat != nil {
		// Registry strategy: re-plan the residual through the strategy's
		// own policy. The committed-window MaxAllFail tightening above is
		// an optimizer knob; strategies carry their own risk posture.
		// Strategies skip the single-flight dedup — their planning may be
		// stateful (adaptive-ckpt's cadence pass), so two sessions are
		// only provably identical on the default path.
		cfg.Market = s.market.Window(trainStart, t.boundary-trainStart)
		strategy.Configure(t.strat, t.keys, s.reuse)
		var p strategy.Plan
		p, _, err = t.strat.Plan(ctx, cfg.Market,
			strategy.Workload{Profile: resid}, strategy.Deadline{Hours: leftover})
		res = opt.Result{Plan: p.Model, Est: p.Est, Evals: p.Evals, Pruned: p.Pruned, SavedEvals: p.SavedEvals}
		s.met.observeOptimize(res)
	} else {
		// Identical sessions hitting the same boundary coalesce onto one
		// optimizer run. The search-effort counters live inside the
		// leader's closure so a deduplicated re-opt counts its shared run
		// once, not k times.
		var shared bool
		res, shared, err = s.reopts.do(ctx, s.reoptKey(t, cfg, leftover, trainStart), func() (opt.Result, error) {
			// The training-window snapshot is built inside the leader's
			// closure: it copies every candidate shard's history under
			// read locks, and followers sharing the leader's result never
			// need it — k coalesced sessions pay for one copy, not k.
			run := cfg
			run.Market = s.market.Window(trainStart, t.boundary-trainStart)
			r, e := opt.OptimizeContext(ctx, run)
			s.met.observeOptimize(r)
			return r, e
		})
		if shared {
			s.met.reoptDeduped.Add(1)
		}
	}
	switch {
	case err != nil:
		if ctx.Err() != nil {
			// Server shutdown, not an optimizer failure: undo the window's
			// replay and leave the session exactly where the WAL has it.
			*t.sess = saved
			return true
		}
		s.recordAudit(t, "opt_error", nil, 0, err)
		s.recoverOnDemand(t)
		s.finishSession(t)
		return false
	case len(res.Plan.Groups) == 0:
		// The optimizer's best feasible plan is pure on-demand: run it
		// out (price-independent, so no peeking).
		s.recordAudit(t, "ran_out_on_demand", &res.Plan, res.Est.Cost, nil)
		t.sess.Advance(res.Plan, math.Inf(1))
		t.reopts++
		s.met.reoptimizations.Add(1)
		s.finishSession(t)
		return false
	default:
		s.recordAudit(t, "reoptimized", &res.Plan, res.Est.Cost, nil)
		t.plan = res.Plan
		t.planVersion = s.market.Version()
		t.planCost = res.Est.Cost
		// Record the rebuild inputs before the boundary moves: the plan
		// was optimized for the residual at current progress, trained on
		// [trainStart, boundary).
		t.planScale = 1 - t.sess.Progress
		t.trainStart = trainStart
		t.trainDur = t.boundary - trainStart
		t.boundary += s.window
		t.reopts++
		s.met.reoptimizations.Add(1)
		return false
	}
}

// reoptKey is the dedup key for a session re-optimization: every knob
// that determines the optimizer's inputs at this boundary. The market
// content is pinned not by a version vector (which moves with every
// heartbeat tick while workers run) but by the training window itself:
// once the frontier of the session's shards has crossed the boundary,
// the samples inside [trainStart, boundary) are immutable — appends
// only extend past the frontier — except for retention truncation,
// which the effective retained start pins. Two sessions with equal keys
// therefore hand the optimizer bit-identical inputs and get the
// identical plan.
func (s *Server) reoptKey(t *trackedSession, cfg opt.Config, leftover, trainStart float64) string {
	effStart := math.Max(trainStart, s.market.RetainedStartFor(t.keys))
	return fmt.Sprintf("reopt|%s|%g|%d|%d|%d|%g|%g|%t|%t|t:%s|z:%s|s:%s|sp{%s}|sc:%v|lo:%v|ts:%v|b:%v|es:%v|maf:%v",
		t.profile.Name, t.history, cfg.Kappa, cfg.GridLevels, cfg.MaxGroups,
		cfg.Slack, t.base.MaxAllFail, cfg.DisableCheckpoints, cfg.DisablePruning,
		strings.Join(t.req.Types, ","), strings.Join(t.req.Zones, ","),
		t.req.Strategy, appendParams(nil, t.req.StrategyParams),
		1-t.sess.Progress, leftover, trainStart, t.boundary, effStart, cfg.MaxAllFail)
}

// recoverOnDemand runs the session's remaining work to completion on
// the fastest on-demand fleet for the residual profile — the same
// fallback opt.Adaptive takes when a window leaves no feasible plan.
// Caller holds t.mu.
func (s *Server) recoverOnDemand(t *trackedSession) {
	if t.sess.Progress >= 1 {
		return
	}
	resid := t.profile.Scale(1 - t.sess.Progress)
	fastest := opt.FastestOnDemand(t.base.OnDemandTypes, resid)
	t.sess.Advance(model.Plan{Recovery: fastest}, math.Inf(1))
}

// finishSession marks the session terminal and moves the gauges. Caller
// holds t.mu.
func (s *Server) finishSession(t *trackedSession) {
	t.done = true
	s.met.activeSessions.Add(-1)
	s.met.completedSessions.Add(1)
}
