package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/obs"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/store"
)

// This file threads the durability subsystem (internal/store) through
// the service: price ticks and session transitions are event-sourced
// into the WAL, snapshots capture the full market + session state at a
// segment boundary, and New replays the store back into an exact
// pre-crash server before traffic is accepted. Without a configured
// Store every path here is a no-op and the service is pure in-memory,
// exactly as before durability existed.

// sessionState is one tracked session's durable state: the RecordSession
// WAL payload and the per-session unit of a snapshot. Every scalar is
// logged whole at every transition — recovery needs no re-optimization
// (replaying the optimizer would have to reproduce its exact inputs;
// replaying its recorded outputs is exact by construction). The audit
// log is the one part that only grows, so it travels in two forms: a
// snapshot carries the retained log in Audit, while a WAL record carries
// only AuditTail, the audit records no earlier record logged, and fold
// appends them. A session's k-th record therefore costs the same as its
// first, not O(k). Records written before the tail form carry Audit and
// no AuditN, and fold still reads them. Recovery decodes records into
// this type with json.Unmarshal; the write path appends the same
// document directly (appendSession), byte-identical to json.Marshal.
type sessionState struct {
	// Seq is the session's transition counter: 1 at registration, +1 per
	// persisted transition. Replay applies a record only when its Seq
	// exceeds the state already held, which makes WAL records that
	// straddle a snapshot boundary idempotent.
	Seq uint64 `json:"seq"`
	ID  string `json:"id"`
	App string `json:"app"`
	// Req is the original plan request: it rebuilds the optimizer config
	// (base) and the candidate-key restriction on recovery.
	Req     PlanRequest `json:"req"`
	History float64     `json:"history_hours"`

	// replay.Session carried state.
	Deadline      float64 `json:"deadline_hours"`
	Start         float64 `json:"start_hours"`
	Progress      float64 `json:"progress"`
	Elapsed       float64 `json:"elapsed_hours"`
	Cost          float64 `json:"cost"`
	Windows       int     `json:"windows"`
	Completed     bool    `json:"completed"`
	AllGroupsDead bool    `json:"all_groups_dead"`

	// Current plan and the inputs that rebuild it exactly: the residual
	// profile scale and the training window the plan was optimized
	// against (DecodePlan derives instance counts and recovery hours
	// from profile + market, so these three pin the rebuild).
	Plan       PlanPayload `json:"plan"`
	PlanScale  float64     `json:"plan_scale"`
	TrainStart float64     `json:"train_start_hours"`
	TrainDur   float64     `json:"train_dur_hours"`

	Boundary    float64 `json:"boundary_hours"`
	PlanVersion uint64  `json:"plan_version"`
	PlanCost    float64 `json:"plan_cost"`
	Reopts      int     `json:"reoptimized"`
	Done        bool    `json:"done"`
	// Audit is the retained audit log (the newest maxAuditRecords):
	// the full form, written by snapshots. AuditN counts audit records
	// ever appended, so the retained log holds records AuditN−len(Audit)
	// onward; AuditTail is the WAL form — the newest records only,
	// ending at record AuditN.
	Audit     []AuditRecord `json:"audit,omitempty"`
	AuditN    uint64        `json:"audit_n,omitempty"`
	AuditTail []AuditRecord `json:"audit_tail,omitempty"`
}

// errCorruptSessionRecord is the typed failure of a session record that
// does not decode, or does not fold onto the state held for its session
// (an audit tail that cannot continue it). Recovery fails closed on it.
var errCorruptSessionRecord = errors.New("serve: corrupt session record")

// decodeSessionRecord parses one session record payload — a WAL record
// or one session of a snapshot is the same document.
func decodeSessionRecord(payload []byte) (sessionState, error) {
	var st sessionState
	if err := json.Unmarshal(payload, &st); err != nil {
		return sessionState{}, fmt.Errorf("%w: %v", errCorruptSessionRecord, err)
	}
	return st, nil
}

// fold applies one record of a session to the state held for it — the
// one rule recovery's replay and a follower's staging share. A record
// whose Seq is not above the held one is a replay of what the state
// already reflects (records straddling a snapshot) and is skipped. A
// full-form record (Audit set, or no AuditN at all — every record before
// the tail form) replaces the state. A tail-form record replaces every
// scalar and appends the tail records the held log has not seen yet —
// the tail may overlap the held log (an append that failed, or the re-log
// after a restart), never leave a gap unless it is a whole retained log
// by itself — then keeps the newest maxAuditRecords. On error the held
// state is untouched.
func (st *sessionState) fold(rec sessionState) error {
	if rec.Seq <= st.Seq {
		return nil
	}
	tail := rec.AuditTail
	switch {
	case len(tail) > 0 && rec.Audit != nil:
		return fmt.Errorf("%w: session %s seq %d carries both an audit log and a tail", errCorruptSessionRecord, rec.ID, rec.Seq)
	case uint64(len(tail)) > rec.AuditN || len(tail) > maxAuditRecords:
		return fmt.Errorf("%w: session %s seq %d: audit tail of %d records ending at record %d",
			errCorruptSessionRecord, rec.ID, rec.Seq, len(tail), rec.AuditN)
	}
	if rec.Audit != nil || rec.AuditN == 0 {
		if rec.AuditN == 0 {
			rec.AuditN = uint64(len(rec.Audit))
		}
		if want := min(rec.AuditN, maxAuditRecords); uint64(len(rec.Audit)) != want {
			return fmt.Errorf("%w: session %s seq %d: audit log of %d records, want %d of %d",
				errCorruptSessionRecord, rec.ID, rec.Seq, len(rec.Audit), want, rec.AuditN)
		}
		*st = rec
		return nil
	}
	start := rec.AuditN - uint64(len(tail))
	switch {
	case rec.AuditN < st.AuditN:
		return fmt.Errorf("%w: session %s seq %d: audit count %d below the %d already held",
			errCorruptSessionRecord, rec.ID, rec.Seq, rec.AuditN, st.AuditN)
	case start > st.AuditN && len(tail) < maxAuditRecords:
		return fmt.Errorf("%w: session %s seq %d: audit tail starts at record %d, past the %d held",
			errCorruptSessionRecord, rec.ID, rec.Seq, start, st.AuditN)
	}
	if start < st.AuditN {
		tail = tail[st.AuditN-start:]
	}
	// Clipped, so the append never writes into an array another copy of
	// the held state still reads.
	audit := append(st.Audit[:len(st.Audit):len(st.Audit)], tail...)
	if len(audit) > maxAuditRecords {
		audit = audit[len(audit)-maxAuditRecords:]
	}
	rec.Audit, rec.AuditTail = audit, nil
	*st = rec
	return nil
}

// foldInto folds rec into the state m holds for its session, starting
// from nothing on the session's first record, and reports whether this
// record was that first one.
func foldInto(m map[string]*sessionState, rec sessionState) (first bool, err error) {
	st, ok := m[rec.ID]
	if !ok {
		st = &sessionState{}
	}
	if err := st.fold(rec); err != nil {
		return false, err
	}
	m[rec.ID] = st
	return !ok, nil
}

// snapshotPayload is the full service state materialized into one
// snapshot: every market shard and every session, in creation order.
// Recovery and the cluster decode snapshots into it; cutSnapshot writes
// the same document without building one.
type snapshotPayload struct {
	Market   []cloud.ShardState `json:"market"`
	Sessions []sessionState     `json:"sessions"`
}

// state renders the session's durable state with neither audit form;
// the snapshot capture adds the log, persistSession the tail. Caller
// holds t.mu (or owns the session exclusively, as registration and
// recovery do).
func (t *trackedSession) state() sessionState {
	return sessionState{
		Seq:           t.seq,
		ID:            t.id,
		App:           t.profile.Name,
		Req:           t.req,
		History:       t.history,
		Deadline:      t.sess.Deadline,
		Start:         t.sess.Start,
		Progress:      t.sess.Progress,
		Elapsed:       t.sess.Elapsed,
		Cost:          t.sess.Cost,
		Windows:       t.sess.Windows,
		Completed:     t.sess.Completed,
		AllGroupsDead: t.sess.AllGroupsDead,
		Plan:          EncodePlan(t.plan),
		PlanScale:     t.planScale,
		TrainStart:    t.trainStart,
		TrainDur:      t.trainDur,
		Boundary:      t.boundary,
		PlanVersion:   t.planVersion,
		PlanCost:      t.planCost,
		Reopts:        t.reopts,
		Done:          t.done,
		AuditN:        t.auditN,
	}
}

// persistTickBatch is the cloud.PersistBatchFunc the server installs:
// one shard's whole run of ticks logged WAL-first under one store mutex
// hold with one trailing fsync. It runs under the target shard's write
// lock, so nothing in memory has moved when it fails, and honors the
// prefix contract (see cloud.PersistBatchFunc): the returned count is
// exactly what WAL replay will reconstruct, so the market applies
// exactly that.
func (s *Server) persistTickBatch(key cloud.MarketKey, ticks [][]float64, firstVersion uint64) (int, error) {
	recs := make([]store.Record, len(ticks))
	for i, samples := range ticks {
		payload, err := store.EncodeTick(store.Tick{Type: key.Type, Zone: key.Zone, Version: firstVersion + uint64(i), Prices: samples})
		if err != nil {
			s.met.walAppendErrors.Add(int64(len(ticks) - i))
			return i, err
		}
		recs[i] = store.Record{Type: store.RecordTick, Payload: payload}
	}
	n, err := s.store.AppendBatch(recs)
	if err != nil {
		failed := int64(len(recs) - n)
		if failed == 0 {
			failed = 1 // trailing fsync failure: the unsynced tail is at risk
		}
		s.met.walAppendErrors.Add(failed)
	}
	for _, rec := range recs[:n] {
		s.met.walTickBytes.Add(int64(len(rec.Payload)))
	}
	return n, err
}

// persistSession logs one session transition and reports whether the
// record reached the WAL. Caller holds t.mu (or owns the session
// exclusively, as registration does) — which is the snapshot barrier: a
// snapshot cut after this record's WAL write cannot capture this
// session until the caller releases the lock, so the capture always
// includes the transition the record describes (and replaying the
// record over it is a Seq-skipped no-op). Registration is fail-closed
// on the returned error (no id leaves the server without a durable
// record); window transitions cannot be — the in-memory transition has
// already happened and an append failure cannot unwind it — so their
// callers rely on the logging and error counter here.
//
// The record carries the audit records no earlier record logged, and
// only an append that succeeded marks them logged, so a failed append's
// records ride the next one. The record is appended around the tail's
// encoded bytes into a buffer sized from the session's previous record,
// so a transition costs its own bytes, however long the log behind it.
func (s *Server) persistSession(t *trackedSession) error {
	if s.store == nil {
		return nil
	}
	t.seq++
	fresh := min(t.auditN-t.auditLogged, uint64(len(t.audit)))
	tail := t.audit[uint64(len(t.audit))-fresh:]
	tailBytes := 0
	for _, r := range tail {
		tailBytes += len(r) + 1
	}
	// The record's scalars and plan take what the previous record's did,
	// give or take a few digits; the first record starts from a typical
	// size.
	size := 1024
	if t.recHead > 0 {
		size = t.recHead + tailBytes + 32
	}
	body, err := t.appendState(make([]byte, 0, size), nil, tail)
	if err == nil {
		err = s.store.Append(store.Record{Type: store.RecordSession, Payload: body})
	}
	if err != nil {
		s.met.walAppendErrors.Add(1)
		s.log.Error("session transition not persisted", "session", t.id, "seq", t.seq, "error", err.Error())
		return err
	}
	t.recHead = len(body) - tailBytes
	t.auditLogged = t.auditN
	s.met.walSessionBytes.Add(int64(len(body)))
	return nil
}

// appendState appends the session's durable state as a sessionState
// document carrying audit (a snapshot's full log) and tail (a WAL
// record's unlogged records). Caller holds t.mu (or owns the session
// exclusively). An audit record that never encoded fails it.
func (t *trackedSession) appendState(b []byte, audit, tail []json.RawMessage) ([]byte, error) {
	if unencoded(audit) || unencoded(tail) {
		return b, t.auditErr
	}
	if t.reqJSON == nil {
		req, err := json.Marshal(t.req)
		if err != nil {
			return b, err
		}
		t.reqJSON = req
	}
	st := t.state()
	return appendSession(b, &st, t.reqJSON, audit, tail)
}

// maybeSnapshot arms a snapshot cut when the store says one is due —
// when the WAL appended since the last cut outweighs both one segment and
// that cut (store.SnapshotDue). The cut itself runs on a background
// goroutine — one in flight at a time, re-armed when it lands — so no
// ingest request ever pays for the WAL rotation fsyncs and the full-state
// encode in its response latency. Close drains snapWG before cutting its
// own shutdown snapshot.
func (s *Server) maybeSnapshot() {
	if s.store == nil || !s.store.SnapshotDue() {
		return
	}
	if !s.snapping.CompareAndSwap(false, true) {
		return
	}
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		defer s.snapping.Store(false)
		// ErrClosed is the shutdown race — Close already cut (or is
		// cutting) the final snapshot — not a failure worth logging.
		if err := s.cutSnapshot(); err != nil && !errors.Is(err, store.ErrClosed) {
			s.log.Error("snapshot failed", "error", err.Error())
		}
	}()
}

// cutSnapshot streams the full service state into a snapshot at a fresh
// WAL segment boundary, holding one shard's or one session's bytes at a
// time: each shard is json.Marshal's and each session is appended around
// its audit log's encoded bytes into one reused buffer, so the document
// is byte-identical to marshaling a snapshotPayload. The store rotates
// first and invokes the capture with no store lock held; the capture's
// shard read locks and per-session t.mu acquisitions are the barrier
// that makes the snapshot cover every record below the boundary (see
// store.StreamSnapshot): a tick or transition logged before the rotation
// was written under the same lock the capture takes, so the capture
// cannot see a state the log has not reached.
func (s *Server) cutSnapshot() error {
	start := time.Now()
	err := s.store.StreamSnapshot(func(w io.Writer) error {
		buf := []byte(`{"market":[`)
		flush := func() error {
			_, err := w.Write(buf)
			buf = buf[:0]
			return err
		}
		for i, shard := range s.market.ExportShards() {
			if i > 0 {
				buf = append(buf, ',')
			}
			b, err := json.Marshal(&shard)
			if err != nil {
				return err
			}
			if err := flush(); err != nil {
				return err
			}
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
		buf = append(buf, `],"sessions":[`...)
		// Sessions are only ever added, so the list taken under s.mu is
		// every session whose registration record precedes the boundary.
		s.mu.RLock()
		sessions := make([]*trackedSession, len(s.order))
		for i, id := range s.order {
			sessions[i] = s.sessions[id]
		}
		s.mu.RUnlock()
		for i, t := range sessions {
			if i > 0 {
				buf = append(buf, ',')
			}
			var err error
			t.mu.Lock()
			buf, err = t.appendState(buf, t.audit, nil)
			t.mu.Unlock()
			if err == nil {
				err = flush()
			}
			if err != nil {
				return err
			}
		}
		buf = append(buf, "]}"...)
		return flush()
	})
	if s.col != nil {
		stats := s.store.Stats()
		s.col.RecordSpan("store.snapshot", start,
			obs.Attr{Key: "boundary_segment", Value: fmt.Sprint(stats.SnapshotSeq)},
			obs.Attr{Key: "ok", Value: fmt.Sprint(err == nil)})
	}
	return err
}

// recoverFromStore replays the data directory into the server: market
// shards and session registry land byte-identical to the pre-crash
// state. Runs inside New, before the persist hooks are installed (the
// replay itself must not be re-logged) and before any traffic.
func (s *Server) recoverFromStore() error {
	start := time.Now()
	states := make(map[string]*sessionState)
	var order []string
	applySession := func(rec sessionState) error {
		first, err := foldInto(states, rec)
		if first {
			order = append(order, rec.ID)
		}
		return err
	}

	err := s.store.Recover(
		func(payload []byte) error {
			var snap snapshotPayload
			if err := json.Unmarshal(payload, &snap); err != nil {
				return fmt.Errorf("decoding snapshot: %w", err)
			}
			if err := s.market.RestoreShards(snap.Market); err != nil {
				return err
			}
			for _, st := range snap.Sessions {
				if err := applySession(st); err != nil {
					return err
				}
			}
			return nil
		},
		func(rec store.Record) error {
			switch rec.Type {
			case store.RecordTick:
				tick, err := store.DecodeTick(rec.Payload)
				if err != nil {
					return err
				}
				return s.market.ApplyTick(cloud.MarketKey{Type: tick.Type, Zone: tick.Zone}, tick.Prices, tick.Version)
			case store.RecordSession:
				st, err := decodeSessionRecord(rec.Payload)
				if err != nil {
					return err
				}
				return applySession(st)
			default:
				// Unknown record types are skipped: a newer binary may add
				// kinds this one does not know.
				return nil
			}
		})
	if err != nil {
		return err
	}

	for _, id := range order {
		t, err := s.materializeSession(*states[id])
		if err != nil {
			return fmt.Errorf("restoring session %s: %w", id, err)
		}
		s.sessions[id] = t
		s.order = append(s.order, id)
		if !t.done {
			s.met.activeSessions.Add(1)
		} else {
			s.met.completedSessions.Add(1)
		}
		// Cluster ids are node-prefixed ("a/s3"); the counter tail is
		// always the last '/'-separated segment.
		tail := id
		if i := strings.LastIndex(id, "/"); i >= 0 {
			tail = id[i+1:]
		}
		var n int
		if _, serr := fmt.Sscanf(tail, "s%d", &n); serr == nil && n > s.nextID {
			s.nextID = n
		}
	}

	seconds := time.Since(start).Seconds()
	s.met.recoverySecondsBits.Store(math.Float64bits(seconds))
	if s.col != nil {
		s.col.RecordSpan("store.recover", start,
			obs.Attr{Key: "sessions", Value: fmt.Sprint(len(order))},
			obs.Attr{Key: "market_version", Value: fmt.Sprint(s.market.Version())},
			obs.Attr{Key: "truncated_tail_bytes", Value: fmt.Sprint(s.store.Stats().TruncatedTailBytes)})
	}
	s.log.Info("recovered", "data_dir", s.store.Dir(), "sessions", len(order),
		"market_version", s.market.Version(), "seconds", seconds)
	return nil
}

// materializeSession rebuilds one tracked session from its recorded
// state — as data, with no re-optimization. The plan of a live session
// is rebuilt through DecodePlan against the recorded residual scale and
// training window over the already-restored market, which reproduces
// the exact model.Plan (instance counts, recovery fleet, failure
// distributions) the pre-crash server held.
func (s *Server) materializeSession(st sessionState) (*trackedSession, error) {
	profile, ok := app.ByName(st.App)
	if !ok {
		return nil, fmt.Errorf("%w: unknown workload %q", opt.ErrInvalidConfig, st.App)
	}
	// The strategy rides the persisted request — rebuilding it here
	// restores exactly the re-planning policy the pre-crash server ran.
	base, strat, err := planner(st.Req, profile)
	if err != nil && st.Req.Strategy == "" {
		// Recorded before requests without a strategy were checked
		// against the sompi schema: the session keeps the knobs it was
		// accepted with rather than failing the whole recovery.
		base, strat, err = st.Req.Config(profile, nil), nil, nil
	}
	if err != nil {
		return nil, err
	}
	keys := st.Req.CandidateKeys(s.market)
	base.Candidates = keys

	sess := replay.NewSession(&replay.Runner{Market: s.market, Profile: profile}, st.Deadline, st.Start)
	sess.Progress = st.Progress
	sess.Elapsed = st.Elapsed
	sess.Cost = st.Cost
	sess.Windows = st.Windows
	sess.Completed = st.Completed
	sess.AllGroupsDead = st.AllGroupsDead

	audit := make([]json.RawMessage, len(st.Audit))
	for i := range st.Audit {
		if audit[i], err = appendAudit(nil, &st.Audit[i]); err != nil {
			return nil, err
		}
	}
	t := &trackedSession{
		id:          st.ID,
		profile:     profile,
		history:     st.History,
		base:        base,
		keys:        keys,
		req:         st.Req,
		strat:       strat,
		sess:        sess,
		boundary:    st.Boundary,
		planVersion: st.PlanVersion,
		planCost:    st.PlanCost,
		planScale:   st.PlanScale,
		trainStart:  st.TrainStart,
		trainDur:    st.TrainDur,
		reopts:      st.Reopts,
		done:        st.Done,
		seq:         st.Seq,
		audit:       audit,
		// auditLogged starts at zero: the session's next record re-logs
		// the retained log once, so a WAL this state is new to — a
		// promotion's, before its snapshot lands — continues it without
		// a gap.
		auditN: st.AuditN,
	}
	if !st.Done {
		prof := profile
		if st.PlanScale > 0 && st.PlanScale < 1 {
			prof = profile.Scale(st.PlanScale)
		}
		plan, err := DecodePlan(st.Plan, prof, s.market.Window(st.TrainStart, st.TrainDur))
		if err != nil {
			return nil, err
		}
		t.plan = plan
	}
	return t, nil
}

// Close shuts the service's background machinery down and, on a durable
// server, flushes its state: in-flight re-optimizations are cancelled
// (their boundaries stay in the WAL for the next boot), feeds already
// applying finish and later ones are refused (503), the scheduler
// workers drain, then a final snapshot lands at a clean segment
// boundary and the active WAL segment is fsync-closed.
// Graceful shutdown must call it after the HTTP server has drained; an
// in-memory server stops its goroutines and keeps serving reads.
// Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Cancel first so a worker stuck in a long optimization aborts
	// instead of stalling shutdown; then stop ingest (no new frontier
	// movement) and the workers.
	s.runCancel()
	// Cluster machinery first: probers must not promote a peer that is
	// merely shutting down alongside us, and followers must stop driving
	// the market before ingest does.
	if s.cluster != nil {
		s.cluster.stop()
	}
	s.ing.stop()
	s.sched.stop()
	// Seal the capture log: traffic is drained, so the active segment is
	// complete and earns its final (sealed) name.
	if s.capture != nil {
		if err := s.capture.Close(); err != nil {
			s.log.Error("sealing capture log failed", "error", err.Error())
		}
	}
	if s.store == nil {
		return nil
	}
	// Wait out any background cut: its boundary would otherwise race
	// the shutdown snapshot's (the store serializes the cuts, but the
	// final snapshot must be the newest one on disk).
	s.snapWG.Wait()
	if err := s.cutSnapshot(); err != nil {
		// The WAL still holds everything the snapshot would have covered;
		// recovery replays it. Closing cleanly matters more than the
		// snapshot, so log and continue.
		s.log.Error("shutdown snapshot failed", "error", err.Error())
	}
	s.market.SetPersistBatch(nil)
	return s.store.Close()
}
