package cloud

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"sompi/internal/trace"
)

// Shard is one spot market's live price store: the append log for a
// single (instance type, availability zone) pair. Each shard carries its
// own lock, version counter and bounded ring-buffer retention, so
// ingestion into one market never contends with ingestion into — or
// reads of — any other shard. This mirrors the paper's Algorithm 1,
// which re-optimizes per circle group: price movement in one (type, AZ)
// market is an event for that market alone.
//
// The samples live in one backing array; every trace the shard hands out
// is a capped view of it, and an append writes only past every view's
// end, so a captured view never changes and a reader's append onto it
// copies.
type shard struct {
	key MarketKey

	mu  sync.RWMutex
	buf []float64    // retained samples, then spare capacity
	tr  *trace.Trace // Prices is buf[:len(buf):len(buf)]
	// version is this shard's mutation counter: 1 at construction, +1
	// per append (empty appends included — the ingestion heartbeat).
	version uint64
	// ticks counts appends applied; unlike version it starts at 0, so
	// operators read it directly as "ingestion events seen".
	ticks uint64
	// compacted counts samples dropped by ring-buffer retention.
	compacted uint64
}

// newShard caps the caller's samples, so the first append copies and the
// caller's slice is never written.
func newShard(key MarketKey, tr *trace.Trace) *shard {
	s := &shard{key: key, version: 1}
	s.install(tr.Step, slices.Clip(tr.Prices), tr.Head)
	return s
}

// install makes buf the backing array and publishes the capped view over
// its samples; the caller holds the write lock (or owns the shard).
func (s *shard) install(step float64, buf []float64, head int) {
	n := len(buf)
	s.buf = buf
	s.tr = &trace.Trace{Step: step, Prices: buf[:n:n], Head: head}
}

// capture returns the shard's current trace and version under one read
// lock, so the pair is mutually consistent.
func (s *shard) capture() (*trace.Trace, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tr, s.version
}

// trace returns the shard's current immutable trace.
func (s *shard) currentTrace() *trace.Trace {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tr
}

// appendBatch validates and applies a run of ticks under one write-lock
// acquisition, enforcing the retention bound (retainHours of trailing
// history; 0 disables). Only this shard's lock is held — appends to
// different shards proceed in parallel. All ticks are validated before
// the lock is taken, so a bad sample rejects the batch whole with
// nothing applied.
//
// persist, when non-nil, is invoked under the write lock before the
// in-memory apply, with the version the first tick will produce: the
// WAL-first ordering. It logs the entire run in one call (group commit)
// and reports how many leading ticks are durably in the log; exactly
// that prefix is applied — a tick is applied iff its version is
// reachable by WAL replay. Holding the lock across persist also gives
// snapshots their barrier: a snapshot cut after this append's WAL write
// cannot capture the shard until the apply lands.
//
// Returns the number of ticks applied; a partial apply returns both the
// applied count and the error.
func (s *shard) appendBatch(ticks [][]float64, retainHours float64, persist PersistBatchFunc) (int, error) {
	for t, samples := range ticks {
		for i, p := range samples {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return 0, fmt.Errorf("%w: tick %d sample %d for %v is not a price: %v", ErrBadSample, t, i, s.key, p)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	apply := len(ticks)
	var persistErr error
	if persist != nil {
		n, err := persist(s.key, ticks, s.version+1)
		if err != nil {
			persistErr = fmt.Errorf("cloud: persisting batch for %v: %w", s.key, err)
		}
		if n < apply {
			apply = n
		}
	}
	for _, samples := range ticks[:apply] {
		s.applyLocked(samples, retainHours)
	}
	return apply, persistErr
}

// applyLocked performs the in-memory append; the caller holds the write
// lock. The samples land in buf's spare capacity, past the end of every
// view handed out; when it runs out, a fresh array of about twice the
// retained samples takes over, carrying the retained range only.
func (s *shard) applyLocked(samples []float64, retainHours float64) {
	buf := s.buf
	if n := len(buf) + len(samples); n > cap(buf) {
		buf = make([]float64, len(s.buf), 2*n)
		copy(buf, s.buf)
	}
	s.retainLocked(append(buf, samples...), retainHours)
	s.version++
	s.ticks++
}

// retainLocked installs buf minus the leading samples past the retention
// bound (0 disables), advancing the head so the absolute clock holds.
func (s *shard) retainLocked(buf []float64, retainHours float64) {
	drop := retainDrop(len(buf), s.tr.Step, retainHours)
	s.compacted += uint64(drop)
	s.install(s.tr.Step, buf[drop:], s.tr.Head+drop)
}

// applyReplay applies a WAL tick during recovery, idempotently: a
// version the shard already reached is skipped (it was materialized by
// the snapshot the replay started from), version+1 applies, and
// anything further ahead is a gap — records are missing and the store
// must not pretend otherwise. Reports whether the tick was applied.
func (s *shard) applyReplay(samples []float64, version uint64, retainHours float64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case version <= s.version:
		return false, nil
	case version == s.version+1:
		s.applyLocked(samples, retainHours)
		return true, nil
	default:
		return false, fmt.Errorf("cloud: replay gap for %v: shard at version %d, record claims %d", s.key, s.version, version)
	}
}

// exportState captures the shard's full durable state under one read
// lock. Prices is the shard's current view, shared, not copied: views
// are immutable.
func (s *shard) exportState() ShardState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ShardState{
		Type:      s.key.Type,
		Zone:      s.key.Zone,
		Step:      s.tr.Step,
		Head:      s.tr.Head,
		Prices:    s.tr.Prices,
		Version:   s.version,
		Ticks:     s.ticks,
		Compacted: s.compacted,
	}
}

// restoreState overwrites the shard from a snapshot capture.
func (s *shard) restoreState(st ShardState) error {
	if st.Step <= 0 {
		return fmt.Errorf("cloud: restoring %v: non-positive step %v", s.key, st.Step)
	}
	prices := make([]float64, len(st.Prices))
	copy(prices, st.Prices)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadLocked(st, prices)
	return nil
}

// loadLocked installs a snapshot capture over prices, the caller's
// private copy of st.Prices; the caller holds the write lock.
func (s *shard) loadLocked(st ShardState, prices []float64) {
	s.install(st.Step, prices, st.Head)
	s.version = st.Version
	s.ticks = st.Ticks
	s.compacted = st.Compacted
}

// mergeState restores the shard from a snapshot capture only when that
// advances the shard's version — the forward-only variant cluster
// replication uses, where a shipped snapshot may lag records already
// applied locally and must never rewind them. It returns how many
// versions the shard advanced (0 = state not taken), computed under the
// shard's write lock so the caller can adjust the market's composite
// tick counter by delta without racing concurrent appends.
func (s *shard) mergeState(st ShardState) (uint64, error) {
	if st.Step <= 0 {
		return 0, fmt.Errorf("cloud: merging %v: non-positive step %v", s.key, st.Step)
	}
	prices := make([]float64, len(st.Prices))
	copy(prices, st.Prices)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Version <= s.version {
		return 0, nil
	}
	delta := st.Version - s.version
	s.loadLocked(st, prices)
	return delta, nil
}

// compactTo applies a retention bound to the current trace without
// appending (used when retention is tightened on a live market).
func (s *shard) compactTo(retainHours float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retainLocked(s.buf, retainHours)
}

// retainDrop computes how many of n leading samples at step exceed the
// retention bound. At least one sample is always retained so the shard
// keeps a live price.
func retainDrop(n int, step, retainHours float64) int {
	if retainHours <= 0 {
		return 0
	}
	keep := int(retainHours / step)
	if keep < 1 {
		keep = 1
	}
	if drop := n - keep; drop > 0 {
		return drop
	}
	return 0
}

// ShardStat is one shard's observable ingestion state, surfaced through
// /healthz and /metrics so operators can see per-market ingestion skew.
type ShardStat struct {
	Key MarketKey
	// Version is the shard's mutation counter (1 = never appended).
	Version uint64
	// Ticks counts appends applied to this shard.
	Ticks uint64
	// Samples is the number of retained price samples.
	Samples int
	// Compacted counts samples dropped by ring-buffer retention.
	Compacted uint64
	// DurationHours is the shard's absolute price frontier.
	DurationHours float64
}

func (s *shard) stat() ShardStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ShardStat{
		Key:           s.key,
		Version:       s.version,
		Ticks:         s.ticks,
		Samples:       s.tr.Len(),
		Compacted:     s.compacted,
		DurationHours: s.tr.Duration(),
	}
}
