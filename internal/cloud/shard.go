package cloud

import (
	"fmt"
	"math"
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
// The trace inside a shard is immutable; append installs a fresh
// *trace.Trace. A reader that captured the trace before an append keeps
// a consistent view forever.
type shard struct {
	key MarketKey

	mu sync.RWMutex
	tr *trace.Trace
	// version is this shard's mutation counter: 1 at construction, +1
	// per append (empty appends included — the ingestion heartbeat).
	version uint64
	// ticks counts appends applied; unlike version it starts at 0, so
	// operators read it directly as "ingestion events seen".
	ticks uint64
	// compacted counts samples dropped by ring-buffer retention.
	compacted uint64
}

func newShard(key MarketKey, tr *trace.Trace) *shard {
	return &shard{key: key, tr: tr, version: 1}
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
// Returns the number of ticks applied and the shard's resulting
// version; a partial apply returns both the applied count and the
// error.
func (s *shard) appendBatch(ticks [][]float64, retainHours float64, persist PersistBatchFunc) (int, uint64, error) {
	for t, samples := range ticks {
		for i, p := range samples {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				s.mu.RLock()
				v := s.version
				s.mu.RUnlock()
				return 0, v, fmt.Errorf("%w: tick %d sample %d for %v is not a price: %v", ErrBadSample, t, i, s.key, p)
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
	return apply, s.version, persistErr
}

// applyLocked performs the in-memory append; the caller holds the write
// lock.
func (s *shard) applyLocked(samples []float64, retainHours float64) {
	next := s.tr.Append(trace.New(s.tr.Step, samples))
	if drop := retainDrop(next, retainHours); drop > 0 {
		next = next.Compact(drop)
		s.compacted += uint64(drop)
	}
	s.tr = next
	s.version++
	s.ticks++
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
// lock.
func (s *shard) exportState() ShardState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	prices := make([]float64, len(s.tr.Prices))
	copy(prices, s.tr.Prices)
	return ShardState{
		Type:      s.key.Type,
		Zone:      s.key.Zone,
		Step:      s.tr.Step,
		Head:      s.tr.Head,
		Prices:    prices,
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
	s.tr = &trace.Trace{Step: st.Step, Prices: prices, Head: st.Head}
	s.version = st.Version
	s.ticks = st.Ticks
	s.compacted = st.Compacted
	return nil
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
	s.tr = &trace.Trace{Step: st.Step, Prices: prices, Head: st.Head}
	s.version = st.Version
	s.ticks = st.Ticks
	s.compacted = st.Compacted
	return delta, nil
}

// compactTo applies a retention bound to the current trace without
// appending (used when retention is tightened on a live market).
func (s *shard) compactTo(retainHours float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if drop := retainDrop(s.tr, retainHours); drop > 0 {
		s.tr = s.tr.Compact(drop)
		s.compacted += uint64(drop)
	}
}

// retainDrop computes how many leading samples exceed the retention
// bound. At least one sample is always retained so the shard keeps a
// live price.
func retainDrop(tr *trace.Trace, retainHours float64) int {
	if retainHours <= 0 {
		return 0
	}
	keep := int(retainHours / tr.Step)
	if keep < 1 {
		keep = 1
	}
	if drop := tr.Len() - keep; drop > 0 {
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
