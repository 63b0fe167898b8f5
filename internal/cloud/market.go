package cloud

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"sompi/internal/stats"
	"sompi/internal/trace"
)

// ErrUnknownMarket reports an append against a (type, zone) pair the
// market does not carry. Ingestion must target existing markets: the
// catalog and zone set are fixed at market construction, and a typo'd
// key silently creating a new market would corrupt every version-keyed
// cache downstream.
var ErrUnknownMarket = errors.New("cloud: unknown market")

// ErrBadSample reports an ingested price that is not a price (negative,
// NaN or infinite). The offending request is rejected whole: a partial
// append would leave the market's version claiming an update that only
// half-happened.
var ErrBadSample = errors.New("cloud: invalid price sample")

// MarketKey identifies one spot market: an instance type in an availability
// zone. Each market is a candidate circle group.
type MarketKey struct {
	Type string
	Zone string
}

func (k MarketKey) String() string { return k.Type + "/" + k.Zone }

// VersionVector maps each market key to its shard's version. It is the
// fine-grained analogue of the composite Version: a consumer that only
// read some shards records just those entries, and a cache keyed on the
// subset stays valid across ticks on every other shard.
type VersionVector map[MarketKey]uint64

// Subset returns the vector restricted to keys (missing keys are
// skipped). A nil keys slice returns vv itself.
func (vv VersionVector) Subset(keys []MarketKey) VersionVector {
	if keys == nil {
		return vv
	}
	out := make(VersionVector, len(keys))
	for _, k := range keys {
		if v, ok := vv[k]; ok {
			out[k] = v
		}
	}
	return out
}

// String renders the vector deterministically — entries in sorted key
// order — so it can serve as a cache-key component.
func (vv VersionVector) String() string {
	keys := make([]MarketKey, 0, len(vv))
	for k := range vv {
		keys = append(keys, k)
	}
	sortKeys(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", k, vv[k])
	}
	return b.String()
}

// MarketView is the read-only interface every price-history consumer —
// the optimizer, the replay simulator, the baselines, the serve layer —
// programs against. Two implementations exist: *Market (the live
// sharded store; reads take per-shard read locks) and *MarketSnapshot
// (an immutable capture; reads are lock-free). Long-running work
// (optimization, Monte Carlo) should take a Capture of a live *Market
// first so ingestion never races its reads.
type MarketView interface {
	// Catalog returns the instance types the market's keys refer to.
	Catalog() Catalog
	// Zones returns the availability zones the market spans.
	Zones() []string
	// Keys returns the market keys in deterministic (type, zone) order.
	Keys() []MarketKey
	// NumMarkets reports the number of (type, zone) shards.
	NumMarkets() int
	// Trace returns one market's price history, panicking if the market
	// does not exist — asking for an unknown market is a programming
	// error, not an environmental condition.
	Trace(typeName, zone string) *trace.Trace
	// TraceFor is the non-panicking lookup.
	TraceFor(key MarketKey) (*trace.Trace, bool)
	// Version is the composite mutation version: construction yields 1
	// and every Append (to any shard) adds 1, so version arithmetic from
	// the pre-sharding Market is preserved.
	Version() uint64
	// VersionVector returns every shard's individual version.
	VersionVector() VersionVector
	// MinDuration reports the shortest price frontier across all shards —
	// the consistent "now" for ingestion-driven replay.
	MinDuration() float64
	// MinDurationFor reports the frontier across just the given shards
	// (nil means all), so consumers restricted to a candidate subset
	// advance with their own markets, not the globally slowest one.
	MinDurationFor(keys []MarketKey) float64
	// RetainedStartFor reports the absolute hour of the oldest sample
	// still retained across the given shards (nil means all) — the
	// earliest hour a read can reach without being clamped by
	// ring-buffer retention. Zero until retention compacts something.
	RetainedStartFor(keys []MarketKey) float64
	// Window returns an immutable view restricted to
	// [startHour, startHour+dur) in absolute market hours.
	Window(startHour, dur float64) MarketView
}

var (
	_ MarketView = (*Market)(nil)
	_ MarketView = (*MarketSnapshot)(nil)
)

// Market is the live sharded price store: one shard per (type, zone)
// pair, each with its own append log, version counter and bounded
// ring-buffer retention. It is the optimizer's entire view of the
// cloud's spot economy and the only mutable implementation of
// MarketView.
//
// Concurrency: Append locks only the target shard, so ingestion into
// different markets proceeds in parallel and readers of other shards are
// undisturbed. Traces are immutable — an append writes past the end of
// every capped view handed out and installs a new *trace.Trace — so any
// captured view stays internally consistent.
// Composite reads (Version, VersionVector, MinDuration, Capture) visit
// shards one read-lock at a time and are therefore weakly consistent
// under concurrent ingestion: each entry is exact, the cross-shard
// combination may interleave with in-flight appends. Lock ordering:
// shard locks are leaf locks — no shard lock is ever held while
// acquiring another shard's lock or any lock outside this package.
//
// The zero value is an empty market: version 0, no shards, MinDuration 0.
type Market struct {
	cat    Catalog
	zones  []string
	shards map[MarketKey]*shard
	keys   []MarketKey // sorted; immutable after construction

	// base is the construction version (1 for built markets, 0 for the
	// zero value); composite Version = base + ticks.
	base  uint64
	ticks atomic.Uint64

	// retainBits holds the per-shard retention bound in hours as
	// math.Float64bits (0 = unbounded), atomically so SetRetention is
	// safe against concurrent appends.
	retainBits atomic.Uint64

	// persistBatch, when set, is the durability hook: every append logs
	// its run of ticks through it in one call (group commit), under the
	// target shard's write lock, before the in-memory apply. An atomic
	// pointer so SetPersistBatch is safe against in-flight appends; nil
	// (the default) keeps the market pure in-memory.
	persistBatch atomic.Pointer[PersistBatchFunc]
}

// PersistBatchFunc is the durability hook invoked by AppendBatch (and so
// by Append, a one-tick batch) under the target shard's write lock,
// before any in-memory apply — WAL-first, so an unlogged tick is never
// applied — with the whole run of ticks and the shard version the first
// tick will produce (tick i lands at firstVersion+i). It returns how
// many leading ticks are durably in the log: on a clean write that is
// len(ticks); on a mid-batch write failure it is the index of the
// failed tick (nothing from that tick onward was logged); a post-write
// sync failure still returns len(ticks) — the frames are in the log and
// will replay, so the market must apply them all or replay would outrun
// the live state. AppendBatch applies exactly the returned prefix.
type PersistBatchFunc func(key MarketKey, ticks [][]float64, firstVersion uint64) (int, error)

// ShardState is one shard's full durable state as captured into (and
// restored from) a snapshot: the retained ring buffer, the absolute
// clock, and the counters. An exported Prices is the shard's own
// immutable view and is read-only; restoring copies it.
type ShardState struct {
	Type      string    `json:"type"`
	Zone      string    `json:"zone"`
	Step      float64   `json:"step"`
	Head      int       `json:"head"`
	Prices    []float64 `json:"prices"`
	Version   uint64    `json:"version"`
	Ticks     uint64    `json:"ticks"`
	Compacted uint64    `json:"compacted"`
}

// NewMarket assembles a market over the given traces at version 1. The
// catalog and zone set are fixed for the market's lifetime; so is the
// key set (one shard per traces entry).
func NewMarket(cat Catalog, zones []string, traces map[MarketKey]*trace.Trace) *Market {
	m := &Market{cat: cat, zones: zones, shards: make(map[MarketKey]*shard, len(traces)), base: 1}
	for k, tr := range traces {
		m.shards[k] = newShard(k, tr)
		m.keys = append(m.keys, k)
	}
	sortKeys(m.keys)
	return m
}

func sortKeys(keys []MarketKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Type != keys[j].Type {
			return keys[i].Type < keys[j].Type
		}
		return keys[i].Zone < keys[j].Zone
	})
}

// Catalog returns the instance types the market's keys refer to.
func (m *Market) Catalog() Catalog { return m.cat }

// Zones returns the availability zones the market spans.
func (m *Market) Zones() []string { return m.zones }

// Keys returns the market keys in deterministic (type, zone) order.
func (m *Market) Keys() []MarketKey {
	out := make([]MarketKey, len(m.keys))
	copy(out, m.keys)
	return out
}

// NumMarkets reports the number of (type, zone) shards.
func (m *Market) NumMarkets() int { return len(m.shards) }

// Version reports the composite mutation version: base construction
// version plus one per applied append across all shards.
func (m *Market) Version() uint64 { return m.base + m.ticks.Load() }

// VersionVector returns every shard's individual version. Entries are
// exact per shard; the combination is weakly consistent under
// concurrent ingestion.
func (m *Market) VersionVector() VersionVector {
	vv := make(VersionVector, len(m.shards))
	for k, s := range m.shards {
		_, v := s.capture()
		vv[k] = v
	}
	return vv
}

// SetRetention bounds every shard's retained history to at most hours of
// trailing samples (0 restores unbounded retention). Existing shards are
// compacted immediately; future appends enforce the bound as a ring
// buffer. Compaction drops only samples, never the absolute clock:
// Duration and MinDuration keep reporting the true frontier.
func (m *Market) SetRetention(hours float64) {
	if hours < 0 {
		hours = 0
	}
	m.retainBits.Store(math.Float64bits(hours))
	for _, s := range m.shards {
		s.compactTo(hours)
	}
}

// Retention reports the per-shard retention bound in hours (0 =
// unbounded).
func (m *Market) Retention() float64 {
	return math.Float64frombits(m.retainBits.Load())
}

// SetPersistBatch installs (or, with nil, removes) the durability hook.
// Safe to call concurrently with ingestion; appends in flight when the
// hook is installed may complete without it.
func (m *Market) SetPersistBatch(fn PersistBatchFunc) {
	if fn == nil {
		m.persistBatch.Store(nil)
		return
	}
	m.persistBatch.Store(&fn)
}

// ValidateTick checks an append's arguments without applying anything:
// the key must name an existing shard and every sample must be a price.
// It lets a streaming ingester reject bad input eagerly, before the
// tick is queued for a batched apply.
func (m *Market) ValidateTick(key MarketKey, samples []float64) error {
	if _, ok := m.shards[key]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownMarket, key)
	}
	for i, p := range samples {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("%w: sample %d for %v is not a price: %v", ErrBadSample, i, key, p)
		}
	}
	return nil
}

// Append extends one shard's price history with new samples (prices in
// $/instance-hour, one per trace step) and returns the market's new
// composite version. Only the target shard is locked: concurrent appends
// to other shards, and reads of them, proceed undisturbed. No view
// already handed out changes — the samples land past its end — so
// previously captured views remain consistent. Appending an empty
// sample set is a no-op that still bumps both the shard and composite
// versions (the ingestion heartbeat advanced, even if no price changed).
func (m *Market) Append(key MarketKey, samples []float64) (uint64, error) {
	_, version, err := m.AppendBatch(key, [][]float64{samples})
	return version, err
}

// AppendBatch extends one shard's price history with a run of ticks
// under a single shard write-lock acquisition — the batched analogue of
// calling Append len(ticks) times, with one durability call (group
// commit) when a batch persist hook is installed. All ticks are
// validated up front; a bad sample rejects the batch whole. A
// durability failure applies exactly the prefix the hook reports as
// logged and returns that count alongside the error, so the shard never
// runs ahead of (or behind) what WAL replay will reconstruct.
//
// Returns the number of ticks applied and the market's resulting
// composite version (each applied tick bumps it by 1, exactly as
// Append would).
func (m *Market) AppendBatch(key MarketKey, ticks [][]float64) (int, uint64, error) {
	s, ok := m.shards[key]
	if !ok {
		return 0, m.Version(), fmt.Errorf("%w: %v", ErrUnknownMarket, key)
	}
	var persist PersistBatchFunc
	if p := m.persistBatch.Load(); p != nil {
		persist = *p
	}
	applied, err := s.appendBatch(ticks, m.Retention(), persist)
	version := m.Version()
	if applied > 0 {
		version = m.base + m.ticks.Add(uint64(applied))
	}
	return applied, version, err
}

// Trace returns the price history for the given market. It panics if the
// market does not exist.
func (m *Market) Trace(typeName, zone string) *trace.Trace {
	tr, ok := m.TraceFor(MarketKey{typeName, zone})
	if !ok {
		panic(fmt.Sprintf("cloud: no market for %s/%s", typeName, zone))
	}
	return tr
}

// TraceFor returns the current price history for key, reporting whether
// the market exists.
func (m *Market) TraceFor(key MarketKey) (*trace.Trace, bool) {
	s, ok := m.shards[key]
	if !ok {
		return nil, false
	}
	return s.currentTrace(), true
}

// ShardVersion reports one shard's current version, and whether the
// market carries that key.
func (m *Market) ShardVersion(key MarketKey) (uint64, bool) {
	s, ok := m.shards[key]
	if !ok {
		return 0, false
	}
	_, v := s.capture()
	return v, true
}

// ExportShards captures every shard's full durable state in
// deterministic key order — the market half of a snapshot payload. Each
// shard is captured under its own read lock; combined with the
// WAL-first append ordering (the hook runs under the shard write lock)
// any tick logged before the snapshot's WAL boundary is visible here,
// and ticks logged after it re-apply idempotently on recovery.
func (m *Market) ExportShards() []ShardState {
	out := make([]ShardState, 0, len(m.keys))
	for _, k := range m.keys {
		out = append(out, m.shards[k].exportState())
	}
	return out
}

// RestoreShards overwrites shard state from a snapshot capture and
// recomputes the composite tick counter. Every state must target an
// existing shard: the key set is fixed at construction, and a snapshot
// from a differently configured market must not half-load. Intended for
// recovery, before the market serves traffic.
func (m *Market) RestoreShards(states []ShardState) error {
	for _, st := range states {
		key := MarketKey{st.Type, st.Zone}
		s, ok := m.shards[key]
		if !ok {
			return fmt.Errorf("%w: snapshot carries %v", ErrUnknownMarket, key)
		}
		if err := s.restoreState(st); err != nil {
			return err
		}
	}
	m.recomputeTicks()
	return nil
}

// MergeShards applies a snapshot capture forward-only: each shard's
// state is taken only when it advances that shard's version, so a
// shipped peer snapshot that lags records already applied locally never
// rewinds them. Unlike RestoreShards this is safe on a live market — it
// is the cluster replication path — because the composite tick counter
// is adjusted by per-shard deltas computed under each shard's write
// lock, never recomputed globally. Reports how many shards moved.
func (m *Market) MergeShards(states []ShardState) (int, error) {
	applied := 0
	for _, st := range states {
		key := MarketKey{st.Type, st.Zone}
		s, ok := m.shards[key]
		if !ok {
			return applied, fmt.Errorf("%w: snapshot carries %v", ErrUnknownMarket, key)
		}
		delta, err := s.mergeState(st)
		if err != nil {
			return applied, err
		}
		if delta > 0 {
			m.ticks.Add(delta)
			applied++
		}
	}
	return applied, nil
}

// ApplyTick applies one WAL tick record during recovery, idempotently
// by shard version: already-reached versions are skipped, version+1
// applies, a gap is an error. See shard.applyReplay.
func (m *Market) ApplyTick(key MarketKey, samples []float64, version uint64) error {
	s, ok := m.shards[key]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownMarket, key)
	}
	applied, err := s.applyReplay(samples, version, m.Retention())
	if err != nil {
		return err
	}
	if applied {
		m.ticks.Add(1)
	}
	return nil
}

// recomputeTicks rederives the composite tick counter from the shard
// versions (each shard starts at 1, so its append count is version-1).
func (m *Market) recomputeTicks() {
	total := uint64(0)
	for _, s := range m.shards {
		_, v := s.capture()
		total += v - 1
	}
	m.ticks.Store(total)
}

// ShardStats returns every shard's observable state in deterministic key
// order — the /healthz and /metrics payload for ingestion-skew
// monitoring.
func (m *Market) ShardStats() []ShardStat {
	out := make([]ShardStat, 0, len(m.keys))
	for _, k := range m.keys {
		out = append(out, m.shards[k].stat())
	}
	return out
}

// MinDuration reports the shortest price frontier across all shards.
func (m *Market) MinDuration() float64 { return m.MinDurationFor(nil) }

// MinDurationFor reports the frontier across the given shards (nil means
// all). Unknown keys are skipped.
func (m *Market) MinDurationFor(keys []MarketKey) float64 {
	if keys == nil {
		keys = m.keys
	}
	dur := math.Inf(1)
	for _, k := range keys {
		s, ok := m.shards[k]
		if !ok {
			continue
		}
		if d := s.currentTrace().Duration(); d < dur {
			dur = d
		}
	}
	if math.IsInf(dur, 1) {
		return 0
	}
	return dur
}

// RetainedStartFor reports the absolute hour of the oldest sample still
// retained across the given shards (nil means all): the latest
// compaction head, i.e. the earliest hour a read over those shards can
// reach without being clamped to the retained range. Zero until
// retention compacts something.
func (m *Market) RetainedStartFor(keys []MarketKey) float64 {
	if keys == nil {
		keys = m.keys
	}
	start := 0.0
	for _, k := range keys {
		s, ok := m.shards[k]
		if !ok {
			continue
		}
		if h := s.currentTrace().StartHour(); h > start {
			start = h
		}
	}
	return start
}

// Window returns an immutable view restricted to [startHour,
// startHour+dur) in absolute market hours. The adaptive optimizer trains
// on the previous optimization window only. The view keeps the parent's
// versions: it is a projection of the same market state, not a new one.
func (m *Market) Window(startHour, dur float64) MarketView {
	return m.Capture().Window(startHour, dur)
}

// WindowBounds reports the absolute [start, start+dur) window this view
// is restricted to, and whether those bounds are exactly known. A live
// market is the full history: bounds (0, +Inf) and exact. Together with
// a shard's version, exact bounds fully determine that shard's visible
// trace content — which is what lets the optimizer's delta-reuse cache
// (opt.ReuseCache) key prepared per-group state on (version, window)
// and skip re-deriving failure distributions, bid grids and ranking
// costs for shards that did not change. Views whose bounds cannot be
// stated exactly (e.g. a window of a window, whose clamps compose
// through sample rounding) report exact=false and are simply not
// reused.
func (m *Market) WindowBounds() (start, dur float64, exact bool) {
	return 0, math.Inf(1), true
}

// Capture returns an immutable capture of the market at its current
// versions. Traces are shared, not copied — they are immutable, so the
// snapshot is a consistent view that later Appends on the parent cannot
// disturb. The planner service hands snapshots to long-running work
// (optimization, Monte Carlo replays) so ingestion never races a
// replay's market reads.
func (m *Market) Capture() *MarketSnapshot {
	snap := &MarketSnapshot{
		cat:      m.cat,
		zones:    m.zones,
		keys:     m.keys,
		traces:   make(map[MarketKey]*trace.Trace, len(m.shards)),
		vv:       make(VersionVector, len(m.shards)),
		winDur:   math.Inf(1),
		winExact: true,
	}
	// The composite version is derived from the captured vector — base
	// plus one tick per append each shard had seen (shards start at
	// version 1) — so the snapshot's version and vector always agree,
	// even when concurrent ingestion advances m.ticks between the
	// per-shard captures.
	ticks := uint64(0)
	for _, k := range m.keys {
		tr, v := m.shards[k].capture()
		snap.traces[k] = tr
		snap.vv[k] = v
		ticks += v - 1
	}
	snap.version = m.base + ticks
	return snap
}

// MarketSnapshot is an immutable MarketView: the traces, version vector
// and composite version of a Market at capture time. All reads are
// lock-free.
type MarketSnapshot struct {
	cat     Catalog
	zones   []string
	keys    []MarketKey
	traces  map[MarketKey]*trace.Trace
	vv      VersionVector
	version uint64
	// winStart/winDur record the absolute window this snapshot is
	// restricted to; winExact is false for views whose bounds are not
	// exactly known (a window of a window — the clamps compose through
	// per-sample rounding, so the effective bounds cannot be restated).
	winStart, winDur float64
	winExact         bool
}

// Catalog returns the instance types the snapshot's keys refer to.
func (s *MarketSnapshot) Catalog() Catalog { return s.cat }

// Zones returns the availability zones the snapshot spans.
func (s *MarketSnapshot) Zones() []string { return s.zones }

// Keys returns the market keys in deterministic (type, zone) order.
func (s *MarketSnapshot) Keys() []MarketKey {
	out := make([]MarketKey, len(s.keys))
	copy(out, s.keys)
	return out
}

// NumMarkets reports the number of (type, zone) markets captured.
func (s *MarketSnapshot) NumMarkets() int { return len(s.traces) }

// Version reports the composite version at capture time.
func (s *MarketSnapshot) Version() uint64 { return s.version }

// VersionVector returns the per-shard versions at capture time.
func (s *MarketSnapshot) VersionVector() VersionVector { return s.vv }

// Trace returns the captured price history for the given market,
// panicking if it does not exist.
func (s *MarketSnapshot) Trace(typeName, zone string) *trace.Trace {
	tr, ok := s.traces[MarketKey{typeName, zone}]
	if !ok {
		panic(fmt.Sprintf("cloud: no market for %s/%s", typeName, zone))
	}
	return tr
}

// TraceFor returns the captured price history for key, reporting whether
// the market exists.
func (s *MarketSnapshot) TraceFor(key MarketKey) (*trace.Trace, bool) {
	tr, ok := s.traces[key]
	return tr, ok
}

// MinDuration reports the shortest price frontier across the capture.
func (s *MarketSnapshot) MinDuration() float64 { return s.MinDurationFor(nil) }

// MinDurationFor reports the frontier across the given markets (nil
// means all). Unknown keys are skipped.
func (s *MarketSnapshot) MinDurationFor(keys []MarketKey) float64 {
	if keys == nil {
		keys = s.keys
	}
	dur := math.Inf(1)
	for _, k := range keys {
		tr, ok := s.traces[k]
		if !ok {
			continue
		}
		if d := tr.Duration(); d < dur {
			dur = d
		}
	}
	if math.IsInf(dur, 1) {
		return 0
	}
	return dur
}

// RetainedStartFor reports the retention head across the given markets
// (nil means all) at capture time. Unknown keys are skipped.
func (s *MarketSnapshot) RetainedStartFor(keys []MarketKey) float64 {
	if keys == nil {
		keys = s.keys
	}
	start := 0.0
	for _, k := range keys {
		tr, ok := s.traces[k]
		if !ok {
			continue
		}
		if h := tr.StartHour(); h > start {
			start = h
		}
	}
	return start
}

// Window returns a snapshot restricted to [startHour, startHour+dur) in
// absolute market hours, keeping the parent's versions.
func (s *MarketSnapshot) Window(startHour, dur float64) MarketView {
	out := &MarketSnapshot{
		cat:     s.cat,
		zones:   s.zones,
		keys:    s.keys,
		traces:  make(map[MarketKey]*trace.Trace, len(s.traces)),
		vv:      s.vv,
		version: s.version,
		// A window of the full capture has exactly the requested bounds;
		// a window of a window does not (trace.Window detaches the head,
		// so the inner clamp composes with the outer one in sample space
		// and the effective absolute bounds are no longer [start, dur)).
		winStart: startHour,
		winDur:   dur,
		winExact: s.winExact && s.winStart == 0 && math.IsInf(s.winDur, 1),
	}
	for k, tr := range s.traces {
		out.traces[k] = tr.Window(startHour, dur)
	}
	return out
}

// WindowBounds reports the absolute window this snapshot is restricted
// to and whether the bounds are exactly known. See (*Market).WindowBounds.
func (s *MarketSnapshot) WindowBounds() (start, dur float64, exact bool) {
	return s.winStart, s.winDur, s.winExact
}

// zoneProfile captures how turbulent a zone's markets are. The paper's
// Figure 1 shows us-east-1a markets spiking past 10x on-demand while
// us-east-1b stays flat; us-east-1c sits in between.
type zoneProfile struct {
	volatileRate      float64 // episodes per hour
	volatileMeanHours float64
	spikeMu           float64
	spikeSigma        float64
	jitter            float64
}

// No zone is risk-free: even the calm us-east-1b suffers occasional
// episodes (otherwise a single un-checkpointed group there would dominate
// every plan and neither replication nor checkpointing would ever pay,
// contradicting the market reality the paper measures). Episode frequency
// and spike magnitude are set so that bidding the historical maximum
// buys availability at a real premium — the expected paid price at an
// unbeatable bid is several times the calm price — which is the market
// feature that makes low bids + fault tolerance the economical choice.
// Spikes are near-bimodal: calm prices cluster near Base while volatile
// repricings land an order of magnitude higher (Figure 1's $0.1 → $10
// jumps). Bids between the two clusters fail on every episode without
// paying more while running, and bids above the spike cluster buy
// availability at close to (or beyond) the on-demand price — which is why
// the optimum is a low bid plus fault tolerance rather than Spot-Inf.
// Episodes are frequent and short rather than rare and long: several per
// day in the turbulent zones. That keeps each day's first-passage
// statistics close to the next day's — the Figure 2 "stable short-term
// distribution" property the failure-rate estimator relies on — while
// still making out-of-bid events a routine hazard for multi-hour runs.
var zoneProfiles = map[string]zoneProfile{
	ZoneA: {volatileRate: 1.0 / 7, volatileMeanHours: 1.2, spikeMu: 2.4, spikeSigma: 0.7, jitter: 0.06},
	ZoneB: {volatileRate: 1.0 / 15, volatileMeanHours: 1.0, spikeMu: 2.2, spikeSigma: 0.6, jitter: 0.02},
	ZoneC: {volatileRate: 1.0 / 10, volatileMeanHours: 1.1, spikeMu: 2.3, spikeSigma: 0.65, jitter: 0.04},
}

// typeTurbulence scales how often a type's markets misbehave. The paper
// observes that small general-purpose types (heavily bid on in 2014) spike
// more than large cluster-compute types.
var typeTurbulence = map[string]float64{
	M1Small.Name:    1.1,
	M1Medium.Name:   1.3,
	M1Large.Name:    1.0,
	C3XLarge.Name:   1.0,
	CC28XLarge.Name: 0.9,
}

// ModelFor builds the synthetic generator parameters for one market.
// The calm price sits at roughly a third of on-demand (the paper's
// observation (a): spot is usually much cheaper) and spikes are capped at
// 12x on-demand, mirroring the >$10 spikes Figure 1 shows for the ~$0.87
// on-demand m1.medium.
func ModelFor(it InstanceType, zone string) trace.Model {
	zp, ok := zoneProfiles[zone]
	if !ok {
		zp = zoneProfiles[ZoneC]
	}
	turb := typeTurbulence[it.Name]
	if turb == 0 {
		turb = 1
	}
	return trace.Model{
		Name:              it.Name + "/" + zone,
		Base:              it.OnDemand * 0.32,
		Jitter:            zp.jitter,
		CalmHoldHours:     5,
		VolatileRate:      zp.volatileRate * turb,
		VolatileMeanHours: zp.volatileMeanHours,
		SpikeMu:           zp.spikeMu,
		SpikeSigma:        zp.spikeSigma,
		SpikeCap:          it.OnDemand * 6,
		Floor:             it.OnDemand * 0.05,
	}
}

// GenerateMarket synthesizes hours of price history for every (type, zone)
// pair, deterministically from seed. Each market gets an independent
// generator stream, matching the paper's assumption that spot prices in
// different markets are independent.
func GenerateMarket(cat Catalog, zones []string, hours float64, seed uint64) *Market {
	root := stats.NewRNG(seed)
	traces := make(map[MarketKey]*trace.Trace)
	// Iterate in deterministic order so the seed fully determines output.
	for _, it := range cat {
		for _, z := range zones {
			traces[MarketKey{it.Name, z}] = ModelFor(it, z).Generate(root.Split(), hours)
		}
	}
	return NewMarket(cat, zones, traces)
}

// LoadMarket builds a version-1 market from a directory of per-market CSV
// files as written by cmd/tracegen: one "<type>_<zone>.csv" file (slashes
// in the type name also flattened to underscores) per (type, zone) pair,
// each in the two-column hour,price shape trace.ReadCSV accepts. Every
// (catalog × zones) pair must be present — a market with holes would make
// candidate enumeration silently lossy.
func LoadMarket(dir string, cat Catalog, zones []string) (*Market, error) {
	traces := make(map[MarketKey]*trace.Trace)
	for _, it := range cat {
		for _, z := range zones {
			key := MarketKey{it.Name, z}
			name := strings.ReplaceAll(key.String(), "/", "_") + ".csv"
			f, err := os.Open(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("cloud: loading market %v: %w", key, err)
			}
			tr, err := trace.ReadCSV(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("cloud: loading market %v: %w", key, err)
			}
			traces[key] = tr
		}
	}
	return NewMarket(cat, zones, traces), nil
}
