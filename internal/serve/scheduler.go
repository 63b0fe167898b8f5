package serve

import (
	"container/heap"
	"sync"
	"time"

	"sompi/internal/cloud"
)

// This file is the central re-optimization scheduler: the replacement
// for the per-tick full registry scan. Every live session sits in
// exactly one min-heap, keyed by the shard that currently gates its
// next T_m boundary (the argmin-frontier shard of its candidate set),
// ordered by boundary hour. A feed that advances a shard pops only the
// sessions whose boundary that shard's new frontier actually released —
// O(log n) per released session, zero work for the rest — and hands
// them to a fixed worker pool that replays and re-optimizes off the
// request path, under the server-lifecycle context.
//
// The ingest path never does the heap work itself: shardAdvanced only
// marks the shard dirty under noteMu (O(1), so a boundary releasing ten
// thousand sessions costs the tick that crossed it nothing) and a
// dispatcher goroutine drains dirty shards' heaps into the pending
// queue behind it.
//
// Lock ordering: sched.mu is taken after s.mu (registration) and never
// together with a session's t.mu — workers re-enqueue a session only
// after advanceSession released it. Eligibility checks read shard
// frontiers, so sched.mu may be held while taking shard read locks
// (shard locks are leaves); the market never calls back into the
// scheduler. noteMu is independent: it is never held together with
// sched.mu or any other lock.

// boundaryItem is one scheduled session: the boundary is pinned at
// insert time, which is sound because t.boundary only mutates while a
// worker owns the session — and an owned session is never in a heap.
type boundaryItem struct {
	t        *trackedSession
	boundary float64
}

// boundaryHeap is a min-heap of sessions by next boundary hour.
type boundaryHeap []*boundaryItem

func (h boundaryHeap) Len() int           { return len(h) }
func (h boundaryHeap) Less(i, j int) bool { return h[i].boundary < h[j].boundary }
func (h boundaryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boundaryHeap) Push(x any)        { *h = append(*h, x.(*boundaryItem)) }
func (h *boundaryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// pendingItem is a session whose boundary the frontier has crossed,
// waiting for a worker. eligibleAt feeds the scheduler-lag histogram.
type pendingItem struct {
	t          *trackedSession
	eligibleAt time.Time
}

// reoptScheduler indexes sessions by the shards their plans read and
// drives their window boundaries through a worker pool.
type reoptScheduler struct {
	s *Server
	// keys is the market's fixed shard set: the candidate universe of a
	// session registered without a restriction (t.keys == nil).
	keys []cloud.MarketKey

	mu       sync.Mutex
	heaps    map[cloud.MarketKey]*boundaryHeap
	pending  []pendingItem
	running  int
	closed   bool
	workCond *sync.Cond
	idleCond *sync.Cond
	wg       sync.WaitGroup

	// The ingest-side notification state. A feed that advances a shard
	// only ever touches this half, so a dispatcher mid-drain (holding mu
	// for a large heap pop) never stalls a tick batch.
	noteMu     sync.Mutex
	dirty      map[cloud.MarketKey]time.Time // shard -> earliest un-dispatched advance
	inflight   bool                          // a dispatch is between pick-up and completion
	noteClosed bool
	noteCond   *sync.Cond // dispatcher wake: dirty non-empty or closing
	noteIdle   *sync.Cond // drain wake: dirty empty and no dispatch in flight
}

// newReoptScheduler builds the per-shard heaps and starts the worker
// pool. workers <= 0 starts none — the test hook for exercising the
// "boundaries persist but never run" recovery path.
func newReoptScheduler(s *Server, workers int) *reoptScheduler {
	sc := &reoptScheduler{
		s:     s,
		keys:  s.market.Keys(),
		heaps: make(map[cloud.MarketKey]*boundaryHeap),
		dirty: make(map[cloud.MarketKey]time.Time),
	}
	sc.workCond = sync.NewCond(&sc.mu)
	sc.idleCond = sync.NewCond(&sc.mu)
	sc.noteCond = sync.NewCond(&sc.noteMu)
	sc.noteIdle = sync.NewCond(&sc.noteMu)
	for _, k := range sc.keys {
		h := make(boundaryHeap, 0)
		sc.heaps[k] = &h
	}
	sc.wg.Add(1)
	go sc.dispatcher()
	for w := 0; w < workers; w++ {
		sc.wg.Add(1)
		go sc.worker()
	}
	return sc
}

// gate reports the shard gating a session's next boundary — the one of
// its candidate set whose frontier is furthest behind, since no
// boundary can be crossed until it advances — and that frontier, which
// is MinDurationFor over the set. Each shard's frontier is read exactly
// once, so the shard and the value always agree: with eligibility
// decided from one reading and the heap chosen from a second, a shard
// crossing in between parks the session behind a shard already past
// its boundary (B9).
func (sc *reoptScheduler) gate(t *trackedSession) (cloud.MarketKey, float64) {
	keys := t.keys
	if keys == nil {
		keys = sc.keys
	}
	best, frontier := keys[0], sc.s.market.MinDurationFor(keys[:1])
	for i := 1; i < len(keys); i++ {
		if d := sc.s.market.MinDurationFor(keys[i : i+1]); d < frontier {
			best, frontier = keys[i], d
		}
	}
	return best, frontier
}

// placeLocked puts a session where its boundary says it belongs: on the
// pending queue for a worker when the frontier already crossed it
// (eligibleAt is when it became crossable — the scheduler-lag histogram
// measures from there), otherwise into the gating shard's heap. The
// heap case cannot strand the session: the gating shard was read below
// the boundary while sc.mu is held, so the tick that carries it across,
// that tick's shardAdvanced and the dispatcher drain it triggers — which
// needs sc.mu — all come after this push. Caller holds sc.mu.
func (sc *reoptScheduler) placeLocked(it *boundaryItem, eligibleAt time.Time) {
	key, frontier := sc.gate(it.t)
	if it.boundary <= frontier+1e-9 {
		sc.pending = append(sc.pending, pendingItem{t: it.t, eligibleAt: eligibleAt})
		sc.workCond.Signal()
		return
	}
	heap.Push(sc.heaps[key], it)
}

// add schedules a session for its next boundary; a boundary the
// frontier already crossed goes straight to the pending queue (the
// recovery path re-arms pre-crash boundaries this way). The caller must
// own the session exclusively or hold its t.mu — add reads t.boundary
// and t.done.
func (sc *reoptScheduler) add(t *trackedSession) {
	if t.done {
		return
	}
	it := &boundaryItem{t: t, boundary: t.boundary}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.closed {
		sc.placeLocked(it, time.Now())
	}
}

// shardAdvanced is the ingest wake: the named shard's frontier moved.
// It only marks the shard dirty — O(1), no heap access, no sched.mu —
// so the tick batch that crossed a boundary never pays for the sessions
// the crossing released; the dispatcher drains the heap behind it.
func (sc *reoptScheduler) shardAdvanced(key cloud.MarketKey) {
	sc.noteMu.Lock()
	if !sc.noteClosed {
		if _, ok := sc.dirty[key]; !ok {
			sc.dirty[key] = time.Now()
		}
		sc.noteCond.Signal()
	}
	sc.noteMu.Unlock()
}

// dispatcher turns dirty-shard notifications into pending work. It
// takes noteMu only to pick up a shard and sc.mu only to drain it, so
// neither feeds (noteMu) nor workers (sc.mu) wait on the other's long
// holds. inflight stays true from pick-up until the drained
// sessions are visibly pending, which is what lets drain() conclude
// "note side idle implies my sessions reached the pending queue".
func (sc *reoptScheduler) dispatcher() {
	defer sc.wg.Done()
	for {
		sc.noteMu.Lock()
		for !sc.noteClosed && len(sc.dirty) == 0 {
			sc.noteCond.Wait()
		}
		if sc.noteClosed {
			sc.noteMu.Unlock()
			return
		}
		var key cloud.MarketKey
		var at time.Time
		for k, t := range sc.dirty {
			key, at = k, t
			break
		}
		delete(sc.dirty, key)
		sc.inflight = true
		sc.noteMu.Unlock()

		sc.mu.Lock()
		if !sc.closed {
			sc.drainShardLocked(key, at)
		}
		sc.mu.Unlock()

		sc.noteMu.Lock()
		sc.inflight = false
		if len(sc.dirty) == 0 {
			sc.noteIdle.Broadcast()
		}
		sc.noteMu.Unlock()
	}
}

// drainShardLocked pops every session in the named shard's heap whose
// pinned boundary the shard's frontier now reaches. A popped session
// whose full candidate frontier still lags (another of its shards is
// behind) is not eligible — placeLocked re-binds it to that lagging
// shard's heap instead, which cannot be this shard again (frontiers
// only grow, so this one still reads at or past the boundary and a
// session it gated would be pending), so the loop terminates. Caller
// holds sc.mu.
func (sc *reoptScheduler) drainShardLocked(key cloud.MarketKey, advancedAt time.Time) {
	h, ok := sc.heaps[key]
	if !ok || h.Len() == 0 {
		return
	}
	keyDur := sc.s.market.MinDurationFor([]cloud.MarketKey{key})
	for h.Len() > 0 && (*h)[0].boundary <= keyDur+1e-9 {
		sc.placeLocked(heap.Pop(h).(*boundaryItem), advancedAt)
	}
}

// worker pulls eligible sessions and drives their windows. The session
// is owned exclusively between the pending pop and the re-add, so its
// boundary and done flag are stable for scheduling reads.
func (sc *reoptScheduler) worker() {
	defer sc.wg.Done()
	sc.mu.Lock()
	for {
		for !sc.closed && len(sc.pending) == 0 {
			sc.workCond.Wait()
		}
		if sc.closed {
			sc.mu.Unlock()
			return
		}
		it := sc.pending[0]
		sc.pending = sc.pending[1:]
		sc.running++
		sc.mu.Unlock()

		sc.s.advanceSession(sc.s.runCtx, it.t)
		sc.s.met.schedulerLag.Observe(time.Since(it.eligibleAt).Seconds())
		sc.s.maybeSnapshot()

		sc.mu.Lock()
		// During shutdown (runCtx cancelled, stop not yet observed) the
		// advance aborts without moving the boundary; re-queueing would
		// spin — the WAL already holds the boundary for recovery.
		if sc.s.runCtx.Err() == nil {
			sc.readdLocked(it.t)
		}
		sc.running--
		if len(sc.pending) == 0 && sc.running == 0 {
			sc.idleCond.Broadcast()
		}
	}
}

// readdLocked re-schedules a session after a worker drove it: still
// eligible (the frontier crossed the next boundary while it ran) goes
// back to pending, otherwise into its gating shard's heap. Caller
// holds sc.mu and owns the session.
func (sc *reoptScheduler) readdLocked(t *trackedSession) {
	if t.done || sc.closed {
		return
	}
	sc.placeLocked(&boundaryItem{t: t, boundary: t.boundary}, time.Now())
}

// drain blocks until the caller's prior shardAdvanced notifications
// have been dispatched and no session is pending or running — the
// ?sync=1 barrier. Two stages: first the note side goes idle (dirty
// empty, no dispatch in flight), which guarantees the caller's released
// sessions reached the pending queue (the dispatcher clears inflight
// only after its heap drain committed under sc.mu); then the worker
// side goes idle. Concurrent ingest can extend the wait, never shorten
// it. Returns immediately on a stopped scheduler.
func (sc *reoptScheduler) drain() {
	sc.noteMu.Lock()
	for !sc.noteClosed && (len(sc.dirty) > 0 || sc.inflight) {
		sc.noteIdle.Wait()
	}
	sc.noteMu.Unlock()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for !sc.closed && (len(sc.pending) > 0 || sc.running > 0) {
		sc.idleCond.Wait()
	}
}

// stop shuts the pool down. Workers abandon pending sessions — their
// boundaries are already durable in the WAL, so a restart reschedules
// them through recovery. Idempotent.
func (sc *reoptScheduler) stop() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	sc.workCond.Broadcast()
	sc.idleCond.Broadcast()
	sc.mu.Unlock()
	sc.noteMu.Lock()
	sc.noteClosed = true
	sc.noteCond.Broadcast()
	sc.noteIdle.Broadcast()
	sc.noteMu.Unlock()
	sc.wg.Wait()
}
