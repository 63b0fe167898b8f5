package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"sompi/internal/cloud"
	"sompi/internal/obs"
)

// This file is the ingest apply path: handlePrices stages a tick stream
// per (type, AZ) shard and applies each shard's run itself, on the
// request goroutine, through ingester.apply. A batch is one request's
// staged ticks for one shard — nothing coalesces across requests — and
// it lands under one shard write-lock acquisition (and one WAL group
// commit) via cloud.Market.AppendBatch, after which the re-optimization
// scheduler is woken for that shard. The request path never runs an
// optimizer, so ingest latency does not depend on how many sessions a
// tick invalidates; feeds for one shard serialize on its write lock
// (shard versions stay sequential) while different shards never contend.

// errIngestBacklog reports a shard whose admission slots stayed taken
// past the grace period: the client should back off (429 + Retry-After).
var errIngestBacklog = errors.New("serve: ingest queue full")

// errIngestClosed reports an apply against a stopped ingester (the
// server is shutting down).
var errIngestClosed = errors.New("serve: ingest stopped")

// ingestEnqueueWait is how long a batch waits for an admission slot on
// a full shard before surfacing backpressure to the client.
const ingestEnqueueWait = 50 * time.Millisecond

// maxBatchTicks is how many ticks handlePrices stages for one shard
// before applying them: it bounds request memory for an arbitrarily
// long one-shard feed.
const maxBatchTicks = 256

// ingester is admission control for the apply path. Each shard has a
// counting semaphore of queueCap+1 slots — the batch applying plus
// queueCap waiting behind it for the shard write lock — which is the
// whole of the backpressure contract: the shard lock already orders the
// applies, the slots only bound how many requests may pile up on it.
// The mutex fences applies against stop: every apply read-holds it from
// admission to completion, so stop's write lock waits them out.
type ingester struct {
	s *Server
	// slots is fixed at construction; a send takes a slot, a receive
	// returns it.
	slots map[cloud.MarketKey]chan struct{}

	mu     sync.RWMutex
	closed bool
}

// newIngester builds one admission semaphore per market shard.
func newIngester(s *Server, queueCap int) *ingester {
	i := &ingester{s: s, slots: make(map[cloud.MarketKey]chan struct{})}
	for _, k := range s.market.Keys() {
		i.slots[k] = make(chan struct{}, queueCap+1)
	}
	return i
}

// apply lands one shard's staged run: admission, the shard append
// (WAL-first, one lock hold), the ingest counters, the scheduler wake
// for sessions watching this shard, and the snapshot check — all before
// it returns, so the caller answers over a market and scheduler that
// already know about its ticks. It reports how many leading ticks
// landed, the market's composite version after them, and the durability
// error on a partial apply. key was validated before staging, so it
// names one of the market's shards. The append is a market.append_batch
// span under the request's span in ctx.
//
// A full shard gets a short grace period (the batches ahead may be
// about to finish), then the typed backlog error — the client's signal
// to slow down. A slot waiter holds the read lock for at most that
// grace, so stop never waits long on a batch that will not apply.
func (i *ingester) apply(ctx context.Context, key cloud.MarketKey, ticks [][]float64) (int, uint64, error) {
	start := time.Now()
	i.mu.RLock()
	defer i.mu.RUnlock()
	if i.closed {
		return 0, 0, errIngestClosed
	}
	slot := i.slots[key]
	select {
	case slot <- struct{}{}:
	default:
		t := time.NewTimer(ingestEnqueueWait)
		defer t.Stop()
		select {
		case slot <- struct{}{}:
		case <-t.C:
			return 0, 0, errIngestBacklog
		}
	}
	defer func() { <-slot }()

	s := i.s
	// Everything else holding a slot is ahead of this batch: one of them
	// applying, the rest waiting for the shard lock.
	s.met.noteQueueDepth(int64(len(slot) - 1))
	_, sp := obs.StartSpan(ctx, "market.append_batch")
	applied, version, err := s.market.AppendBatch(key, ticks)
	sp.AttrStr("market", key.String())
	sp.AttrInt("ticks", int64(applied))
	sp.AttrInt("market_version", int64(version))
	sp.Fail(err)
	sp.End()
	if applied > 0 {
		s.met.ingestTicks.Add(int64(applied))
		samples := 0
		for _, t := range ticks[:applied] {
			samples += len(t)
		}
		s.met.ingestSamples.Add(int64(samples))
		s.sched.shardAdvanced(key)
	}
	s.met.batchSize.Observe(float64(len(ticks)))
	s.met.observeIngest(key.String(), time.Since(start).Seconds())
	s.maybeSnapshot()
	return applied, version, err
}

// depths samples, per shard, how many batches are waiting for the shard
// lock behind the one applying, for /metrics.
func (i *ingester) depths() map[string]int {
	out := make(map[string]int, len(i.slots))
	for k, slot := range i.slots {
		out[k.String()] = max(len(slot)-1, 0)
	}
	return out
}

// stop closes the fence: the write lock waits out every apply in flight
// (a batch still waiting for a slot gives up within its grace period),
// and every later apply fails with the typed closed error. Idempotent.
func (i *ingester) stop() {
	i.mu.Lock()
	i.closed = true
	i.mu.Unlock()
}
