package serve

import (
	"container/list"
	"context"
	"sync"
)

// lru is the one cache under the serving layer: a fixed-capacity LRU
// keyed by strings that embed the market version vector of the shards
// the value depends on — so ingestion invalidates every stale entry
// without scanning, by making its key unreachable. The server holds two:
//
//   - Server.cache, lru[[]byte], maps a plan-request key to the exact
//     response bytes served (get/put). Storing bytes rather than structs
//     is what makes a hit byte-identical to the miss that populated it.
//   - Server.reopts, lru[opt.Result], coalesces identical optimizer runs
//     (do): when k sessions share a workload profile, deadline leftover,
//     training window and strategy knobs at the same T_m boundary, the
//     first to arrive runs the optimizer and the other k-1 adopt its
//     result — the plan dedup leg of the million-session path. Results
//     are shareable because nothing downstream mutates an opt.Result:
//     replay advances only Session state and model.Group's internal
//     caches are synchronized.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

// lruEntry is one completed or in-flight value. done closes when
// val/err are final; both are written before the close, so a reader
// that saw done closed reads them race-free.
type lruEntry[V any] struct {
	key  string
	done chan struct{}
	val  V
	err  error
}

// closed is the done channel of every entry that was put, not computed.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

// insertLocked adds e as the most recently used entry, evicting the
// least recently used ones when over capacity.
func (c *lru[V]) insertLocked(e *lruEntry[V]) *list.Element {
	el := c.ll.PushFront(e)
	c.items[e.key] = el
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
	return el
}

// get returns the completed value under key and marks the entry most
// recently used. An in-flight entry is a miss.
func (c *lru[V]) get(key string) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if !found {
		return val, false
	}
	e := el.Value.(*lruEntry[V])
	select {
	case <-e.done:
		c.ll.MoveToFront(el)
		return e.val, true
	default:
		return val, false
	}
}

// put inserts (or replaces) a completed value.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
	}
	c.insertLocked(&lruEntry[V]{key: key, done: closed, val: val})
}

// do returns the value for key, running fn at most once per key across
// concurrent callers (single-flight). shared reports whether the value
// came from another caller's run. A follower whose ctx dies while
// waiting returns ctx's error; the leader's run is governed by the
// leader's own context inside fn.
//
// Errors are never cached: a failed leader removes its entry, waiting
// followers observe the failure and retry as leader, so a transient
// cancellation cannot poison a key.
func (c *lru[V]) do(ctx context.Context, key string, fn func() (V, error)) (val V, shared bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			e := el.Value.(*lruEntry[V])
			select {
			case <-e.done:
				// Completed successfully (failures remove their entry).
				c.ll.MoveToFront(el)
				c.mu.Unlock()
				return e.val, true, nil
			default:
			}
			c.mu.Unlock()
			select {
			case <-e.done:
				if e.err == nil {
					return e.val, true, nil
				}
				// Leader failed; its entry is gone. Retry as leader.
				continue
			case <-ctx.Done():
				return val, false, ctx.Err()
			}
		}
		e := &lruEntry[V]{key: key, done: make(chan struct{})}
		el := c.insertLocked(e)
		c.mu.Unlock()

		val, err = fn()
		c.mu.Lock()
		e.val, e.err = val, err
		if err != nil {
			// Only remove our own entry — eviction may have already
			// replaced it with a fresh leader under the same key.
			if cur, ok := c.items[key]; ok && cur == el {
				c.ll.Remove(el)
				delete(c.items, key)
			}
		}
		close(e.done)
		c.mu.Unlock()
		return val, false, err
	}
}

// len reports the number of resident entries (including in-flight).
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
