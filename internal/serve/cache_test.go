package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// get/put and do share one recency list and one capacity: the least
// recently used entry goes first whichever verb inserted it.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	if _, shared, err := c.do(context.Background(), "b", func() (int, error) { return 2, nil }); shared || err != nil {
		t.Fatalf("leader run: shared=%v err=%v", shared, err)
	}
	if v, ok := c.get("a"); !ok || v != 1 { // touch a: b is now oldest
		t.Fatalf("get a = %d, %v", v, ok)
	}
	c.put("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction though it was least recently used")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("a evicted out of order: %d, %v", v, ok)
	}
	c.put("a", 10)
	if v, _ := c.get("a"); v != 10 || c.len() != 2 {
		t.Fatalf("put did not replace in place: a=%d len=%d", v, c.len())
	}
}

// An in-flight run is a miss for get, followers of do share the
// leader's value, and a failed leader leaves nothing behind.
func TestLRUSingleFlight(t *testing.T) {
	c := newLRU[int](4)
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	if _, ok := c.get("k"); ok {
		t.Fatal("get returned an in-flight entry")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower with a dead context: %v", err)
	}
	close(release)
	wg.Wait()
	if v, shared, err := c.do(context.Background(), "k", nil); v != 7 || !shared || err != nil {
		t.Fatalf("follower after completion: %d shared=%v err=%v", v, shared, err)
	}

	boom := errors.New("boom")
	if _, _, err := c.do(context.Background(), "bad", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("leader error: %v", err)
	}
	if _, ok := c.get("bad"); ok || c.len() != 1 {
		t.Fatalf("a failed run was cached (len %d)", c.len())
	}
}
