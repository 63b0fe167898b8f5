package main

import (
	"bytes"
	"strings"
	"testing"

	"sompi/internal/harness"
)

func TestCapturesAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := capture(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := capture(name, 7, 2)
		c, _ := capture(name, 8, 2)
		if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: %d, %d, %d captures", name, len(a), len(b), len(c))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s capture %d: equal seeds gave different bytes", name, i)
			}
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s capture %d: different seeds gave identical bytes", name, i)
			}
		}
		// Every line is a record sompi-replay's loader accepts, in order.
		for n, line := range strings.Split(strings.TrimSpace(string(a[0])), "\n") {
			r, err := harness.DecodeCaptureRecord([]byte(line))
			if err != nil {
				t.Fatalf("%s line %d: %v", name, n+1, err)
			}
			if r.Seq != n {
				t.Fatalf("%s line %d has seq %d", name, n+1, r.Seq)
			}
		}
	}
	if _, err := capture("no-such-workload", 1, 1); err == nil {
		t.Error("capture accepted an unknown workload")
	}
}

func TestMixedCaptureKeepsItsShape(t *testing.T) {
	g := newGenerator(wlMixed, 3)
	g.warmup()
	recs := g.schedule(8)
	if len(recs) != 8*mixedRate {
		t.Fatalf("%d records for 8 s, want %d", len(recs), 8*mixedRate)
	}
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Endpoint]++
		// A connection's ticks touch only its own shards.
		for _, shard := range r.ticks {
			for k, owner := range g.ownerOf {
				if k.String() == shard && owner != r.conn {
					t.Fatalf("tick for %s sent on connection %d, owned by %d", shard, r.conn, owner)
				}
			}
		}
		if r.plan != nil && (len(r.plan.Types) != 1 || len(r.plan.Zones) != 1) {
			t.Fatalf("digest-checked plan %s is not restricted to one shard", r.Body)
		}
	}
	// Exact per block of one hundred: 57 plans (55 + 2 named), 30 ticks.
	n := len(recs) / 100
	if kinds[epPlan] != 57*n || kinds[epPrices] != 30*n || kinds[epEvaluate] != 8*n || kinds[epMonteCarlo] != n {
		t.Errorf("mix over %d blocks: %v", n, kinds)
	}
	if len(g.pool) != mixedPool {
		t.Errorf("pool of %d, want %d", len(g.pool), mixedPool)
	}
	other := newGenerator(wlCluster, 99)
	for i := range g.pool {
		if g.pool[i].body != other.pool[i].body {
			t.Fatalf("pool entry %d depends on the seed or the workload", i)
		}
	}
}
