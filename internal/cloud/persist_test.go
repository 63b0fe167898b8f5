package cloud

import (
	"errors"
	"reflect"
	"testing"
)

func persistMarket(t *testing.T) *Market {
	t.Helper()
	return GenerateMarket(Catalog{M1Small, M1Medium}, []string{ZoneA, ZoneB}, 24, 7)
}

// The persist hook must see every append WAL-first: the key, the exact
// samples, and the version the apply will produce.
func TestPersistHookSeesEveryAppend(t *testing.T) {
	m := persistMarket(t)
	type call struct {
		key     MarketKey
		samples []float64
		version uint64
	}
	var calls []call
	m.SetPersistBatch(func(key MarketKey, ticks [][]float64, first uint64) (int, error) {
		if len(ticks) != 1 {
			t.Errorf("Append logged %d ticks, want a one-tick batch", len(ticks))
		}
		calls = append(calls, call{key, append([]float64(nil), ticks[0]...), first})
		return len(ticks), nil
	})
	key := MarketKey{M1Small.Name, ZoneA}
	for i := 0; i < 3; i++ {
		if _, err := m.Append(key, []float64{0.1 + float64(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if len(calls) != 3 {
		t.Fatalf("persist saw %d appends, want 3", len(calls))
	}
	for i, c := range calls {
		if c.key != key || c.version != uint64(i+2) { // shard starts at version 1
			t.Fatalf("call %d: key %v version %d", i, c.key, c.version)
		}
		if want := []float64{0.1 + float64(i)}; !reflect.DeepEqual(c.samples, want) {
			t.Fatalf("call %d samples %v, want %v", i, c.samples, want)
		}
	}
	got, _ := m.ShardVersion(key)
	if got != 4 {
		t.Fatalf("shard version %d, want 4", got)
	}
}

// A persist failure must abort the append whole: no version bump, no
// trace mutation — an unlogged tick is never applied.
func TestPersistFailureAbortsAppend(t *testing.T) {
	m := persistMarket(t)
	key := MarketKey{M1Small.Name, ZoneA}
	before, _ := m.ShardVersion(key)
	beforeLen := m.Trace(key.Type, key.Zone).Len()
	beforeComposite := m.Version()

	boom := errors.New("disk full")
	m.SetPersistBatch(func(MarketKey, [][]float64, uint64) (int, error) { return 0, boom })
	if _, err := m.Append(key, []float64{0.5}); !errors.Is(err, boom) {
		t.Fatalf("Append with failing persist: got %v, want wrapped disk full", err)
	}
	after, _ := m.ShardVersion(key)
	if after != before {
		t.Fatalf("shard version moved %d -> %d despite persist failure", before, after)
	}
	if got := m.Trace(key.Type, key.Zone).Len(); got != beforeLen {
		t.Fatalf("trace grew %d -> %d despite persist failure", beforeLen, got)
	}
	if m.Version() != beforeComposite {
		t.Fatalf("composite version moved despite persist failure")
	}

	// Removing the hook restores pure in-memory appends.
	m.SetPersistBatch(nil)
	if _, err := m.Append(key, []float64{0.5}); err != nil {
		t.Fatalf("Append after removing hook: %v", err)
	}
}

// Export → restore must reproduce the exact market: retained prices,
// absolute clock, versions, counters, composite version.
func TestExportRestoreRoundTrip(t *testing.T) {
	src := persistMarket(t)
	src.SetRetention(12) // exercise Head != 0 in the export
	key := MarketKey{M1Medium.Name, ZoneB}
	for i := 0; i < 5; i++ {
		if _, err := src.Append(key, []float64{0.2, 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	states := src.ExportShards()

	dst := persistMarket(t)
	dst.SetRetention(12)
	if err := dst.RestoreShards(states); err != nil {
		t.Fatalf("RestoreShards: %v", err)
	}
	if !reflect.DeepEqual(dst.VersionVector(), src.VersionVector()) {
		t.Fatalf("version vector mismatch:\n%v\n%v", dst.VersionVector(), src.VersionVector())
	}
	if dst.Version() != src.Version() {
		t.Fatalf("composite version %d != %d", dst.Version(), src.Version())
	}
	for _, k := range src.Keys() {
		st, dt := src.Trace(k.Type, k.Zone), dst.Trace(k.Type, k.Zone)
		if st.Step != dt.Step || st.Head != dt.Head || !reflect.DeepEqual(st.Prices, dt.Prices) {
			t.Fatalf("trace mismatch for %v", k)
		}
	}
	if !reflect.DeepEqual(dst.ShardStats(), src.ShardStats()) {
		t.Fatalf("shard stats mismatch:\n%v\n%v", dst.ShardStats(), src.ShardStats())
	}
}

func TestRestoreShardsRejectsUnknownKey(t *testing.T) {
	dst := persistMarket(t)
	err := dst.RestoreShards([]ShardState{{Type: "no-such-type", Zone: ZoneA, Step: 1.0 / 12, Version: 1}})
	if !errors.Is(err, ErrUnknownMarket) {
		t.Fatalf("got %v, want ErrUnknownMarket", err)
	}
}

// ApplyTick replays idempotently: skip versions already reached, apply
// version+1, reject gaps.
func TestApplyTickIdempotent(t *testing.T) {
	m := persistMarket(t)
	key := MarketKey{M1Small.Name, ZoneB}
	baseLen := m.Trace(key.Type, key.Zone).Len()
	baseVersion := m.Version()

	// Already-reached version: skipped, nothing changes.
	if err := m.ApplyTick(key, []float64{9.9}, 1); err != nil {
		t.Fatalf("ApplyTick v1: %v", err)
	}
	if got := m.Trace(key.Type, key.Zone).Len(); got != baseLen {
		t.Fatalf("skipped tick mutated trace: %d -> %d", baseLen, got)
	}
	if m.Version() != baseVersion {
		t.Fatal("skipped tick bumped composite version")
	}

	// Next version: applied.
	if err := m.ApplyTick(key, []float64{0.42}, 2); err != nil {
		t.Fatalf("ApplyTick v2: %v", err)
	}
	if v, _ := m.ShardVersion(key); v != 2 {
		t.Fatalf("shard version %d, want 2", v)
	}
	if got := m.Trace(key.Type, key.Zone).Len(); got != baseLen+1 {
		t.Fatalf("applied tick: trace len %d, want %d", got, baseLen+1)
	}
	if m.Version() != baseVersion+1 {
		t.Fatalf("composite version %d, want %d", m.Version(), baseVersion+1)
	}

	// Gap: record claims version 5 while the shard sits at 2.
	if err := m.ApplyTick(key, []float64{0.1}, 5); err == nil {
		t.Fatal("gap replay should fail")
	}
	if err := m.ApplyTick(MarketKey{"ghost", ZoneA}, nil, 1); !errors.Is(err, ErrUnknownMarket) {
		t.Fatalf("unknown key: got %v, want ErrUnknownMarket", err)
	}
}
