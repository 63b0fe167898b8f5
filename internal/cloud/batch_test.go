package cloud

import (
	"errors"
	"reflect"
	"testing"
)

// AppendBatch must group-commit: one persist-batch call carrying every
// tick and the first post-batch version, then every tick applied, with
// the shard and composite versions advanced by the batch length.
func TestAppendBatchGroupCommit(t *testing.T) {
	m := persistMarket(t)
	key := MarketKey{M1Small.Name, ZoneA}
	type call struct {
		key          MarketKey
		ticks        [][]float64
		firstVersion uint64
	}
	var calls []call
	m.SetPersistBatch(func(key MarketKey, ticks [][]float64, firstVersion uint64) (int, error) {
		cp := make([][]float64, len(ticks))
		for i, tk := range ticks {
			cp[i] = append([]float64(nil), tk...)
		}
		calls = append(calls, call{key, cp, firstVersion})
		return len(ticks), nil
	})

	shardBefore, _ := m.ShardVersion(key)
	compositeBefore := m.Version()
	lenBefore := m.Trace(key.Type, key.Zone).Len()
	ticks := [][]float64{{0.1, 0.2}, {0.3}, {0.4, 0.5, 0.6}}

	applied, version, err := m.AppendBatch(key, ticks)
	if err != nil || applied != 3 {
		t.Fatalf("AppendBatch: applied %d, err %v", applied, err)
	}
	if len(calls) != 1 {
		t.Fatalf("persist-batch called %d times, want 1 (group commit)", len(calls))
	}
	if calls[0].key != key || calls[0].firstVersion != shardBefore+1 || !reflect.DeepEqual(calls[0].ticks, ticks) {
		t.Fatalf("persist-batch saw %+v, want key %v firstVersion %d ticks %v",
			calls[0], key, shardBefore+1, ticks)
	}
	if sv, _ := m.ShardVersion(key); sv != shardBefore+3 {
		t.Fatalf("shard version %d, want %d", sv, shardBefore+3)
	}
	if version != compositeBefore+3 || m.Version() != compositeBefore+3 {
		t.Fatalf("composite version %d (returned %d), want %d", m.Version(), version, compositeBefore+3)
	}
	if got := m.Trace(key.Type, key.Zone).Len(); got != lenBefore+6 {
		t.Fatalf("trace len %d, want %d (all six samples appended)", got, lenBefore+6)
	}
}

// The prefix contract: when the persist hook reports n < len ticks
// durable, exactly that prefix applies — the shard never holds a tick
// the WAL lost, and applied/version reflect the prefix.
func TestAppendBatchAppliesPersistedPrefixOnly(t *testing.T) {
	m := persistMarket(t)
	key := MarketKey{M1Medium.Name, ZoneB}
	boom := errors.New("disk full")
	m.SetPersistBatch(func(_ MarketKey, ticks [][]float64, _ uint64) (int, error) {
		return 1, boom // first tick hit the log, second did not
	})
	shardBefore, _ := m.ShardVersion(key)
	lenBefore := m.Trace(key.Type, key.Zone).Len()

	applied, version, err := m.AppendBatch(key, [][]float64{{0.1}, {0.2}})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want wrapped disk full", err)
	}
	if applied != 1 {
		t.Fatalf("applied %d, want 1 (the persisted prefix)", applied)
	}
	if sv, _ := m.ShardVersion(key); sv != shardBefore+1 {
		t.Fatalf("shard version %d, want %d", sv, shardBefore+1)
	}
	if version != m.Version() {
		t.Fatalf("returned version %d != composite %d", version, m.Version())
	}
	if got := m.Trace(key.Type, key.Zone).Len(); got != lenBefore+1 {
		t.Fatalf("trace len %d, want %d", got, lenBefore+1)
	}
}

// A trailing-fsync-style failure — hook reports every tick durable but
// still errors — applies the whole batch: the frames are in the log, so
// dropping them would diverge from WAL replay.
func TestAppendBatchFsyncTailFailureAppliesAll(t *testing.T) {
	m := persistMarket(t)
	key := MarketKey{M1Small.Name, ZoneB}
	boom := errors.New("fsync: I/O error")
	m.SetPersistBatch(func(_ MarketKey, ticks [][]float64, _ uint64) (int, error) {
		return len(ticks), boom
	})
	shardBefore, _ := m.ShardVersion(key)

	applied, _, err := m.AppendBatch(key, [][]float64{{0.1}, {0.2}})
	if !errors.Is(err, boom) || applied != 2 {
		t.Fatalf("applied %d err %v, want 2 ticks applied with the fsync error surfaced", applied, err)
	}
	if sv, _ := m.ShardVersion(key); sv != shardBefore+2 {
		t.Fatalf("shard version %d, want %d", sv, shardBefore+2)
	}
}

// Validation is all-or-nothing and up-front: a bad sample anywhere in
// the batch rejects the whole batch before the persist hook runs.
func TestAppendBatchRejectsBadSamplesWhole(t *testing.T) {
	m := persistMarket(t)
	key := MarketKey{M1Small.Name, ZoneA}
	persisted := false
	m.SetPersistBatch(func(MarketKey, [][]float64, uint64) (int, error) {
		persisted = true
		return 0, nil
	})
	before := m.Version()

	applied, _, err := m.AppendBatch(key, [][]float64{{0.1}, {0.2, -1}})
	if !errors.Is(err, ErrBadSample) || applied != 0 {
		t.Fatalf("applied %d err %v, want 0 applied with ErrBadSample", applied, err)
	}
	if persisted {
		t.Fatal("persist hook ran for a batch that failed validation")
	}
	if m.Version() != before {
		t.Fatal("rejected batch bumped the composite version")
	}

	if applied, _, err := m.AppendBatch(MarketKey{"ghost", ZoneA}, [][]float64{{0.1}}); !errors.Is(err, ErrUnknownMarket) || applied != 0 {
		t.Fatalf("unknown market: applied %d err %v, want ErrUnknownMarket", applied, err)
	}
}

// ValidateTick mirrors append validation without touching the shard.
func TestValidateTick(t *testing.T) {
	m := persistMarket(t)
	key := MarketKey{M1Small.Name, ZoneA}
	if err := m.ValidateTick(key, []float64{0.1, 0.2}); err != nil {
		t.Fatalf("valid tick rejected: %v", err)
	}
	if err := m.ValidateTick(key, []float64{0.1, -3}); !errors.Is(err, ErrBadSample) {
		t.Fatalf("bad sample: got %v, want ErrBadSample", err)
	}
	if err := m.ValidateTick(MarketKey{"ghost", ZoneA}, nil); !errors.Is(err, ErrUnknownMarket) {
		t.Fatalf("unknown market: got %v, want ErrUnknownMarket", err)
	}
	if m.Version() != persistMarket(t).Version() {
		t.Fatal("ValidateTick mutated the market")
	}
}

// AppendBatch interleaved with replay must reproduce the same shard
// state: batch appends go through the same durability path as per-tick
// appends, so a WAL written by one replays under the other.
func TestAppendBatchMatchesSequentialAppends(t *testing.T) {
	key := MarketKey{M1Medium.Name, ZoneA}
	ticks := [][]float64{{0.1}, {0.2, 0.3}, {0.4}}

	batched := persistMarket(t)
	if _, _, err := batched.AppendBatch(key, ticks); err != nil {
		t.Fatal(err)
	}
	sequential := persistMarket(t)
	for _, tk := range ticks {
		if _, err := sequential.Append(key, tk); err != nil {
			t.Fatal(err)
		}
	}
	bv, _ := batched.ShardVersion(key)
	sv, _ := sequential.ShardVersion(key)
	if bv != sv || batched.Version() != sequential.Version() {
		t.Fatalf("versions diverged: batched %d/%d sequential %d/%d",
			bv, batched.Version(), sv, sequential.Version())
	}
	bt, st := batched.Trace(key.Type, key.Zone), sequential.Trace(key.Type, key.Zone)
	if !reflect.DeepEqual(bt.Prices, st.Prices) {
		t.Fatal("batched and sequential appends produced different traces")
	}
}
