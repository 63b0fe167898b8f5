package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// A batch append must recover record-for-record identically to the same
// records appended one at a time — the group commit changes framing
// frequency, never content.
func TestAppendBatchRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: true})
	mustRecover(t, s)

	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = Record{Type: RecordTick, Payload: []byte(fmt.Sprintf("batch-%d", i))}
	}
	n, err := s.AppendBatch(recs)
	if err != nil || n != len(recs) {
		t.Fatalf("AppendBatch: n %d err %v", n, err)
	}
	if got := s.Stats().AppendedRecords; got != uint64(len(recs)) {
		t.Fatalf("AppendedRecords %d, want %d", got, len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	_, got := mustRecover(t, s2)
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Type != recs[i].Type || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d mismatch: %+v != %+v", i, got[i], recs[i])
		}
	}
	s2.Close()
}

// A batch larger than a segment must rotate mid-batch and keep every
// record: the frames span segments but replay stitches them back in
// order.
func TestAppendBatchRotatesMidBatch(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 256})
	mustRecover(t, s)

	recs := make([]Record, 20)
	for i := range recs {
		recs[i] = Record{Type: RecordTick, Payload: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	n, err := s.AppendBatch(recs)
	if err != nil || n != len(recs) {
		t.Fatalf("AppendBatch: n %d err %v", n, err)
	}
	if segs := s.Stats().Segments; segs < 2 {
		t.Fatalf("expected a mid-batch rotation, still %d segment(s)", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	_, got := mustRecover(t, s2)
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records across segments, want %d", len(got), len(recs))
	}
	for i := range got {
		if !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
	s2.Close()
}

// Lifecycle guards mirror Append's: batches refuse before recovery and
// after close, reporting zero records durable.
func TestAppendBatchGuards(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	recs := []Record{{Type: RecordTick, Payload: []byte("x")}}
	if n, err := s.AppendBatch(recs); err != ErrNotRecovered || n != 0 {
		t.Fatalf("before recover: n %d err %v, want 0/ErrNotRecovered", n, err)
	}
	mustRecover(t, s)
	if n, err := s.AppendBatch(nil); err != nil || n != 0 {
		t.Fatalf("empty batch: n %d err %v, want a 0/nil no-op", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n, err := s.AppendBatch(recs); err != ErrClosed || n != 0 {
		t.Fatalf("after close: n %d err %v, want 0/ErrClosed", n, err)
	}
}

// One batch, one fsync: the group commit must not sync per record.
func TestAppendBatchSingleFsync(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: true})
	mustRecover(t, s)
	syncs := 0
	s.SetFsyncObserver(func(float64) { syncs++ })

	recs := make([]Record, 8)
	for i := range recs {
		recs[i] = Record{Type: RecordTick, Payload: []byte{byte(i)}}
	}
	if n, err := s.AppendBatch(recs); err != nil || n != len(recs) {
		t.Fatalf("AppendBatch: n %d err %v", n, err)
	}
	if syncs != 1 {
		t.Fatalf("batch fsynced %d times, want 1 (group commit)", syncs)
	}
	s.Close()
}

// TestAppendBatchRefusesUnreadableRecord: a record longer than
// DecodeRecord accepts is refused with ErrBadLength before it is written,
// under the prefix contract — the records before it are logged, nothing
// from it onward is — and the store keeps appending and recovers every
// logged record. Logging it would leave a data dir that fails Recover.
func TestAppendBatchRefusesUnreadableRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: true})
	mustRecover(t, s)
	recs := []Record{
		{Type: RecordTick, Payload: []byte("a")},
		{Type: RecordTick, Payload: []byte("b")},
		{Type: RecordTick, Payload: make([]byte, MaxRecordBytes)},
		{Type: RecordTick, Payload: []byte("c")},
	}
	n, err := s.AppendBatch(recs)
	if n != 2 || !errors.Is(err, ErrBadLength) {
		t.Fatalf("AppendBatch over a %d-byte frame: n %d err %v, want 2 and ErrBadLength", 1+MaxRecordBytes, n, err)
	}
	if err := s.Append(recs[2]); !errors.Is(err, ErrBadLength) {
		t.Fatalf("Append of the same record: %v, want ErrBadLength", err)
	}
	if err := s.Append(Record{Type: RecordTick, Payload: []byte("d")}); err != nil {
		t.Fatalf("append after a refusal: %v", err)
	}
	if got := s.Stats().AppendedRecords; got != 3 {
		t.Fatalf("AppendedRecords %d, want 3", got)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	_, got := mustRecover(t, s2)
	s2.Close()
	var payloads []string
	for _, rec := range got {
		payloads = append(payloads, string(rec.Payload))
	}
	if fmt.Sprint(payloads) != "[a b d]" {
		t.Fatalf("recovered %q, want [a b d]", payloads)
	}
}
