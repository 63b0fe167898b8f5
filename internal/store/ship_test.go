package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// mirrorAll walks ReadChunk from a fresh position and writes the bytes
// into dir, exactly as a cluster follower does, returning the segments
// it materialized.
func mirrorAll(t *testing.T, s *Store, dir string) {
	t.Helper()
	snapSeq, seg := s.ShipStart()
	if snapSeq > 0 {
		wantSeq, data, err := s.ReadSnapshotFile()
		if err != nil {
			t.Fatalf("ReadSnapshotFile: %v", err)
		}
		if wantSeq != snapSeq {
			t.Fatalf("snapshot seq %d, ShipStart said %d", wantSeq, snapSeq)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", wantSeq)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var off int64
	var buf []byte
	activeSeg, activeSize := s.Position()
	for {
		data, sealed, err := s.ReadChunk(seg, off, 1000)
		if err != nil {
			t.Fatalf("ReadChunk(%d, %d): %v", seg, off, err)
		}
		buf = append(buf, data...)
		off += int64(len(data))
		if sealed {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seg)), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			seg, off, buf = seg+1, 0, nil
			continue
		}
		if len(data) == 0 {
			if seg != activeSeg || off != activeSize {
				t.Fatalf("caught up at (%d, %d), Position says (%d, %d)", seg, off, activeSeg, activeSize)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seg)), buf, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
}

// recoverRecords replays a data dir and returns its session payloads in
// order (ticks are ignored; the caller appends sessions only).
func recoverRecords(t *testing.T, dir string) (snapshot []byte, payloads [][]byte) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("opening mirror: %v", err)
	}
	defer s.Close()
	err = s.Recover(
		func(p []byte) error { snapshot = append([]byte(nil), p...); return nil },
		func(rec Record) error {
			payloads = append(payloads, append([]byte(nil), rec.Payload...))
			return nil
		})
	if err != nil {
		t.Fatalf("recovering mirror: %v", err)
	}
	return snapshot, payloads
}

// TestShipMirrorRoundtrip is the shipping contract: a byte mirror built
// purely from ReadChunk walks recovers to exactly the records the owner
// appended, across a segment rotation.
func TestShipMirrorRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 256}) // rotate often
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 40; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		if err := s.Append(Record{Type: RecordSession, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("test wants a rotation, got %d segment(s)", st.Segments)
	}

	mirror := t.TempDir()
	mirrorAll(t, s, mirror)
	_, got := recoverRecords(t, mirror)
	if len(got) != len(want) {
		t.Fatalf("mirror recovered %d records, owner appended %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: mirror %q, owner %q", i, got[i], want[i])
		}
	}
}

// TestShipCompactionJump: after a snapshot retires segments, reading a
// retired seq fails with ErrSegmentCompacted and the shipped snapshot
// carries the full payload; a mirror built from snapshot + remaining
// chunks recovers both.
func TestShipCompactionJump(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Append(Record{Type: RecordSession, Payload: []byte(fmt.Sprintf("pre-%02d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.StreamSnapshot(writes([]byte("state-at-cut"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Type: RecordSession, Payload: []byte("post-snapshot")}); err != nil {
		t.Fatal(err)
	}

	if _, _, err := s.ReadChunk(1, 0, 100); !errors.Is(err, ErrSegmentCompacted) {
		t.Fatalf("ReadChunk on a compacted segment: %v, want ErrSegmentCompacted", err)
	}
	snapSeq, firstSeg := s.ShipStart()
	if snapSeq == 0 || firstSeg != snapSeq {
		t.Fatalf("ShipStart = (%d, %d), want snapshot boundary to lead", snapSeq, firstSeg)
	}
	raw, err := os.ReadFile(s.snapPath(snapSeq))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := DecodeSnapshotFile(raw)
	if err != nil {
		t.Fatalf("DecodeSnapshotFile: %v", err)
	}
	if string(payload) != "state-at-cut" {
		t.Fatalf("snapshot payload %q", payload)
	}

	mirror := t.TempDir()
	mirrorAll(t, s, mirror)
	snap, recs := recoverRecords(t, mirror)
	if string(snap) != "state-at-cut" {
		t.Fatalf("mirror snapshot payload %q", snap)
	}
	found := false
	for _, r := range recs {
		if string(r) == "post-snapshot" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mirror lost the post-snapshot record: %q", recs)
	}
}

func TestShipOutOfRange(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadChunk(99, 0, 10); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("future segment: %v, want ErrOutOfRange", err)
	}
	_, size := s.Position()
	if _, _, err := s.ReadChunk(1, size+1, 10); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("offset past committed: %v, want ErrOutOfRange", err)
	}
	if _, _, err := s.ReadSnapshotFile(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("ReadSnapshotFile without a snapshot: %v, want ErrNoSnapshot", err)
	}
}

// TestAppendSignal: a waiter armed before an append is woken by it, and
// re-arming misses nothing (the chunk read between signals sees the
// record).
func TestAppendSignal(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	ch := s.AppendSignal()
	select {
	case <-ch:
		t.Fatal("signal fired before any append")
	default:
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Error("append never signalled the waiter")
		}
	}()
	if err := s.Append(Record{Type: RecordSession, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	<-done

	// Close must wake a parked waiter too, or shutdown would hang the
	// shipping handler.
	ch = s.AppendSignal()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never signalled the waiter")
	}
}
