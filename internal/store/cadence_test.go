package store

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"
)

// TestSnapshotBytesTrackWALBytes pins the cadence's write bound (DESIGN
// §16 D12): cutting whenever SnapshotDue says, every snapshot but the
// newest is paid for by the WAL bytes appended after it, so the
// snapshot bytes written never outrun the frame bytes appended by more
// than the newest cut. The state grows with the log, from below one
// segment to several, so both terms of the rule arm cuts.
func TestSnapshotBytesTrackWALBytes(t *testing.T) {
	const segment = 1 << 10
	s := mustOpen(t, t.TempDir(), Options{SegmentBytes: segment})
	mustRecover(t, s)
	defer s.Close()
	var appended, written, newest, prev, cuts, bigCuts int64
	x := uint32(7)
	for i := 0; i < 4000; i++ {
		x = x*1664525 + 1013904223
		rec := Record{Type: RecordTick, Payload: make([]byte, 10+x>>23)}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		appended += int64(len(EncodeRecord(rec)))
		if !s.SnapshotDue() {
			continue
		}
		if since := sinceCut(s); since < max(segment, prev) {
			t.Fatalf("cut due after %d bytes, under max(segment %d, last cut %d)", since, segment, prev)
		}
		state := make([]byte, 600+appended/3)
		if err := s.StreamSnapshot(writes(state)); err != nil {
			t.Fatal(err)
		}
		if prev > segment {
			bigCuts++
		}
		written += int64(len(state))
		newest, prev = int64(len(state)), int64(len(state))
		cuts++
		if s.SnapshotDue() {
			t.Fatal("a cut is due straight after one")
		}
	}
	if cuts < 5 || bigCuts < 2 {
		t.Fatalf("%d cuts, %d armed by the last cut's size: the run does not exercise both terms", cuts, bigCuts)
	}
	if written-newest > appended {
		t.Fatalf("%d cuts wrote %d snapshot bytes (newest %d) for %d WAL bytes", cuts, written, newest, appended)
	}
	t.Logf("%d cuts, %d snapshot bytes for %d WAL bytes", cuts, written, appended)
}

// TestSnapshotDueAfterRecover: a restarted store takes the recovered
// snapshot's size as the last cut's, so no cut is due until max(S,
// segment) frame bytes are appended — for a snapshot below one segment
// and one above it.
func TestSnapshotDueAfterRecover(t *testing.T) {
	const segment = 1 << 10
	for _, size := range []int{100, 5000} {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{SegmentBytes: segment})
		mustRecover(t, s)
		if err := s.StreamSnapshot(writes(make([]byte, size))); err != nil {
			t.Fatal(err)
		}
		s.Close()

		s2 := mustOpen(t, dir, Options{SegmentBytes: segment})
		mustRecover(t, s2)
		if got := s2.Stats().SnapshotBytes; got != int64(size) {
			t.Fatalf("recovered snapshot of %d bytes reports %d", size, got)
		}
		want := int64(max(size, segment))
		rec := Record{Type: RecordTick, Payload: make([]byte, 23)}
		var appended int64
		for appended < want {
			if s2.SnapshotDue() {
				t.Fatalf("%d-byte snapshot: cut due after %d bytes, want %d", size, appended, want)
			}
			if err := s2.Append(rec); err != nil {
				t.Fatal(err)
			}
			appended += int64(len(EncodeRecord(rec)))
		}
		if !s2.SnapshotDue() {
			t.Fatalf("%d-byte snapshot: no cut due after %d bytes", size, appended)
		}
		s2.Close()
	}
}

// TestSnapshotPastRecordBoundFails: a capture that streams past what
// DecodeRecord accepts fails the cut with ErrBadLength — the temp file
// is removed, nothing is installed, no segment is compacted, and the
// store still recovers every record. Without the bound the cut would
// install a snapshot that refuses to load over a log it had compacted.
func TestSnapshotPastRecordBoundFails(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 64})
	mustRecover(t, s)
	for i := 0; i < 6; i++ {
		if err := s.Append(Record{Type: RecordTick, Payload: bytes.Repeat([]byte{byte(i)}, 40)}); err != nil {
			t.Fatal(err)
		}
	}
	segs := s.Stats().Segments
	chunk := make([]byte, 1<<20)
	accepted := 0
	err := s.StreamSnapshot(func(w io.Writer) error {
		for {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			accepted++
		}
	})
	if !errors.Is(err, ErrBadLength) {
		t.Fatalf("capture past the record bound: %v, want ErrBadLength", err)
	}
	if accepted != MaxRecordBytes>>20-1 {
		t.Fatalf("the cut took %d MiB before refusing, want %d", accepted, MaxRecordBytes>>20-1)
	}
	// A capture that drops the refusal fails the cut all the same.
	if err := s.StreamSnapshot(func(w io.Writer) error {
		w.Write(make([]byte, MaxRecordBytes))
		return nil
	}); !errors.Is(err, ErrBadLength) {
		t.Fatalf("capture ignoring the refusal: %v, want ErrBadLength", err)
	}
	stats := s.Stats()
	if stats.Snapshots != 0 || stats.SnapshotSeq != 0 || stats.Segments != segs+2 {
		t.Fatalf("after two refused cuts: %+v, want no snapshot and the %d segments plus two rotations", stats, segs)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(leftovers) != 0 {
		t.Fatalf("refused cuts left %v", leftovers)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{SegmentBytes: 64})
	snap, recs := mustRecover(t, s2)
	s2.Close()
	if snap != nil || len(recs) != 6 {
		t.Fatalf("recovered snapshot %q and %d records, want none and 6", snap, len(recs))
	}
}

// TestSnapshotWriterBound: the writer takes a payload of exactly
// MaxRecordBytes−1 bytes, the longest frame DecodeRecord accepts, and
// refuses one byte more.
func TestSnapshotWriterBound(t *testing.T) {
	sw := &snapshotWriter{w: bufio.NewWriter(io.Discard)}
	chunk := make([]byte, 1<<20)
	for sw.n+len(chunk) <= MaxRecordBytes-1 {
		if _, err := sw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.Write(chunk[:MaxRecordBytes-1-sw.n]); err != nil {
		t.Fatalf("writing up to the bound: %v", err)
	}
	if _, err := sw.Write([]byte{0}); !errors.Is(err, ErrBadLength) {
		t.Fatalf("one byte past the bound: %v, want ErrBadLength", err)
	}
	if _, err := sw.Write(nil); !errors.Is(err, ErrBadLength) {
		t.Fatalf("a write after the refusal: %v, want the refusal to stick", err)
	}
}
