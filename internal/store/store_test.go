package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustRecover(t *testing.T, s *Store) (snap []byte, recs []Record) {
	t.Helper()
	err := s.Recover(
		func(p []byte) error { snap = append([]byte(nil), p...); return nil },
		func(r Record) error {
			recs = append(recs, Record{Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
			return nil
		})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return snap, recs
}

// writes is a snapshot capture that streams payload in uneven chunks,
// so writes straddle the cut's buffer.
func writes(payload []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		for len(payload) > 0 {
			n := min(len(payload), 7919)
			if _, err := w.Write(payload[:n]); err != nil {
				return err
			}
			payload = payload[n:]
		}
		return nil
	}
}

// sinceCut is the cadence's input: frame bytes appended since the last
// cut.
func sinceCut(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendedBytes - s.bytesAt
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{Type: RecordTick, Payload: []byte("hello")},
		{Type: RecordSession, Payload: nil},
		{Type: 200, Payload: bytes.Repeat([]byte{0xAB}, 10000)},
	}
	for _, rec := range cases {
		frame := EncodeRecord(rec)
		got, n, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("DecodeRecord: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		if got.Type != rec.Type || !bytes.Equal(got.Payload, rec.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, rec)
		}
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	frame := EncodeRecord(Record{Type: RecordTick, Payload: []byte("payload")})

	if _, _, err := DecodeRecord(frame[:5]); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("short header: got %v, want ErrShortRecord", err)
	}
	if _, _, err := DecodeRecord(frame[:len(frame)-2]); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("torn tail: got %v, want ErrShortRecord", err)
	}

	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0x01
	if _, _, err := DecodeRecord(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit flip: got %v, want ErrChecksum", err)
	}

	zeroLen := append([]byte(nil), frame...)
	copy(zeroLen[0:4], []byte{0, 0, 0, 0})
	if _, _, err := DecodeRecord(zeroLen); !errors.Is(err, ErrBadLength) {
		t.Fatalf("zero length: got %v, want ErrBadLength", err)
	}
	hugeLen := append([]byte(nil), frame...)
	copy(hugeLen[0:4], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := DecodeRecord(hugeLen); !errors.Is(err, ErrBadLength) {
		t.Fatalf("huge length: got %v, want ErrBadLength", err)
	}
}

func TestTickRoundTrip(t *testing.T) {
	ticks := []Tick{
		{Type: "m1.small", Zone: "us-east-1a", Version: 7, Prices: []float64{0.1, 0.25, 3.5}},
		{Type: "", Zone: "", Version: 0, Prices: nil},
		{Type: "cc2.8xlarge", Zone: "us-east-1c", Version: 1 << 40, Prices: []float64{0}},
	}
	for _, tk := range ticks {
		payload, err := EncodeTick(tk)
		if err != nil {
			t.Fatalf("EncodeTick: %v", err)
		}
		got, err := DecodeTick(payload)
		if err != nil {
			t.Fatalf("DecodeTick: %v", err)
		}
		if got.Type != tk.Type || got.Zone != tk.Zone || got.Version != tk.Version || len(got.Prices) != len(tk.Prices) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, tk)
		}
		for i := range got.Prices {
			if got.Prices[i] != tk.Prices[i] {
				t.Fatalf("price %d: %v != %v", i, got.Prices[i], tk.Prices[i])
			}
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustRecover(t, s)
	want := make([]Record, 0, 10)
	for i := 0; i < 10; i++ {
		rec := Record{Type: RecordTick, Payload: []byte(fmt.Sprintf("record-%d", i))}
		want = append(want, rec)
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	snap, recs := mustRecover(t, s2)
	if snap != nil {
		t.Fatalf("unexpected snapshot payload %q", snap)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i := range recs {
		if recs[i].Type != want[i].Type || !bytes.Equal(recs[i].Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch: %+v != %+v", i, recs[i], want[i])
		}
	}
	s2.Close()
}

func TestAppendGuards(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Append(Record{Type: RecordTick}); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("append before recover: got %v, want ErrNotRecovered", err)
	}
	mustRecover(t, s)
	if err := s.Recover(nil, nil); err == nil {
		t.Fatal("second Recover should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close should be a no-op, got %v", err)
	}
	if err := s.Append(Record{Type: RecordTick}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: got %v, want ErrClosed", err)
	}
	if err := s.StreamSnapshot(writes(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot after close: got %v, want ErrClosed", err)
	}
}

// TestTornTailTruncation simulates a crash mid-append: a valid segment
// with half a record at the end. Open must truncate the tail and keep
// the valid prefix; subsequent appends must land cleanly after it.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustRecover(t, s)
	if err := s.Append(Record{Type: RecordTick, Payload: []byte("intact")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	path := s.segPath(s.Stats().ActiveSegment)
	s.Close()

	// Append a torn frame: a full record minus its last 3 bytes.
	torn := EncodeRecord(Record{Type: RecordTick, Payload: []byte("torn-away")})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn[:len(torn)-3])
	f.Close()

	s2 := mustOpen(t, dir, Options{})
	if got := s2.Stats().TruncatedTailBytes; got != int64(len(torn)-3) {
		t.Fatalf("TruncatedTailBytes = %d, want %d", got, len(torn)-3)
	}
	_, recs := mustRecover(t, s2)
	if len(recs) != 1 || string(recs[0].Payload) != "intact" {
		t.Fatalf("recovered %v, want the single intact record", recs)
	}
	if err := s2.Append(Record{Type: RecordTick, Payload: []byte("after")}); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	s2.Close()

	s3 := mustOpen(t, dir, Options{})
	_, recs = mustRecover(t, s3)
	if len(recs) != 2 || string(recs[1].Payload) != "after" {
		t.Fatalf("recovered %v, want [intact after]", recs)
	}
	s3.Close()
}

// TestHeaderlessActiveSegmentRebuilt: a crash during segment creation or
// rotation can leave the newest segment shorter than its 12-byte header.
// Open must rebuild it as a fresh empty segment — not merely truncate to
// zero, which would leave a headerless file whose appends succeed but
// whose NEXT restart fails the header check and refuses the whole store.
func TestHeaderlessActiveSegmentRebuilt(t *testing.T) {
	for _, tornLen := range []int{0, 5} {
		t.Run(fmt.Sprintf("torn-%d-bytes", tornLen), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			mustRecover(t, s)
			if err := s.Append(Record{Type: RecordTick, Payload: []byte("pre-crash")}); err != nil {
				t.Fatal(err)
			}
			active := s.Stats().ActiveSegment
			s.Close()

			// Simulate a crash mid-rotation: the next segment's header
			// write was torn after tornLen bytes.
			torn := s.segPath(active + 1)
			if err := os.WriteFile(torn, header(segMagic)[:tornLen], 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := mustOpen(t, dir, Options{Fsync: true})
			if got := s2.Stats().TruncatedTailBytes; got != int64(tornLen) {
				t.Fatalf("TruncatedTailBytes = %d, want %d", got, tornLen)
			}
			_, recs := mustRecover(t, s2)
			if len(recs) != 1 || string(recs[0].Payload) != "pre-crash" {
				t.Fatalf("recovered %v, want the single pre-crash record", recs)
			}
			if err := s2.Append(Record{Type: RecordTick, Payload: []byte("post-rebuild")}); err != nil {
				t.Fatalf("Append into rebuilt segment: %v", err)
			}
			s2.Close()

			// The poison scenario: the restart after the restart must
			// still open and replay everything, including the appends
			// accepted by the rebuilt segment.
			s3 := mustOpen(t, dir, Options{})
			_, recs = mustRecover(t, s3)
			if len(recs) != 2 || string(recs[0].Payload) != "pre-crash" || string(recs[1].Payload) != "post-rebuild" {
				t.Fatalf("second reopen recovered %v, want [pre-crash post-rebuild]", recs)
			}
			s3.Close()
		})
	}
}

// TestCorruptedTailFixture: a bit flip inside the last record of the
// active segment is indistinguishable from a torn tail — the record is
// dropped, everything before it survives.
func TestCorruptedTailFixture(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustRecover(t, s)
	for i := 0; i < 3; i++ {
		if err := s.Append(Record{Type: RecordTick, Payload: []byte(fmt.Sprintf("rec-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	path := s.segPath(s.Stats().ActiveSegment)
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // flip a bit in the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	_, recs := mustRecover(t, s2)
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (corrupt tail record dropped)", len(recs))
	}
	s2.Close()
}

// A bad record in a non-final segment cannot be explained by a torn
// tail: the store must refuse to open rather than silently drop data.
func TestCorruptMiddleSegmentFailsHard(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 64}) // rotate nearly every append
	mustRecover(t, s)
	for i := 0; i < 6; i++ {
		if err := s.Append(Record{Type: RecordTick, Payload: bytes.Repeat([]byte{byte(i)}, 48)}); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.Stats()
	if stats.Segments < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", stats.Segments)
	}
	first := s.segs[0]
	s.Close()

	data, err := os.ReadFile(s.segPath(first))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(s.segPath(first), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{SegmentBytes: 64})
	err = s2.Recover(nil, nil)
	if !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("recover over corrupt middle segment: got %v, want ErrCorruptSegment", err)
	}
	s2.Close()
}

func TestSnapshotReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 128})
	mustRecover(t, s)
	for i := 0; i < 5; i++ {
		if err := s.Append(Record{Type: RecordTick, Payload: []byte(fmt.Sprintf("pre-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.StreamSnapshot(writes([]byte("state-at-5"))); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := sinceCut(s); got != 0 || s.SnapshotDue() {
		t.Fatalf("after the cut: %d bytes since it, due %v; want 0, not due", got, s.SnapshotDue())
	}
	var frames int64
	for i := 0; i < 3; i++ {
		rec := Record{Type: RecordSession, Payload: []byte(fmt.Sprintf("post-%d", i))}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		frames += int64(len(EncodeRecord(rec)))
	}
	if got := sinceCut(s); got != frames {
		t.Fatalf("%d bytes since the cut, want the %d frame bytes appended", got, frames)
	}
	stats := s.Stats()
	if stats.SnapshotSeq == 0 || stats.Snapshots != 1 || stats.SnapshotBytes != int64(len("state-at-5")) {
		t.Fatalf("stats after snapshot: %+v", stats)
	}
	s.Close()

	// Compaction must have removed every segment below the boundary.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if m := segRe.FindStringSubmatch(e.Name()); m != nil {
			var seq uint64
			fmt.Sscanf(m[1], "%d", &seq)
			if seq < stats.SnapshotSeq {
				t.Fatalf("segment %s survived compaction (boundary %d)", e.Name(), stats.SnapshotSeq)
			}
		}
	}

	s2 := mustOpen(t, dir, Options{SegmentBytes: 128})
	snap, recs := mustRecover(t, s2)
	if string(snap) != "state-at-5" {
		t.Fatalf("snapshot payload = %q, want state-at-5", snap)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d post-snapshot records, want 3", len(recs))
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("post-%d", i); string(rec.Payload) != want {
			t.Fatalf("record %d = %q, want %q", i, rec.Payload, want)
		}
	}
	s2.Close()
}

// TestSnapshotFileIsHeaderAndFrame pins the snapshot writer, which
// streams the payload and fills the frame head in after it: the file is
// exactly the header and EncodeRecord of the snapshot record, for an
// empty, a small and a multi-MB payload, streamed in chunks or written
// whole through Snapshot, and Recover reads the payload back.
func TestSnapshotFileIsHeaderAndFrame(t *testing.T) {
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i*7 + i>>13)
	}
	for i, payload := range [][]byte{{}, []byte(`{"market":[],"sessions":[]}`), big, {}, []byte(`{}`), big} {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		mustRecover(t, s)
		var err error
		if i < 3 {
			err = s.StreamSnapshot(writes(payload))
		} else {
			err = s.Snapshot(func() ([]byte, error) { return payload, nil })
		}
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if len(snaps) != 1 {
			t.Fatalf("%d snapshot files, want 1", len(snaps))
		}
		got, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		want := append(header(snapMagic), EncodeRecord(Record{Type: recordSnapshot, Payload: payload})...)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: snapshot file of %d bytes is not header ‖ EncodeRecord (%d bytes)", len(payload), len(got), len(want))
		}
		s.Close()
		s2 := mustOpen(t, dir, Options{})
		snap, _ := mustRecover(t, s2)
		s2.Close()
		if !bytes.Equal(snap, payload) {
			t.Fatalf("%d-byte payload recovered as %d bytes", len(payload), len(snap))
		}
	}
}

// A corrupt newest snapshot is fail-hard: the segments it covered may
// already be compacted away, so recovering without it would be silent
// data loss.
func TestCorruptSnapshotFailsHard(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustRecover(t, s)
	s.Append(Record{Type: RecordTick, Payload: []byte("x")})
	if err := s.StreamSnapshot(writes([]byte("precious"))); err != nil {
		t.Fatal(err)
	}
	snapSeq := s.Stats().SnapshotSeq
	s.Close()

	path := s.snapPath(snapSeq)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	if err := s2.Recover(nil, nil); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("recover with corrupt snapshot: got %v, want ErrCorruptSnapshot", err)
	}
	s2.Close()
}

// A crash between snapshot rename and compaction leaves covered
// segments behind; recovery must skip them (their records predate the
// snapshot) and the next snapshot sweeps them.
func TestRecoverySkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 64})
	mustRecover(t, s)
	for i := 0; i < 4; i++ {
		s.Append(Record{Type: RecordTick, Payload: bytes.Repeat([]byte{byte(i)}, 40)})
	}
	if err := s.StreamSnapshot(writes([]byte("covered"))); err != nil {
		t.Fatal(err)
	}
	boundary := s.Stats().SnapshotSeq
	s.Append(Record{Type: RecordTick, Payload: []byte("live")})
	s.Close()

	// Resurrect a pre-boundary segment as if compaction never ran.
	ghost := s.segPath(boundary - 1)
	f, err := os.Create(ghost)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(header(segMagic))
	f.Write(EncodeRecord(Record{Type: RecordTick, Payload: []byte("stale")}))
	f.Close()

	s2 := mustOpen(t, dir, Options{SegmentBytes: 64})
	snap, recs := mustRecover(t, s2)
	if string(snap) != "covered" {
		t.Fatalf("snapshot = %q", snap)
	}
	for _, rec := range recs {
		if string(rec.Payload) == "stale" {
			t.Fatal("recovery replayed a snapshot-covered segment")
		}
	}
	if len(recs) != 1 || string(recs[0].Payload) != "live" {
		t.Fatalf("recovered %v, want just the live record", recs)
	}
	s2.Close()
}

// TestOpenSweepsOrphanSnapshots: a crash (or failed directory sync)
// between installing a snapshot and removing its predecessor leaves
// stale snapshots behind, and Snapshot itself only removes its own
// predecessor. Open must sweep everything below the newest so orphans
// cannot accumulate forever.
func TestOpenSweepsOrphanSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustRecover(t, s)
	s.Append(Record{Type: RecordTick, Payload: []byte("x")})
	if err := s.StreamSnapshot(writes([]byte("newest"))); err != nil {
		t.Fatal(err)
	}
	newest := s.Stats().SnapshotSeq
	s.Close()

	// Fake two stale predecessors below the newest snapshot.
	for _, seq := range []uint64{newest - 1, newest - 2} {
		if err := os.WriteFile(s.snapPath(seq), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, Options{})
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != s.snapPath(newest) {
		t.Fatalf("snapshots on disk after Open: %v, want just %s", snaps, s.snapPath(newest))
	}
	snap, _ := mustRecover(t, s2)
	if string(snap) != "newest" {
		t.Fatalf("recovered snapshot %q, want the newest", snap)
	}
	s2.Close()
}

// A crash mid-snapshot leaves a .tmp file; Open must discard it and
// recovery must use the previous snapshot.
func TestOpenDiscardsTempSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustRecover(t, s)
	s.Append(Record{Type: RecordTick, Payload: []byte("x")})
	s.Close()

	tmp := filepath.Join(dir, "snap-0000000000000009.snap.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp snapshot survived Open: %v", err)
	}
	_, recs := mustRecover(t, s2)
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	s2.Close()
}

func TestFsyncObserver(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: true})
	mustRecover(t, s)
	var observed int
	s.SetFsyncObserver(func(seconds float64) {
		if seconds < 0 {
			t.Errorf("negative fsync duration %v", seconds)
		}
		observed++
	})
	for i := 0; i < 3; i++ {
		if err := s.Append(Record{Type: RecordTick, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if observed != 3 {
		t.Fatalf("fsync observer fired %d times, want 3", observed)
	}
	s.SetFsyncObserver(nil)
	s.Append(Record{Type: RecordTick, Payload: []byte("x")})
	if observed != 3 {
		t.Fatalf("observer fired after removal")
	}
	s.Close()
}

// Concurrent appends with rotation must neither lose nor reorder
// records from any single goroutine's perspective.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 256})
	mustRecover(t, s)
	const writers, perWriter = 4, 50
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				if err := s.Append(Record{Type: RecordTick, Payload: []byte(fmt.Sprintf("w%d-%04d", w, i))}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{SegmentBytes: 256})
	_, recs := mustRecover(t, s2)
	if len(recs) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(recs), writers*perWriter)
	}
	// Per-writer order must be preserved even though writers interleave.
	next := make([]int, writers)
	for _, rec := range recs {
		var w, i int
		if _, err := fmt.Sscanf(string(rec.Payload), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad payload %q: %v", rec.Payload, err)
		}
		if i != next[w] {
			t.Fatalf("writer %d: got seq %d, want %d", w, i, next[w])
		}
		next[w]++
	}
	s2.Close()
}
