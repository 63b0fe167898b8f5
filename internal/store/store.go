package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSegmentBytes is the rotation threshold for WAL segments. Small
// enough that a segment loads whole during recovery, large enough that
// rotation is rare on the ingest path.
const DefaultSegmentBytes = 4 << 20

// Segment and snapshot file headers: 8 magic bytes plus a u32 format
// version. A header mismatch means the file is not ours (or a future
// format) — recovery refuses rather than guessing.
var (
	segMagic  = []byte("SOMPIWL1")
	snapMagic = []byte("SOMPISN1")
)

const (
	formatVersion = 1
	headerLen     = 12
)

var (
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrNotRecovered reports an Append before Recover: appending to a
	// segment whose tail has not been replayed yet would interleave new
	// records with unapplied old ones.
	ErrNotRecovered = errors.New("store: Recover must run before Append")
	// ErrCorruptSegment reports corruption that torn-tail truncation
	// cannot explain: a bad record in a fully written (non-final)
	// segment, or a foreign file header.
	ErrCorruptSegment = errors.New("store: corrupt WAL segment")
	// ErrCorruptSnapshot reports an unreadable newest snapshot. The
	// segments it covered may already be compacted away, so the store
	// refuses to start rather than silently recovering a partial state.
	ErrCorruptSnapshot = errors.New("store: corrupt snapshot")
)

var (
	segRe  = regexp.MustCompile(`^wal-(\d{16})\.seg$`)
	snapRe = regexp.MustCompile(`^snap-(\d{16})\.snap$`)
)

// Options parameterizes a Store.
type Options struct {
	// Fsync syncs the active segment after every append. Off, appends
	// reach the OS page cache only — they survive a process crash but
	// not a machine crash — until Sync, rotation, or Close.
	Fsync bool
	// SegmentBytes is the rotation threshold; zero means
	// DefaultSegmentBytes.
	SegmentBytes int64
}

// Stats is the store's observable state, for /metrics.
type Stats struct {
	// AppendedRecords counts records appended by this process.
	AppendedRecords uint64
	// ActiveSegment is the seq of the segment appends currently go to.
	ActiveSegment uint64
	// Segments counts WAL segments on disk.
	Segments int
	// SnapshotSeq is the newest snapshot's boundary (0 = none): every
	// segment with a smaller seq is covered and compacted.
	SnapshotSeq uint64
	// Snapshots counts snapshots cut by this process.
	Snapshots uint64
	// SnapshotBytes is the newest snapshot's payload size, from the cut
	// that wrote it or the Recover that loaded it (0 = none).
	SnapshotBytes int64
	// TruncatedTailBytes counts bytes dropped by torn-tail truncation at
	// Open — non-zero exactly when the previous process died mid-append.
	TruncatedTailBytes int64
}

// Store is one data directory: the active WAL segment, the retained
// older segments, and the newest snapshot. All methods are safe for
// concurrent use. Lock ordering: the internal mutex is a leaf — Append
// is designed to be called with caller locks (market shard, session
// registry) held, and no Store method calls back into the caller while
// holding it (Snapshot invokes its capture callback with no lock held).
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	active    uint64   // seq of the open segment
	size      int64    // bytes written to the active segment
	segs      []uint64 // on-disk segment seqs, ascending (includes active)
	snapSeq   uint64
	appended  uint64
	snapshots uint64
	truncated int64
	// The snapshot cadence (SnapshotDue): frame bytes appended by this
	// process, that count at the last cut's rotation, and the newest
	// snapshot's payload size.
	appendedBytes int64
	bytesAt       int64
	snapBytes     int64
	recovered     bool
	closed        bool

	// notify, when non-nil, is closed (under mu) at the next append,
	// rotation, or snapshot — the wake-up for shipping streams. See
	// AppendSignal in ship.go.
	notify chan struct{}

	// snapMu serializes snapshot cuts without blocking appends.
	snapMu sync.Mutex

	// fsyncObs, when set, observes each fsync's duration in seconds.
	fsyncObs atomic.Pointer[func(float64)]
}

// Open opens (creating if needed) the data directory, truncates any torn
// tail off the newest segment, and readies the newest segment for
// appends. Call Recover before the first Append.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading data dir: %w", err)
	}
	var snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if m := segRe.FindStringSubmatch(name); m != nil {
			seq, _ := strconv.ParseUint(m[1], 10, 64)
			s.segs = append(s.segs, seq)
		} else if m := snapRe.FindStringSubmatch(name); m != nil {
			seq, _ := strconv.ParseUint(m[1], 10, 64)
			snaps = append(snaps, seq)
		} else if filepath.Ext(name) == ".tmp" {
			// A crash mid-snapshot leaves a .tmp behind; it was never
			// renamed, so it was never the snapshot of record.
			os.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i] < s.segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	if len(snaps) > 0 {
		s.snapSeq = snaps[len(snaps)-1]
		// Snapshots below the newest are orphans — a crash (or a failed
		// directory sync) between installing a snapshot and removing its
		// predecessor leaves them behind, and only the newest is ever
		// read. Sweep them here, mirroring how covered segments are
		// compacted.
		for _, old := range snaps[:len(snaps)-1] {
			os.Remove(s.snapPath(old))
		}
	}

	if len(s.segs) == 0 {
		seq := s.snapSeq
		if seq == 0 {
			seq = 1
		}
		if err := s.createSegmentLocked(seq); err != nil {
			return nil, err
		}
		s.segs = []uint64{seq}
		return s, nil
	}

	last := s.segs[len(s.segs)-1]
	if err := s.openActiveSegment(last); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016d.seg", seq))
}

func (s *Store) snapPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%016d.snap", seq))
}

// createSegmentLocked creates and opens a fresh segment with just its
// header, fsyncing the file and the directory so the segment itself
// survives a crash.
func (s *Store) createSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(s.segPath(seq), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment %d: %w", seq, err)
	}
	if _, err := f.Write(header(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("store: writing segment %d header: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing segment %d: %w", seq, err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.f, s.active, s.size = f, seq, headerLen
	return nil
}

// openActiveSegment opens the newest segment for appends, truncating a
// torn tail first so new records never follow a half-written one.
func (s *Store) openActiveSegment(seq uint64) error {
	path := s.segPath(seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: reading segment %d: %w", seq, err)
	}
	good, err := scanSegment(data, true)
	if err != nil {
		return fmt.Errorf("segment %d: %w", seq, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment %d: %w", seq, err)
	}
	if good < headerLen {
		// Crash before the segment header finished: nothing in the file
		// is recoverable, but the file must become a well-formed empty
		// segment before accepting appends — truncating alone would
		// leave a headerless segment whose appends succeed and then the
		// next restart refuses as corrupt.
		s.truncated += int64(len(data))
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn header of segment %d: %w", seq, err)
		}
		if _, err := f.Write(header(segMagic)); err != nil {
			f.Close()
			return fmt.Errorf("store: rewriting segment %d header: %w", seq, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: syncing rebuilt segment %d: %w", seq, err)
		}
		s.f, s.active, s.size = f, seq, headerLen
		return nil
	}
	if int64(good) < int64(len(data)) {
		s.truncated += int64(len(data)) - int64(good)
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn tail of segment %d: %w", seq, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: syncing truncated segment %d: %w", seq, err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seeking segment %d: %w", seq, err)
	}
	s.f, s.active, s.size = f, seq, int64(good)
	return nil
}

func header(magic []byte) []byte {
	h := make([]byte, headerLen)
	copy(h, magic)
	h[8] = formatVersion
	return h
}

// scanSegment walks a segment's records, returning the offset of the
// first byte past the last valid record. For the final (active) segment
// any decode failure is a torn tail — the scan stops there and the
// caller truncates. For fully written segments (tail=false) a decode
// failure is ErrCorruptSegment. A missing or foreign header is always
// ErrCorruptSegment, except a final segment shorter than the header,
// which is a crash mid-creation: the scan reports good=0 and
// openActiveSegment rebuilds the file as a fresh empty segment
// (truncate, rewrite header, fsync) — never leaving a headerless file
// for the next restart to choke on.
func scanSegment(data []byte, tail bool) (good int, err error) {
	if len(data) < headerLen {
		if tail {
			// Crash before the header finished: nothing recoverable in
			// this file; openActiveSegment rebuilds it from scratch.
			return 0, nil
		}
		return 0, fmt.Errorf("%w: file shorter than header", ErrCorruptSegment)
	}
	if string(data[:8]) != string(segMagic) || data[8] != formatVersion {
		return 0, fmt.Errorf("%w: bad header", ErrCorruptSegment)
	}
	off := headerLen
	for off < len(data) {
		_, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			if tail {
				return off, nil
			}
			return off, fmt.Errorf("%w: record at offset %d: %v", ErrCorruptSegment, off, derr)
		}
		off += n
	}
	return off, nil
}

// Recover replays the durable state: the newest snapshot's payload (if
// any) through onSnapshot, then every record in every retained segment,
// oldest first, through onRecord. Either callback may be nil. Recover
// must be called exactly once, before the first Append.
func (s *Store) Recover(onSnapshot func(payload []byte) error, onRecord func(rec Record) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.recovered {
		s.mu.Unlock()
		return errors.New("store: Recover called twice")
	}
	snapSeq := s.snapSeq
	segs := append([]uint64(nil), s.segs...)
	s.mu.Unlock()

	var snapBytes int64
	if snapSeq > 0 {
		payload, err := readSnapshot(s.snapPath(snapSeq))
		if err != nil {
			return err
		}
		snapBytes = int64(len(payload))
		if onSnapshot != nil {
			if err := onSnapshot(payload); err != nil {
				return fmt.Errorf("store: applying snapshot %d: %w", snapSeq, err)
			}
		}
	}
	for i, seq := range segs {
		if seq < snapSeq {
			// Covered by the snapshot but not yet compacted (a crash
			// between snapshot rename and compaction): skip, idempotent
			// replay would skip its records anyway, and the next
			// snapshot's compaction sweeps it.
			continue
		}
		data, err := os.ReadFile(s.segPath(seq))
		if err != nil {
			return fmt.Errorf("store: reading segment %d: %w", seq, err)
		}
		good, err := scanSegment(data, i == len(segs)-1)
		if err != nil {
			return fmt.Errorf("segment %d: %w", seq, err)
		}
		off := headerLen
		for off < good {
			rec, n, derr := DecodeRecord(data[off:])
			if derr != nil {
				// scanSegment validated [headerLen, good); unreachable.
				return fmt.Errorf("segment %d: %w: %v", seq, ErrCorruptSegment, derr)
			}
			if onRecord != nil {
				if err := onRecord(rec); err != nil {
					return fmt.Errorf("store: applying record at segment %d offset %d: %w", seq, off, err)
				}
			}
			off += n
		}
	}

	s.mu.Lock()
	s.recovered = true
	s.snapBytes = snapBytes
	s.mu.Unlock()
	return nil
}

// readSnapshot loads and verifies one snapshot file, returning its
// payload. Any failure — unreadable file, foreign header, checksum
// mismatch, trailing garbage — is ErrCorruptSnapshot.
func readSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	payload, err := DecodeSnapshotFile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return payload, nil
}

// Append frames and appends one record to the active segment, rotating
// first when the segment is full and fsyncing after when Options.Fsync
// is set: a one-record AppendBatch, so the append sequence exists once.
// Safe to call with caller locks held: the store's mutex is a leaf.
func (s *Store) Append(rec Record) error {
	_, err := s.AppendBatch([]Record{rec})
	return err
}

// AppendBatch frames and appends a run of records under one mutex hold
// with a single trailing fsync — the group commit the batched ingest
// path rides on. It returns how many leading records are durably in the
// log: a write failure at record i returns (i, err) and nothing from i
// onward was logged; a trailing fsync failure returns (len(recs), err)
// because every frame is in the log and will be seen by replay — the
// caller must treat the batch as logged (the exposure is the same
// tail-loss window as running with Options.Fsync off). A record longer
// than DecodeRecord accepts is refused the same way, as ErrBadLength,
// before it is written: the records before it are logged and synced,
// and nothing from it onward is, so the log never holds a frame that
// would keep the data dir from recovering.
func (s *Store) AppendBatch(recs []Record) (int, error) {
	frames := make([][]byte, 0, len(recs))
	var refused error
	for i, rec := range recs {
		if n := 1 + len(rec.Payload); n > MaxRecordBytes {
			refused = fmt.Errorf("%w: record %d frames %d bytes, over %d", ErrBadLength, i, n, MaxRecordBytes)
			break
		}
		frames = append(frames, EncodeRecord(rec))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return 0, ErrClosed
	case !s.recovered:
		return 0, ErrNotRecovered
	}
	for i, frame := range frames {
		if s.size >= s.opts.SegmentBytes {
			if err := s.rotateLocked(); err != nil {
				return i, err
			}
		}
		if _, err := s.f.Write(frame); err != nil {
			return i, fmt.Errorf("store: appending to segment %d: %w", s.active, err)
		}
		s.size += int64(len(frame))
		s.appended++
		s.appendedBytes += int64(len(frame))
	}
	if s.opts.Fsync && len(frames) > 0 {
		if err := s.syncLocked(); err != nil {
			return len(frames), err
		}
	}
	if len(frames) > 0 {
		s.notifyLocked()
	}
	return len(frames), refused
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next one.
func (s *Store) rotateLocked() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing segment %d at rotation: %w", s.active, err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: closing segment %d: %w", s.active, err)
	}
	next := s.active + 1
	if err := s.createSegmentLocked(next); err != nil {
		return err
	}
	s.segs = append(s.segs, next)
	return nil
}

func (s *Store) syncLocked() error {
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync segment %d: %w", s.active, err)
	}
	if obs := s.fsyncObs.Load(); obs != nil {
		(*obs)(time.Since(start).Seconds())
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked()
}

// snapshotBuffer sizes the buffer a snapshot cut streams through.
const snapshotBuffer = 64 << 10

// StreamSnapshot cuts a snapshot: it rotates the WAL (so the snapshot
// has a clean segment boundary B), invokes capture — with no store lock
// held — to stream the caller's state into snap-B's temp file, installs
// it by rename, then compacts every segment and snapshot below B.
//
// The file is header ‖ EncodeRecord(snapshot record), byte for byte, but
// the payload is never held whole: capture writes it through a fixed
// buffer, the frame's length and CRC are kept as it passes, and they
// are written into a placeholder at the frame head once capture
// returns. A payload longer than DecodeRecord accepts fails the cut
// with ErrBadLength — nothing is installed and nothing compacted, since
// a snapshot no recovery can read must never replace the log it covers.
//
// Correctness under concurrent appends rests on two properties the
// caller must provide: capture must acquire each data structure's lock
// after this call rotated (any append whose WAL write landed before the
// boundary still holds its structure's lock until the in-memory apply
// finishes, so capture observes it), and records must be idempotent on
// replay (appends that landed after the boundary are both in the capture
// and in segments >= B; recovery re-applies and skips them by version).
func (s *Store) StreamSnapshot(capture func(w io.Writer) error) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return ErrClosed
	case !s.recovered:
		s.mu.Unlock()
		return ErrNotRecovered
	}
	if err := s.rotateLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	boundary := s.active
	// A cut that fails still restarts the cadence, so a state that
	// cannot be snapshotted is retried after another interval, not on
	// every append.
	s.bytesAt = s.appendedBytes
	s.mu.Unlock()

	tmp := s.snapPath(boundary) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	sw := &snapshotWriter{
		w:   bufio.NewWriterSize(f, snapshotBuffer),
		crc: crc32.ChecksumIEEE([]byte{recordSnapshot}),
	}
	// The frame head's length and CRC are zeros until the payload is in.
	head := append(header(snapMagic), make([]byte, frameHeader)...)
	_, werr := sw.w.Write(append(head, recordSnapshot))
	if werr == nil {
		if err := capture(sw); err != nil {
			werr = fmt.Errorf("capturing snapshot state: %w", err)
		} else {
			werr = sw.err
		}
	}
	if werr == nil {
		werr = sw.w.Flush()
	}
	if werr == nil {
		var fh [frameHeader]byte
		binary.LittleEndian.PutUint32(fh[0:4], uint32(1+sw.n))
		binary.LittleEndian.PutUint32(fh[4:8], sw.crc)
		_, werr = f.WriteAt(fh[:], headerLen)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot %d: %w", boundary, werr)
	}
	if err := os.Rename(tmp, s.snapPath(boundary)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing snapshot %d: %w", boundary, err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}

	s.mu.Lock()
	prevSnap := s.snapSeq
	s.snapSeq = boundary
	s.snapshots++
	s.snapBytes = int64(sw.n)
	var keep []uint64
	for _, seq := range s.segs {
		if seq < boundary && seq != s.active {
			os.Remove(s.segPath(seq))
			continue
		}
		keep = append(keep, seq)
	}
	s.segs = keep
	s.notifyLocked()
	s.mu.Unlock()
	if prevSnap > 0 && prevSnap != boundary {
		os.Remove(s.snapPath(prevSnap))
	}
	return nil
}

// Snapshot is StreamSnapshot for a capture that holds its payload whole.
func (s *Store) Snapshot(capture func() ([]byte, error)) error {
	return s.StreamSnapshot(func(w io.Writer) error {
		payload, err := capture()
		if err == nil {
			_, err = w.Write(payload)
		}
		return err
	})
}

// snapshotWriter is the stream a snapshot's payload passes through: it
// counts the payload and extends the frame CRC over it, and refuses any
// write that would take the frame past MaxRecordBytes. Its first error
// sticks, so a capture that drops one still fails the cut.
type snapshotWriter struct {
	w   *bufio.Writer
	n   int
	crc uint32
	err error
}

func (sw *snapshotWriter) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	if len(p) > MaxRecordBytes-1-sw.n {
		sw.err = fmt.Errorf("%w: snapshot payload passes %d bytes", ErrBadLength, MaxRecordBytes-1)
		return 0, sw.err
	}
	n, err := sw.w.Write(p)
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p[:n])
	sw.n += n
	sw.err = err
	return n, err
}

// SnapshotDue reports whether a snapshot cut is worth its cost: the
// frame bytes appended since the last cut reach both one segment (a cut
// before that frees less than a segment to compaction) and the newest
// snapshot's payload (a cut before that writes more snapshot than the
// log it retires). Snapshot bytes written therefore never outrun WAL
// bytes appended by more than the newest snapshot, and recovery replays
// at most max(snapshot, segment) of log this process appended.
func (s *Store) SnapshotDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendedBytes-s.bytesAt >= max(s.opts.SegmentBytes, s.snapBytes)
}

// SetFsyncObserver installs (or with nil removes) a callback observing
// each fsync's duration in seconds — the feed for
// sompid_wal_fsync_seconds.
func (s *Store) SetFsyncObserver(fn func(seconds float64)) {
	if fn == nil {
		s.fsyncObs.Store(nil)
		return
	}
	s.fsyncObs.Store(&fn)
}

// Stats reports the store's observable state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		AppendedRecords:    s.appended,
		ActiveSegment:      s.active,
		Segments:           len(s.segs),
		SnapshotSeq:        s.snapSeq,
		Snapshots:          s.snapshots,
		SnapshotBytes:      s.snapBytes,
		TruncatedTailBytes: s.truncated,
	}
}

// Dir reports the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Close fsyncs and closes the active segment. Close is idempotent;
// every mutation after it fails with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.notifyLocked() // unblock any shipping stream waiting for appends
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: syncing segment %d at close: %w", s.active, err)
	}
	return s.f.Close()
}

// syncDir fsyncs the directory so entry creation/rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening data dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing data dir: %w", err)
	}
	return nil
}
