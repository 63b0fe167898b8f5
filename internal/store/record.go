// Package store is sompid's durability subsystem: a segmented,
// CRC32-checksummed append-only write-ahead log (WAL) plus point-in-time
// snapshots, dependency-free by construction (standard library only).
//
// The layers above event-source their state through it: price ticks and
// tracked-session transitions are appended to the WAL before they are
// applied in memory, periodic snapshots materialize the full in-memory
// state at a WAL segment boundary, and recovery replays the newest valid
// snapshot plus every WAL record after it. Records carry enough identity
// (per-shard versions, per-session sequence numbers) for replay to be
// idempotent, so a snapshot cut concurrently with ingestion never
// double-applies the records that straddle its boundary.
//
// On-disk layout of a data directory:
//
//	wal-%016d.seg    WAL segments, strictly increasing seq, append-only
//	snap-%016d.snap  snapshots; snap-B covers every segment with seq < B
//
// Recovery truncates a torn tail (a partially written record after a
// crash) from the newest segment; corruption anywhere else is a typed
// error, never a panic.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Record types. Unknown types are skipped on recovery so a newer binary
// can add record kinds without stranding older data directories.
const (
	// RecordTick is one market price append: the payload is the binary
	// tick codec below.
	RecordTick byte = 1
	// RecordSession is one tracked-session state transition: the payload
	// is an opaque (to this package) JSON document owned by the caller.
	RecordSession byte = 2
	// recordSnapshot frames a snapshot file's payload. It never appears
	// in a WAL segment.
	recordSnapshot byte = 3
)

// MaxRecordBytes bounds a single record's framed length (type byte plus
// payload). A length prefix beyond it is corruption, not a big record —
// the bound is what keeps a bit-flipped length from driving a giant
// allocation during recovery.
const MaxRecordBytes = 1 << 26

// frameHeader is the fixed per-record prefix: u32 length (type+payload),
// u32 CRC32-IEEE over the type byte and payload.
const frameHeader = 8

// Typed decode errors. The decoder returns these — never panics — so
// recovery can distinguish "torn tail, truncate here" from "refuse to
// start".
var (
	// ErrShortRecord reports a frame that needs more bytes than remain —
	// the torn-tail signature of a crash mid-append.
	ErrShortRecord = errors.New("store: truncated record")
	// ErrBadLength reports a length prefix outside (0, MaxRecordBytes].
	ErrBadLength = errors.New("store: record length out of bounds")
	// ErrChecksum reports a CRC mismatch: the frame is complete but its
	// bytes are not the ones that were written.
	ErrChecksum = errors.New("store: record checksum mismatch")
	// ErrBadTick reports a RecordTick payload that does not parse.
	ErrBadTick = errors.New("store: malformed tick payload")
)

// Record is one WAL entry: a type tag and an opaque payload.
type Record struct {
	Type    byte
	Payload []byte
}

// EncodeRecord frames a record for the WAL: length, CRC, type, payload.
// The encoding is canonical — DecodeRecord of the result yields the
// record back and re-encoding yields identical bytes.
func EncodeRecord(rec Record) []byte {
	n := 1 + len(rec.Payload)
	buf := make([]byte, frameHeader+n)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	buf[frameHeader] = rec.Type
	copy(buf[frameHeader+1:], rec.Payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[frameHeader:]))
	return buf
}

// DecodeRecord decodes the first record framed in b, returning the
// record, the number of bytes it occupied, and a typed error when b does
// not start with a complete, checksummed frame. The returned payload
// aliases b — callers that retain it past b's lifetime must copy.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, fmt.Errorf("%w: %d bytes remain, frame header needs %d", ErrShortRecord, len(b), frameHeader)
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n < 1 || n > MaxRecordBytes {
		return Record{}, 0, fmt.Errorf("%w: length %d", ErrBadLength, n)
	}
	total := frameHeader + int(n)
	if len(b) < total {
		return Record{}, 0, fmt.Errorf("%w: frame claims %d bytes, %d remain", ErrShortRecord, total, len(b))
	}
	frame := b[frameHeader:total]
	if got, want := crc32.ChecksumIEEE(frame), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return Record{}, 0, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	return Record{Type: frame[0], Payload: frame[1:]}, total, nil
}

// Tick is one market price append as persisted in the WAL: the target
// (type, zone) market, the samples, and the shard version the append
// produced. The version is what makes replay idempotent: recovery skips
// a tick the restored shard has already seen (it was materialized by a
// snapshot) and detects gaps (a tick whose version is more than one
// ahead means records are missing).
type Tick struct {
	Type    string
	Zone    string
	Version uint64
	Prices  []float64
}

// EncodeTick renders a tick as a RecordTick payload. Market identifiers
// longer than 64 KiB are rejected — no real instance type or zone comes
// close, and the bound keeps the u16 length prefixes honest.
func EncodeTick(t Tick) ([]byte, error) {
	if len(t.Type) > math.MaxUint16 || len(t.Zone) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: market identifier too long (%d/%d bytes)", ErrBadTick, len(t.Type), len(t.Zone))
	}
	buf := make([]byte, 0, 2+len(t.Type)+2+len(t.Zone)+8+4+8*len(t.Prices))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Type)))
	buf = append(buf, t.Type...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Zone)))
	buf = append(buf, t.Zone...)
	buf = binary.LittleEndian.AppendUint64(buf, t.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Prices)))
	for _, p := range t.Prices {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
	}
	return buf, nil
}

// DecodeTick parses a RecordTick payload. It never panics: every length
// is bounds-checked and the price count must account for exactly the
// remaining bytes. The decoded strings and prices are copies, safe to
// retain.
func DecodeTick(b []byte) (Tick, error) {
	var t Tick
	off := 0
	readStr := func(what string) (string, error) {
		if len(b)-off < 2 {
			return "", fmt.Errorf("%w: truncated %s length", ErrBadTick, what)
		}
		n := int(binary.LittleEndian.Uint16(b[off : off+2]))
		off += 2
		if len(b)-off < n {
			return "", fmt.Errorf("%w: %s needs %d bytes, %d remain", ErrBadTick, what, n, len(b)-off)
		}
		s := string(b[off : off+n])
		off += n
		return s, nil
	}
	var err error
	if t.Type, err = readStr("type"); err != nil {
		return Tick{}, err
	}
	if t.Zone, err = readStr("zone"); err != nil {
		return Tick{}, err
	}
	if len(b)-off < 8+4 {
		return Tick{}, fmt.Errorf("%w: truncated version/count", ErrBadTick)
	}
	t.Version = binary.LittleEndian.Uint64(b[off : off+8])
	off += 8
	count := binary.LittleEndian.Uint32(b[off : off+4])
	off += 4
	if rest := len(b) - off; rest != int(count)*8 || count > MaxRecordBytes/8 {
		return Tick{}, fmt.Errorf("%w: %d prices need %d bytes, %d remain", ErrBadTick, count, count*8, len(b)-off)
	}
	if count > 0 {
		t.Prices = make([]float64, count)
		for i := range t.Prices {
			t.Prices[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))
			off += 8
		}
	}
	return t, nil
}
