package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChunkFrame(&buf, 7, 4096, []byte("segment bytes")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFrame(&buf, 9, []byte("snapshot file")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameReset, nil); err != nil {
		t.Fatal(err)
	}

	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != FrameChunk {
		t.Fatalf("frame 1: type %d err %v", typ, err)
	}
	seq, off, data, err := DecodeChunkPayload(payload)
	if err != nil || seq != 7 || off != 4096 || string(data) != "segment bytes" {
		t.Fatalf("chunk = (%d, %d, %q), err %v", seq, off, data, err)
	}

	typ, payload, err = ReadFrame(&buf)
	if err != nil || typ != FrameSnapshot {
		t.Fatalf("frame 2: type %d err %v", typ, err)
	}
	sseq, sdata, err := DecodeSnapshotPayload(payload)
	if err != nil || sseq != 9 || string(sdata) != "snapshot file" {
		t.Fatalf("snapshot = (%d, %q), err %v", sseq, sdata, err)
	}

	for _, want := range []byte{FrameHeartbeat, FrameReset} {
		typ, payload, err = ReadFrame(&buf)
		if err != nil || typ != want || payload != nil {
			t.Fatalf("frame type %d: got (%d, %v, %v)", want, typ, payload, err)
		}
	}
	if _, _, err = ReadFrame(&buf); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestFrameTornInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChunkFrame(&buf, 1, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every strict prefix must fail typed: io.EOF exactly at a frame
	// boundary (offset 0), io.ErrUnexpectedEOF mid-frame.
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if !errors.Is(err, want) {
			t.Fatalf("prefix of %d bytes: err %v, want %v", cut, err, want)
		}
	}
}

// fuzzAllocCap bounds the payload FuzzReadFrame lets ReadFrame allocate
// for a frame torn before its declared end. Such a frame is
// io.ErrUnexpectedEOF at any length; above the cap it would only make
// each fuzz run allocate up to MaxFramePayload.
const fuzzAllocCap = 1 << 16

// FuzzReadFrame: the shipping stream's frame codec on arbitrary bytes
// never panics and fails only with its typed errors — io.EOF exactly at
// a frame boundary, io.ErrUnexpectedEOF mid-frame, ErrFrameTooLarge —
// and is canonical: a frame that decodes re-encodes to exactly the bytes
// it consumed, and a chunk or snapshot payload that decodes re-encodes
// to exactly its payload.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	WriteChunkFrame(&stream, 7, 4096, []byte("segment bytes"))
	WriteSnapshotFrame(&stream, 9, []byte("snapshot file"))
	WriteFrame(&stream, FrameHeartbeat, nil)
	WriteFrame(&stream, FrameReset, nil)
	whole := stream.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-7]) // torn mid-frame
	f.Add(whole[:3])            // torn header
	f.Add([]byte{})
	f.Add([]byte{FrameChunk, 0xff, 0xff, 0xff, 0xff}) // hostile length
	var neg bytes.Buffer
	WriteChunkFrame(&neg, 1, -1, nil) // negative offset
	f.Add(neg.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkPayload(t, data)
		r := bytes.NewReader(data)
		for {
			at := len(data) - r.Len()
			if rest := data[at:]; len(rest) >= 5 {
				n := int(binary.BigEndian.Uint32(rest[1:5]))
				if n > fuzzAllocCap && n <= MaxFramePayload && n > len(rest)-5 {
					return
				}
			}
			typ, payload, err := ReadFrame(r)
			switch {
			case errors.Is(err, io.EOF):
				if at != len(data) {
					t.Fatalf("io.EOF at offset %d of %d, want io.ErrUnexpectedEOF mid-frame", at, len(data))
				}
				return
			case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, ErrFrameTooLarge):
				return
			case err != nil:
				t.Fatalf("untyped error %v", err)
			}
			var re bytes.Buffer
			if err := WriteFrame(&re, typ, payload); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			if consumed := data[at : len(data)-r.Len()]; !bytes.Equal(re.Bytes(), consumed) {
				t.Fatalf("re-encode mismatch: %x != %x", re.Bytes(), consumed)
			}
			checkPayload(t, payload)
		}
	})
}

// checkPayload decodes payload as a chunk and as a snapshot; each decode
// that succeeds must re-encode to the frame carrying exactly payload.
func checkPayload(t *testing.T, payload []byte) {
	t.Helper()
	var want bytes.Buffer
	if seq, off, data, err := DecodeChunkPayload(payload); err == nil {
		var got bytes.Buffer
		WriteChunkFrame(&got, seq, off, data)
		WriteFrame(&want, FrameChunk, payload)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("chunk (%d, %d) re-encodes to %x, want %x", seq, off, got.Bytes(), want.Bytes())
		}
	}
	want.Reset()
	if seq, data, err := DecodeSnapshotPayload(payload); err == nil {
		var got bytes.Buffer
		WriteSnapshotFrame(&got, seq, data)
		WriteFrame(&want, FrameSnapshot, payload)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("snapshot %d re-encodes to %x, want %x", seq, got.Bytes(), want.Bytes())
		}
	}
}

func TestFrameLengthBound(t *testing.T) {
	if err := WriteFrame(io.Discard, FrameChunk, make([]byte, MaxFramePayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
	// A hostile length prefix must be rejected before allocation.
	hostile := []byte{FrameChunk, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(hostile)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile length: %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodePayloadBounds(t *testing.T) {
	if _, _, _, err := DecodeChunkPayload(make([]byte, chunkHeaderLen-1)); err == nil {
		t.Fatal("short chunk payload accepted")
	}
	if _, _, err := DecodeSnapshotPayload(make([]byte, 7)); err == nil {
		t.Fatal("short snapshot payload accepted")
	}
}
