package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"mcauth/internal/crypto"
	"mcauth/internal/packet"
)

// appendFrame appends p to dst as a bare length-prefixed frame, the layer
// under the mux framing's stream ID: [uvarint length][packet encoding].
func appendFrame(dst []byte, p *packet.Packet) ([]byte, error) {
	return p.AppendEncode(binary.AppendUvarint(dst, uint64(p.EncodedSize())))
}

// FuzzFrameReader feeds arbitrary byte streams to the length-prefixed
// frame reader the mux framing is built on: it must never panic, must
// return an error (or io.EOF) for malformed input, and — because the
// length prefix is attacker-controlled — must not allocate the full
// claimed frame size before the bytes actually arrive.
func FuzzFrameReader(f *testing.F) {
	// Seed with a valid framed stream and interesting corruptions of it.
	var valid []byte
	seedPkts := []*packet.Packet{
		{BlockID: 1, Index: 1, Payload: []byte("hello")},
		{
			BlockID: 1, Index: 2, Payload: []byte("world"),
			Hashes:    []packet.HashRef{{TargetIndex: 3, Digest: crypto.HashBytes([]byte("x"))}},
			Signature: []byte("sig"),
		},
	}
	for _, p := range seedPkts {
		var err error
		if valid, err = appendFrame(valid, p); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// A header claiming 2 MiB with no bytes behind it.
	f.Add(binary.AppendUvarint(nil, maxFrameSize))
	// A header claiming more than the cap.
	f.Add(binary.AppendUvarint(nil, maxFrameSize+1))
	// Truncated mid-frame.
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := newFrameReader(bytes.NewReader(stream))
		var reframed []byte
		for i := 0; i < 64; i++ {
			size, hdrLen, err := fr.readLength()
			if err != nil {
				return // any error ends the stream; it must just not panic
			}
			p, err := fr.readBody(size, hdrLen+size)
			if err != nil {
				return
			}
			if p == nil {
				t.Fatal("nil packet with nil error")
			}
			// An accepted frame re-frames to the bytes it was read from:
			// the frames read so far, re-framed, are a prefix of the input.
			if reframed, err = appendFrame(reframed, p); err != nil {
				t.Fatalf("decoded packet does not re-frame: %v", err)
			}
			if !bytes.HasPrefix(stream, reframed) {
				t.Fatalf("frame %d re-frames to different bytes", i)
			}
		}
	})
}

// TestFrameReaderLyingPrefixStopsEarly pins the allocation cap: a header
// claiming a huge frame backed by a short stream must error out after at
// most one chunk, not try to fill 2 MiB.
func TestFrameReaderLyingPrefixStopsEarly(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binary.AppendUvarint(nil, maxFrameSize))
	buf.Write([]byte("only a few bytes"))
	if _, _, err := NewMuxFrameReader(&buf).ReadPacket(); err == nil {
		t.Fatal("truncated frame should error")
	}
}

// TestFrameReaderLargeFrameStillWorks: the chunked read path must remain
// correct for frames bigger than one chunk.
func TestFrameReaderLargeFrameStillWorks(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), (frameAllocChunk/8)+100)
	p := &packet.Packet{BlockID: 9, Index: 1, Payload: payload}
	var buf bytes.Buffer
	if err := NewMuxFrameWriter(&buf).WritePacket(5, p); err != nil {
		t.Fatal(err)
	}
	mr := NewMuxFrameReader(&buf)
	id, got, err := mr.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 || !bytes.Equal(got.Payload, payload) {
		t.Fatal("multi-chunk frame corrupted")
	}
	if _, _, err := mr.ReadPacket(); err != io.EOF {
		t.Fatalf("want EOF after the only frame, got %v", err)
	}
}

// FuzzMuxFrameReader is FuzzFrameReader for the whole stream-tagged framing
// the serving tier emits: arbitrary byte streams must never panic the reader,
// malformed frames must error, and an attacker-controlled length prefix
// must not force a large allocation up front.
func FuzzMuxFrameReader(f *testing.F) {
	var valid bytes.Buffer
	mw := NewMuxFrameWriter(&valid)
	seedPkts := []*packet.Packet{
		{BlockID: 1, Index: 1, Payload: []byte("hello")},
		{
			BlockID: 1, Index: 2, Payload: []byte("world"),
			Hashes:    []packet.HashRef{{TargetIndex: 3, Digest: crypto.HashBytes([]byte("x"))}},
			Signature: []byte("sig"),
		},
	}
	for i, p := range seedPkts {
		if err := mw.WritePacket(uint64(i+1)<<32, p); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// A zero-length frame, too short for any stream ID.
	f.Add([]byte{0})
	// A header claiming the cap with no bytes behind it, and one over it.
	f.Add(binary.AppendUvarint(nil, maxFrameSize))
	f.Add(binary.AppendUvarint(nil, maxFrameSize+1))
	// Truncated mid-frame, and a torn-write seam: a valid stream cut and
	// restarted mid-frame, as an injected partial write produces.
	f.Add(valid.Bytes()[:valid.Len()/2])
	torn := append([]byte{}, valid.Bytes()[:valid.Len()/3]...)
	torn = append(torn, valid.Bytes()...)
	f.Add(torn)
	// A length of 1 in front of a 2-byte stream-ID varint.
	f.Add([]byte{1, 0x80, 0x01, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, stream []byte) {
		mr := NewMuxFrameReader(bytes.NewReader(stream))
		var reframed bytes.Buffer
		mw := NewMuxFrameWriter(&reframed)
		for i := 0; i < 64; i++ {
			id, p, err := mr.ReadPacket()
			if err != nil {
				return // any error ends the stream; it must just not panic
			}
			if p == nil {
				t.Fatalf("nil packet with nil error (stream %d)", id)
			}
			// An accepted frame re-frames to the bytes it was read from.
			if err := mw.WritePacket(id, p); err != nil {
				t.Fatalf("decoded packet does not re-frame: %v", err)
			}
			if !bytes.HasPrefix(stream, reframed.Bytes()) {
				t.Fatalf("frame %d re-frames to different bytes", i)
			}
		}
	})
}
