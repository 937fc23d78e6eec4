package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

func muxPacket(id uint32, payload string) *packet.Packet {
	return &packet.Packet{BlockID: 7, Index: id, Payload: []byte(payload)}
}

func TestMuxFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	mw := NewMuxFrameWriter(&buf)
	mw.SetMetrics(reg)
	type sent struct {
		stream uint64
		p      *packet.Packet
	}
	frames := []sent{
		{1, muxPacket(1, "alpha")},
		{1 << 62, muxPacket(2, "beta")},
		{0, muxPacket(3, "")},
	}
	for _, f := range frames {
		if err := mw.WritePacket(f.stream, f.p); err != nil {
			t.Fatal(err)
		}
	}
	mr := NewMuxFrameReader(&buf)
	mr.SetMetrics(reg)
	for i, f := range frames {
		id, p, err := mr.ReadPacket()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != f.stream {
			t.Errorf("frame %d: stream %d, want %d", i, id, f.stream)
		}
		if p.Index != f.p.Index || !bytes.Equal(p.Payload, f.p.Payload) {
			t.Errorf("frame %d: packet mismatch", i)
		}
	}
	if _, _, err := mr.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Fatalf("tail read = %v, want io.EOF", err)
	}
	if reg.Counter("transport.frames_written").Value() != 3 ||
		reg.Counter("transport.frames_read").Value() != 3 {
		t.Error("frame counters wrong")
	}
	if reg.Counter("transport.bytes_written").Value() != reg.Counter("transport.bytes_read").Value() {
		t.Error("byte accounting asymmetric")
	}
}

// minimalPacket is the wire encoding of Packet{BlockID: 1, Index: 1}, and
// minimalFrame frames it under stream 9.
var (
	minimalPacket = []byte{1, 1, 0, 0, 0, 0, 0, 0, 0}
	minimalFrame  = append([]byte{10, 9}, minimalPacket...)
)

func TestMuxFrameReaderRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		// A length of 1 in front of a 2-byte stream-ID varint.
		{"undersized frame", append([]byte{1, 0x80, 0x01}, "xxxx"...)},
		{"oversized frame claim", binary.AppendUvarint(nil, maxFrameSize+1)},
		{"truncated frame", append([]byte{100, 9}, "short"...)},
		// Valid framing around a garbage packet encoding.
		{"undecodable packet", append([]byte{4, 9}, "zzz"...)},
		// minimalFrame with its length, then its stream ID, spelled as
		// overlong varints.
		{"overlong length", append([]byte{0x8a, 0x00, 9}, minimalPacket...)},
		{"overlong stream ID", append([]byte{11, 0x89, 0x00}, minimalPacket...)},
	}
	if _, _, err := NewMuxFrameReader(bytes.NewReader(minimalFrame)).ReadPacket(); err != nil {
		t.Fatalf("baseline frame rejected: %v", err)
	}
	for _, c := range cases {
		if _, _, err := NewMuxFrameReader(bytes.NewReader(c.frame)).ReadPacket(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestMuxWriterRefusesOversizedPacket(t *testing.T) {
	mw := NewMuxFrameWriter(io.Discard)
	big := &packet.Packet{BlockID: 1, Index: 1, Payload: bytes.Repeat([]byte("x"), maxFrameSize)}
	if err := mw.WritePacket(1, big); err == nil {
		t.Error("oversized packet accepted")
	}
}
