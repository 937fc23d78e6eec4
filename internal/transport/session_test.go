package transport

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mcauth/internal/packet"
)

func TestHelloRoundTrip(t *testing.T) {
	for _, points := range [][]ResumePoint{
		nil,
		{},
		{{StreamID: 1, From: 0}},
		{{StreamID: 7, From: 42}, {StreamID: 1 << 60, From: 1 << 40}, {StreamID: 0, From: 0}},
	} {
		var buf bytes.Buffer
		if err := WriteHello(&buf, points); err != nil {
			t.Fatal(err)
		}
		got, err := ReadHello(&buf)
		if err != nil {
			t.Fatalf("points %v: %v", points, err)
		}
		if len(got) != len(points) {
			t.Fatalf("round-trip %v -> %v", points, got)
		}
		for i := range points {
			if got[i] != points[i] {
				t.Fatalf("point %d: %v != %v", i, got[i], points[i])
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("%d bytes left after ReadHello — it must consume exactly the hello", buf.Len())
		}
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	for name, wire := range map[string][]byte{
		"empty":       {},
		"short":       []byte("MC"),
		"wrong magic": []byte("MCNKxxxxxxx"),
		"bad version": {'M', 'C', 'H', 'I', 99, 0, 0},
		// Count claims one point but no body follows.
		"truncated points": {'M', 'C', 'H', 'I', 1, 0, 1},
		// One point claimed, three of its sixteen bytes sent.
		"partial point": {'M', 'C', 'H', 'I', 1, 0, 1, 0, 0, 0},
	} {
		if _, err := ReadHello(bytes.NewReader(wire)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A mux frame is not a hello: the first 4 bytes are a length prefix.
	var frame bytes.Buffer
	mw := NewMuxFrameWriter(&frame)
	if err := mw.WritePacket(3, &packet.Packet{BlockID: 1, Index: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHello(&frame); err == nil {
		t.Error("mux frame accepted as hello")
	}
}

func TestHelloPointCap(t *testing.T) {
	too := make([]ResumePoint, maxHelloPoints+1)
	if err := WriteHello(&bytes.Buffer{}, too); err == nil {
		t.Fatal("oversized hello accepted on write")
	}
	// Forge an oversized count on the wire; the reader must refuse before
	// allocating the claimed body.
	wire := []byte{'M', 'C', 'H', 'I', 1, 0xFF, 0xFF}
	if _, err := ReadHello(bytes.NewReader(wire)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized count: %v", err)
	}
}

// FuzzHello feeds arbitrary byte streams to the hello parser, the only
// control frame a serving connection reads: it must never panic, any
// malformed hello must error, an attacker-controlled point count must not
// force a large allocation, and every hello it accepts must re-encode to
// exactly the bytes it consumed. It seeds the corpus with a valid hello
// sequence and the corruption shapes that bit the other decoders
// (truncations, torn seams, huge counts, a legacy subscriber's mux frame).
func FuzzHello(f *testing.F) {
	var valid bytes.Buffer
	for _, points := range [][]ResumePoint{{{StreamID: 1, From: 0}, {StreamID: 2, From: 9}}, nil} {
		if err := WriteHello(&valid, points); err != nil {
			f.Fatal(err)
		}
	}
	var frame bytes.Buffer
	if err := NewMuxFrameWriter(&frame).WritePacket(3, &packet.Packet{BlockID: 1, Index: 1, Payload: []byte("x")}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte(helloMagic))
	f.Add(frame.Bytes())
	f.Add([]byte("MCXXjunk"))
	// A hello header claiming the maximum point count with nothing behind
	// it, and one point over the cap.
	maxed := make([]byte, helloHdrSize)
	copy(maxed, helloMagic)
	maxed[4] = helloVersion
	binary.BigEndian.PutUint16(maxed[5:], maxHelloPoints)
	f.Add(maxed)
	over := append([]byte(nil), maxed...)
	binary.BigEndian.PutUint16(over[5:], maxHelloPoints+1)
	f.Add(over)
	// Truncated mid-frame, and a torn seam: a valid stream cut and
	// restarted mid-frame, as an injected partial write produces.
	f.Add(valid.Bytes()[:valid.Len()/2])
	torn := append([]byte{}, valid.Bytes()[:valid.Len()/3]...)
	torn = append(torn, valid.Bytes()...)
	f.Add(torn)

	f.Fuzz(func(t *testing.T, wire []byte) {
		r := bytes.NewReader(wire)
		for i := 0; i < 64; i++ {
			start := len(wire) - r.Len()
			points, err := ReadHello(r)
			if err != nil {
				return // any error ends the stream; it must just not panic
			}
			if len(points) > maxHelloPoints {
				t.Fatalf("hello with %d points exceeds the parse bound", len(points))
			}
			var again bytes.Buffer
			if err := WriteHello(&again, points); err != nil {
				t.Fatalf("parsed hello does not re-encode: %v", err)
			}
			if consumed := wire[start : len(wire)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("hello re-encodes to %x, consumed %x", again.Bytes(), consumed)
			}
		}
	})
}

func TestRepairStoreAddAndSince(t *testing.T) {
	rs, err := NewRepairStore(3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(blockID uint64, idx uint32, sig bool) *packet.Packet {
		p := &packet.Packet{BlockID: blockID, Index: idx, Payload: []byte{byte(idx)}}
		if sig {
			p.Signature = []byte("s")
		}
		return p
	}
	// Two-phase fill, as the serving tier does: data at emit, the
	// signature packet later, once the batch root is signed.
	for id := uint64(0); id < 4; id++ {
		rs.Add(id, []*packet.Packet{mk(id, 1, false), mk(id, 2, false)})
		rs.Add(id, []*packet.Packet{mk(id, 3, true)})
	}
	// Capacity 3: block 0 must be evicted, 1-3 retained whole.
	if got := len(rs.blocks); got != 3 {
		t.Fatalf("retained %d blocks, want 3", got)
	}
	if got := rs.Since(0); len(got) != 9 {
		t.Fatalf("Since(0) returned %d packets, want 9 (3 blocks x 3)", len(got))
	}
	got := rs.Since(3)
	if len(got) != 3 {
		t.Fatalf("Since(3) returned %d packets, want 3", len(got))
	}
	for _, p := range got {
		if p.BlockID != 3 {
			t.Fatalf("Since(3) leaked block %d", p.BlockID)
		}
	}
	if got := rs.Since(4); len(got) != 0 {
		t.Fatalf("Since(4) returned %d packets, want 0", len(got))
	}
	// The second phase's signature packet joins its block.
	if !rs.Has(2, 3) {
		t.Fatal("signature packet added in the second phase is not retained")
	}
}
