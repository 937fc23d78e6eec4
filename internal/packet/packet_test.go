package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"mcauth/internal/crypto"
)

func samplePacket() *Packet {
	return &Packet{
		BlockID:  7,
		Index:    3,
		KeyIndex: 2,
		Payload:  []byte("quote: ACME 132.5"),
		Hashes: []HashRef{
			{TargetIndex: 1, Digest: crypto.HashBytes([]byte("a"))},
			{TargetIndex: 2, Digest: crypto.HashBytes([]byte("b"))},
		},
		Signature:         []byte("sig-bytes"),
		MAC:               []byte("mac-bytes"),
		DisclosedKey:      []byte("key-bytes"),
		DisclosedKeyIndex: 9,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestEncodeDecodeMinimalPacket(t *testing.T) {
	p := &Packet{BlockID: 1, Index: 1}
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestDigestCoversContent(t *testing.T) {
	p := samplePacket()
	d1 := p.Digest()
	p2 := samplePacket()
	p2.Payload[0] ^= 1
	if d1 == p2.Digest() {
		t.Error("payload change did not change digest")
	}
	p3 := samplePacket()
	p3.Hashes[0].Digest[0] ^= 1
	if d1 == p3.Digest() {
		t.Error("carried-hash change did not change digest")
	}
	p4 := samplePacket()
	p4.Index = 4
	if d1 == p4.Digest() {
		t.Error("index change did not change digest")
	}
	p5 := samplePacket()
	p5.KeyIndex = 5
	if d1 == p5.Digest() {
		t.Error("key index change did not change digest")
	}
}

func TestDigestExcludesAuthFields(t *testing.T) {
	// The signature/MAC/key authenticate the content; they must not be
	// part of it (otherwise signing would be circular).
	p := samplePacket()
	d1 := p.Digest()
	p.Signature = []byte("other")
	p.MAC = nil
	p.DisclosedKey = []byte("x")
	p.DisclosedKeyIndex = 1
	if d1 != p.Digest() {
		t.Error("digest depends on authentication fields")
	}
}

func TestHashFor(t *testing.T) {
	p := samplePacket()
	if _, ok := p.HashFor(1); !ok {
		t.Error("HashFor(1) missing")
	}
	if _, ok := p.HashFor(99); ok {
		t.Error("HashFor(99) should be absent")
	}
}

func TestOverheadBytes(t *testing.T) {
	p := samplePacket()
	want := 2*(4+crypto.HashSize) + len("sig-bytes") + len("mac-bytes") + len("key-bytes")
	if got := p.OverheadBytes(); got != want {
		t.Errorf("OverheadBytes = %d, want %d", got, want)
	}
}

func TestEncodeLimits(t *testing.T) {
	p := &Packet{Index: 1, Payload: make([]byte, maxPayloadSize+1)}
	if _, err := p.Encode(); err == nil {
		t.Error("oversized payload should fail")
	}
	p = &Packet{Index: 1, Hashes: make([]HashRef, maxHashes+1)}
	if _, err := p.Encode(); err == nil {
		t.Error("too many hashes should fail")
	}
	p = &Packet{Index: 1, Signature: make([]byte, maxBlobSize+1)}
	if _, err := p.Encode(); err == nil {
		t.Error("oversized signature should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := samplePacket()
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(wire); cut += 7 {
		if _, err := Decode(wire[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix should fail", cut)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	p := samplePacket()
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(wire, 0x00)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestDecodeHugeLengthRejected(t *testing.T) {
	// A length field claiming more than the limit must be rejected
	// before allocation.
	wire := []byte{0, 0, 0} // BlockID, Index, KeyIndex
	wire = binary.AppendUvarint(wire, 0xffffffff)
	if _, err := Decode(wire); err == nil {
		t.Error("huge payload length should fail")
	}
}

// TestDecodeRejectsNonCanonical: every packet has exactly one wire form,
// so overlong varints, values wider than their field and lengths over the
// limits are rejected, each at a position where the rest of the wire is
// well formed.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	valid, err := (&Packet{BlockID: 1, Index: 1}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("baseline packet rejected: %v", err)
	}
	// wire is BlockID=1, Index, KeyIndex=0, payload length, then the
	// minimal packet's tail: no hashes, three empty blobs, key index 0.
	wire := func(index, payloadLen []byte) []byte {
		w := append([]byte{1}, index...)
		w = append(w, 0)
		w = append(w, payloadLen...)
		return append(w, 0, 0, 0, 0, 0)
	}
	cases := []struct {
		name string
		wire []byte
	}{
		{"overlong zero block ID", append([]byte{0x80, 0x00}, valid[1:]...)},
		{"overlong index", wire([]byte{0x81, 0x00}, []byte{0})},
		{"index of 2^32", wire(binary.AppendUvarint(nil, 1<<32), []byte{0})},
		{"block ID over 64 bits", append(bytes.Repeat([]byte{0xff}, 10), valid[1:]...)},
		{"payload one over the limit", wire([]byte{1}, binary.AppendUvarint(nil, maxPayloadSize+1))},
		{"hash count one over the limit", append([]byte{1, 1, 0, 0}, binary.AppendUvarint(nil, maxHashes+1)...)},
	}
	for _, c := range cases {
		_, err := Decode(c.wire)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if errors.Is(err, errTruncated) {
			t.Errorf("%s: rejected only as truncated, not for its field", c.name)
		}
	}
}

func TestContentBytesDeterministic(t *testing.T) {
	p := samplePacket()
	if !bytes.Equal(p.ContentBytes(), p.ContentBytes()) {
		t.Error("ContentBytes not deterministic")
	}
}

// Property: encode/decode round-trips arbitrary packets.
func TestRoundTripProperty(t *testing.T) {
	f := func(blockID uint64, index, keyIdx uint32, payload []byte, nHashes uint8, sig, mac, key []byte) bool {
		if len(payload) > maxPayloadSize {
			payload = payload[:maxPayloadSize]
		}
		trim := func(b []byte) []byte {
			if len(b) > maxBlobSize {
				return b[:maxBlobSize]
			}
			if len(b) == 0 {
				return nil
			}
			return b
		}
		p := &Packet{
			BlockID:      blockID,
			Index:        index,
			KeyIndex:     keyIdx,
			Payload:      payload,
			Signature:    trim(sig),
			MAC:          trim(mac),
			DisclosedKey: trim(key),
		}
		if len(p.Payload) == 0 {
			p.Payload = nil
		}
		for i := uint8(0); i < nHashes%8; i++ {
			p.Hashes = append(p.Hashes, HashRef{
				TargetIndex: uint32(i),
				Digest:      crypto.HashBytes([]byte{i}),
			})
		}
		wire, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: distinct content always yields distinct digests (collision
// resistance smoke test via structured inputs).
func TestDigestDistinguishesIndices(t *testing.T) {
	seen := make(map[crypto.Digest]bool)
	for i := uint32(1); i <= 100; i++ {
		p := &Packet{BlockID: 1, Index: i, Payload: []byte("same")}
		d := p.Digest()
		if seen[d] {
			t.Fatalf("digest collision at index %d", i)
		}
		seen[d] = true
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	pkts := []*Packet{samplePacket(), {BlockID: 1, Index: 1}}
	for _, p := range pkts {
		want, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got := p.EncodedSize(); got != len(want) {
			t.Errorf("EncodedSize %d, encoded length %d", got, len(want))
		}
		// Nil buffer.
		got, err := p.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("AppendEncode(nil) differs from Encode")
		}
		// Appending after an existing prefix preserves it.
		prefix := []byte("prefix")
		got, err = p.AppendEncode(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Error("AppendEncode did not append after the existing prefix")
		}
	}
}

func TestAppendEncodeErrorLeavesBufUnextended(t *testing.T) {
	p := samplePacket()
	p.Signature = make([]byte, maxBlobSize+1)
	buf := []byte("prefix")
	got, err := p.AppendEncode(buf)
	if err == nil {
		t.Fatal("oversize signature should fail")
	}
	if !bytes.Equal(got, buf) {
		t.Errorf("buf extended on error: %q", got)
	}
}
