package packet

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"mcauth/internal/crypto"
)

// FuzzDecode exercises the wire decoder with adversarial bytes: it must
// never panic, any successfully decoded packet must re-encode to the very
// bytes it was decoded from (one wire form per packet) with EncodedSize
// equal to their length, and decoding into a dirty, previously used
// Packet must yield the same fields as decoding into a fresh one (no
// residue of the previous decode survives).
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings of representative packets.
	seeds := []*Packet{
		{BlockID: 1, Index: 1},
		{BlockID: 7, Index: 3, Payload: []byte("payload")},
		{
			BlockID: 2, Index: 9, KeyIndex: 4,
			Payload:           []byte("p"),
			Hashes:            []HashRef{{TargetIndex: 2, Digest: crypto.HashBytes([]byte("x"))}},
			Signature:         []byte("sig"),
			MAC:               []byte("mac"),
			DisclosedKey:      []byte("key"),
			DisclosedKeyIndex: 3,
		},
	}
	for _, p := range seeds {
		wire, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// An overlong zero, an Index of 2^32, and a payload length one over
	// the limit, each in an otherwise well-formed packet.
	f.Add([]byte{0x80, 0x00, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append(append([]byte{1}, binary.AppendUvarint(nil, 1<<32)...), 0, 0, 0, 0, 0, 0, 0))
	f.Add(append(binary.AppendUvarint([]byte{1, 1, 0}, maxPayloadSize+1), 0, 0, 0, 0, 0))

	// dirty is reused across inputs, so it arrives holding whatever the
	// previous accepted (or half-parsed rejected) input left in it.
	dirty := &Packet{
		BlockID: 99, Index: 99, KeyIndex: 99, DisclosedKeyIndex: 99,
		Payload:      []byte("stale payload"),
		Hashes:       []HashRef{{TargetIndex: 9, Digest: crypto.HashBytes([]byte("stale"))}, {TargetIndex: 8}},
		Signature:    []byte("stale signature"),
		MAC:          []byte("stale mac"),
		DisclosedKey: []byte("stale key"),
	}

	f.Fuzz(func(t *testing.T, wire []byte) {
		p, err := Decode(wire)
		intoErr := DecodeInto(dirty, wire)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("Decode error %v, DecodeInto error %v", err, intoErr)
		}
		if err != nil {
			return // malformed input must simply be rejected
		}
		if !sameFields(p, dirty) {
			t.Fatalf("DecodeInto a used packet = %+v\nDecode = %+v", dirty, p)
		}
		reWire, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		if !bytes.Equal(reWire, wire) {
			t.Fatalf("accepted wire %x re-encodes as %x", wire, reWire)
		}
		if p.EncodedSize() != len(wire) {
			t.Fatalf("EncodedSize %d, wire length %d", p.EncodedSize(), len(wire))
		}
	})
}

// sameFields compares two packets field for field, treating nil and empty
// slices alike (DecodeInto keeps capacity where Decode leaves nil).
func sameFields(a, b *Packet) bool {
	return a.BlockID == b.BlockID && a.Index == b.Index && a.KeyIndex == b.KeyIndex &&
		a.DisclosedKeyIndex == b.DisclosedKeyIndex &&
		bytes.Equal(a.Payload, b.Payload) && bytes.Equal(a.Signature, b.Signature) &&
		bytes.Equal(a.MAC, b.MAC) && bytes.Equal(a.DisclosedKey, b.DisclosedKey) &&
		slices.Equal(a.Hashes, b.Hashes)
}
