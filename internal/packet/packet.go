// Package packet defines the packet shared by all runnable authentication
// schemes: a stream packet carrying a payload, the hashes of other packets
// (the dependence edges of the scheme's graph), and — on the signature
// packet or TESLA packets — a signature, MAC and disclosed key.
//
// A packet has two encodings. The "authenticated content" is the
// deterministic fixed-width encoding of (BlockID, Index, KeyIndex, Payload,
// Hashes) that AppendContent writes. Chained-hash schemes store the
// SHA-256 digest of that content in other packets; the block signature and
// the TESLA MAC are computed over it. The digest therefore binds the
// carried hashes transitively: verifying one packet makes the hashes it
// carries trustworthy.
//
// The wire encoding that AppendEncode writes and DecodeInto reads carries
// the same fields plus the authentication ones, with every integer as a
// minimal unsigned varint:
//
//	BlockID | Index | KeyIndex | len(Payload) Payload |
//	len(Hashes) { TargetIndex Digest(32) }* |
//	len(Signature) Signature | len(MAC) MAC |
//	len(DisclosedKey) DisclosedKey | DisclosedKeyIndex
//
// The decoder accepts exactly one wire form per packet: it rejects
// overlong varints, values wider than their field, lengths over the
// limits below (before allocating), and trailing bytes. Receivers hash the
// content encoding, never the wire bytes, so the wire form moves no digest
// or signature.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mcauth/internal/crypto"
)

// Limits guarding the decoder against malformed input.
const (
	maxPayloadSize = 1 << 20 // 1 MiB
	maxHashes      = 1 << 12
	maxBlobSize    = 1 << 10 // signature / MAC / key fields
)

// HashRef is a carried hash: the digest of the packet at TargetIndex within
// the same block. In dependence-graph terms, a packet with index i carrying
// HashRef{j, H(P_j)} realizes the edge P_i -> P_j.
type HashRef struct {
	TargetIndex uint32
	Digest      crypto.Digest
}

// Packet is one wire packet of an authenticated stream block.
type Packet struct {
	BlockID  uint64
	Index    uint32 // 1-based position within the block, in send order
	KeyIndex uint32 // TESLA: interval of the MAC key protecting this packet
	Payload  []byte
	Hashes   []HashRef // sorted by TargetIndex for determinism

	// Signature over ContentBytes, present on the signature packet.
	Signature []byte
	// MAC over ContentBytes under the interval key (TESLA).
	MAC []byte
	// DisclosedKey is the chain key for interval DisclosedKeyIndex
	// (TESLA), self-authenticating against the signed commitment.
	DisclosedKey      []byte
	DisclosedKeyIndex uint32
}

// contentSize is the encoded length of the authenticated portion.
func (p *Packet) contentSize() int {
	return 8 + 4 + 4 + 4 + len(p.Payload) + 4 + len(p.Hashes)*(4+crypto.HashSize)
}

// ContentBytes returns the deterministic encoding of the authenticated
// portion of the packet: everything except the signature, MAC and disclosed
// key (which authenticate the content, or are authenticated separately).
func (p *Packet) ContentBytes() []byte {
	return p.AppendContent(make([]byte, 0, p.contentSize()))
}

// AppendContent appends the authenticated-content encoding to buf (which
// may be nil) and returns the extended slice — the zero-allocation
// counterpart of ContentBytes for verify hot paths that reuse one buffer
// across packets.
func (p *Packet) AppendContent(buf []byte) []byte {
	buf = slices.Grow(buf, p.contentSize())
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], p.BlockID)
	buf = append(buf, scratch[:8]...)
	binary.BigEndian.PutUint32(scratch[:4], p.Index)
	buf = append(buf, scratch[:4]...)
	binary.BigEndian.PutUint32(scratch[:4], p.KeyIndex)
	buf = append(buf, scratch[:4]...)
	binary.BigEndian.PutUint32(scratch[:4], uint32(len(p.Payload)))
	buf = append(buf, scratch[:4]...)
	buf = append(buf, p.Payload...)
	binary.BigEndian.PutUint32(scratch[:4], uint32(len(p.Hashes)))
	buf = append(buf, scratch[:4]...)
	for _, h := range p.Hashes {
		binary.BigEndian.PutUint32(scratch[:4], h.TargetIndex)
		buf = append(buf, scratch[:4]...)
		buf = append(buf, h.Digest[:]...)
	}
	return buf
}

// Digest returns the SHA-256 digest of the authenticated content; this is
// the value other packets carry to realize dependence edges.
func (p *Packet) Digest() crypto.Digest {
	return crypto.HashBytes(p.ContentBytes())
}

// HashFor returns the carried digest for target index, if present.
func (p *Packet) HashFor(target uint32) (crypto.Digest, bool) {
	for _, h := range p.Hashes {
		if h.TargetIndex == target {
			return h.Digest, true
		}
	}
	return crypto.Digest{}, false
}

// OverheadBytes returns the authentication overhead this packet carries,
// counted at its signed-content size: 4 + 32 bytes per hash reference plus
// the signature, MAC and disclosed key. It is the paper's per-packet
// communication overhead and independent of the wire encoding; the bytes
// the packet really costs on the wire beyond its payload are
// EncodedSize() - len(Payload).
func (p *Packet) OverheadBytes() int {
	return len(p.Hashes)*(4+crypto.HashSize) + len(p.Signature) + len(p.MAC) + len(p.DisclosedKey)
}

// uvarintLen is the length of v as a minimal unsigned varint.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// EncodedSize returns the exact wire length AppendEncode produces, each
// integer counted at its minimal varint length. EncodedSize() -
// len(Payload) is what the packet costs on the wire beyond its payload,
// before framing.
func (p *Packet) EncodedSize() int {
	n := uvarintLen(p.BlockID) + uvarintLen(uint64(p.Index)) + uvarintLen(uint64(p.KeyIndex)) +
		uvarintLen(uint64(len(p.Payload))) + len(p.Payload) +
		uvarintLen(uint64(len(p.Hashes))) + len(p.Hashes)*crypto.HashSize
	for _, h := range p.Hashes {
		n += uvarintLen(uint64(h.TargetIndex))
	}
	for _, blob := range [...][]byte{p.Signature, p.MAC, p.DisclosedKey} {
		n += uvarintLen(uint64(len(blob))) + len(blob)
	}
	return n + uvarintLen(uint64(p.DisclosedKeyIndex))
}

// Encode serializes the packet.
func (p *Packet) Encode() ([]byte, error) {
	return p.AppendEncode(make([]byte, 0, p.EncodedSize()))
}

// AppendEncode serializes the packet onto buf (growing it as needed) and
// returns the extended slice, so callers on the wire hot path can reuse
// one buffer across packets instead of allocating per Encode. buf may be
// nil. On error buf is returned unextended.
func (p *Packet) AppendEncode(buf []byte) ([]byte, error) {
	if len(p.Payload) > maxPayloadSize {
		return buf, fmt.Errorf("packet: payload %d exceeds %d bytes", len(p.Payload), maxPayloadSize)
	}
	if len(p.Hashes) > maxHashes {
		return buf, fmt.Errorf("packet: %d hashes exceed %d", len(p.Hashes), maxHashes)
	}
	for _, blob := range [...][]byte{p.Signature, p.MAC, p.DisclosedKey} {
		if len(blob) > maxBlobSize {
			return buf, fmt.Errorf("packet: auth field %d exceeds %d bytes", len(blob), maxBlobSize)
		}
	}
	buf = appendUvarint(buf, p.BlockID)
	buf = appendUvarint(buf, uint64(p.Index))
	buf = appendUvarint(buf, uint64(p.KeyIndex))
	buf = appendBlob(buf, p.Payload)
	buf = appendUvarint(buf, uint64(len(p.Hashes)))
	for _, h := range p.Hashes {
		buf = appendUvarint(buf, uint64(h.TargetIndex))
		buf = append(buf, h.Digest[:]...)
	}
	buf = appendBlob(buf, p.Signature)
	buf = appendBlob(buf, p.MAC)
	buf = appendBlob(buf, p.DisclosedKey)
	return appendUvarint(buf, uint64(p.DisclosedKeyIndex)), nil
}

// appendUvarint is binary.AppendUvarint with the one-byte case, most
// fields of most packets, inlined.
func appendUvarint(buf []byte, v uint64) []byte {
	if v < 0x80 {
		return append(buf, byte(v))
	}
	return binary.AppendUvarint(buf, v)
}

func appendBlob(buf, blob []byte) []byte {
	return append(appendUvarint(buf, uint64(len(blob))), blob...)
}

// Decode errors that carry no value.
var (
	errTruncated  = errors.New("packet: truncated")
	errOverflow   = errors.New("packet: varint overflows 64 bits")
	errNonMinimal = errors.New("packet: varint is not minimal")
)

// decoder reads the wire encoding front to back. The first failure sticks
// in err; later reads return zero values, and DecodeInto checks err before
// it allocates or returns.
type decoder struct {
	buf []byte
	off int
	err error
}

// short is uvarint's fast path, inlined at every call site: a one- or
// two-byte varint no larger than limit, which covers most fields of most
// packets. Every limit admits a one-byte value, and a second byte of 1 to
// 0x7f ends the varint without being the zero an overlong encoding ends
// in. ok is false, and nothing is consumed, otherwise; uvarint then
// decodes the field or reports why it cannot.
func (d *decoder) short(limit uint64) (uint64, bool) {
	b := d.buf[d.off:]
	if len(b) > 0 && b[0] < 0x80 {
		d.off++
		return uint64(b[0]), true
	}
	if len(b) > 1 && b[1]-1 < 0x7f {
		if v := uint64(b[0]&0x7f) | uint64(b[1])<<7; v <= limit {
			d.off += 2
			return v, true
		}
	}
	return 0, false
}

// uvarint reads one minimal unsigned varint no larger than limit. An
// overlong encoding (a zero final byte after the first) is rejected, so
// every value has exactly one wire form.
func (d *decoder) uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n == 0:
		d.fail(errTruncated)
	case n < 0:
		d.fail(errOverflow)
	case n > 1 && d.buf[d.off+n-1] == 0:
		d.fail(errNonMinimal)
	case v > limit:
		d.fail(fmt.Errorf("packet: field value %d exceeds %d", v, limit))
	default:
		d.off += n
		return v
	}
	return 0
}

func (d *decoder) bytes(n uint64) []byte {
	if n > uint64(len(d.buf)-d.off) {
		d.fail(errTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// blobInto decodes a length-prefixed field into dst's capacity, growing
// only when the field outgrows it. The length is checked against limit
// before anything is read or allocated. Empty fields return dst truncated
// to zero length (nil stays nil), so callers must test emptiness with len.
func (d *decoder) blobInto(dst []byte, limit uint64) []byte {
	n, ok := d.short(limit)
	if !ok {
		n = d.uvarint(limit)
	}
	raw := d.bytes(n)
	if d.err != nil {
		return dst
	}
	return append(dst[:0], raw...)
}

// DecodeInto parses wire bytes produced by Encode into p, reusing the
// capacity of p's existing Payload/Hashes/Signature/MAC/DisclosedKey
// slices — the zero-allocation counterpart of Decode for hot loops that
// consume each packet before decoding the next. The caller must not
// retain references into the previous decode. Absent fields come back
// zero-length, and nil only if they were nil in p.
func DecodeInto(p *Packet, wire []byte) error {
	d := &decoder{buf: wire}
	v, ok := d.short(math.MaxUint64)
	if !ok {
		v = d.uvarint(math.MaxUint64)
	}
	p.BlockID = v
	if v, ok = d.short(math.MaxUint32); !ok {
		v = d.uvarint(math.MaxUint32)
	}
	p.Index = uint32(v)
	if v, ok = d.short(math.MaxUint32); !ok {
		v = d.uvarint(math.MaxUint32)
	}
	p.KeyIndex = uint32(v)
	p.Payload = d.blobInto(p.Payload, maxPayloadSize)
	nHashes, ok := d.short(maxHashes)
	if !ok {
		nHashes = d.uvarint(maxHashes)
	}
	if d.err != nil {
		return d.err
	}
	if cap(p.Hashes) >= int(nHashes) {
		p.Hashes = p.Hashes[:nHashes]
	} else {
		p.Hashes = make([]HashRef, nHashes)
	}
	for i := range p.Hashes {
		if v, ok = d.short(math.MaxUint32); !ok {
			v = d.uvarint(math.MaxUint32)
		}
		p.Hashes[i].TargetIndex = uint32(v)
		copy(p.Hashes[i].Digest[:], d.bytes(crypto.HashSize))
	}
	p.Signature = d.blobInto(p.Signature, maxBlobSize)
	p.MAC = d.blobInto(p.MAC, maxBlobSize)
	p.DisclosedKey = d.blobInto(p.DisclosedKey, maxBlobSize)
	if v, ok = d.short(math.MaxUint32); !ok {
		v = d.uvarint(math.MaxUint32)
	}
	p.DisclosedKeyIndex = uint32(v)
	if d.err != nil {
		return d.err
	}
	if d.off != len(wire) {
		return fmt.Errorf("packet: %d trailing bytes", len(wire)-d.off)
	}
	return nil
}

// Decode parses wire bytes produced by Encode into a fresh Packet, whose
// absent fields are nil.
func Decode(wire []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, wire); err != nil {
		return nil, err
	}
	return p, nil
}
