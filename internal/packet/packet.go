// Package packet defines the wire format shared by all runnable
// authentication schemes: a stream packet carrying a payload, the hashes of
// other packets (the dependence edges of the scheme's graph), and — on the
// signature packet or TESLA packets — a signature, MAC and disclosed key.
//
// The "authenticated content" of a packet is the deterministic encoding of
// (BlockID, Index, KeyIndex, Payload, Hashes). Chained-hash schemes store
// the SHA-256 digest of that content in other packets; the block signature
// and the TESLA MAC are computed over it. The digest therefore binds the
// carried hashes transitively: verifying one packet makes the hashes it
// carries trustworthy.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// OverheadBytes returns the authentication overhead this packet carries on
// the wire: everything except the payload and fixed header.
func (p *Packet) OverheadBytes() int {
	return len(p.Hashes)*(4+crypto.HashSize) + len(p.Signature) + len(p.MAC) + len(p.DisclosedKey)
}

// EncodedSize returns the exact wire length Encode produces.
func (p *Packet) EncodedSize() int {
	return p.contentSize() + 3*4 + len(p.Signature) + len(p.MAC) + len(p.DisclosedKey) + 4
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
	for _, blob := range [][]byte{p.Signature, p.MAC, p.DisclosedKey} {
		if len(blob) > maxBlobSize {
			return buf, fmt.Errorf("packet: auth field %d exceeds %d bytes", len(blob), maxBlobSize)
		}
	}
	buf = p.AppendContent(buf)
	buf = appendBlob(buf, p.Signature)
	buf = appendBlob(buf, p.MAC)
	buf = appendBlob(buf, p.DisclosedKey)
	var scratch [4]byte
	binary.BigEndian.PutUint32(scratch[:], p.DisclosedKeyIndex)
	buf = append(buf, scratch[:]...)
	return buf, nil
}

func appendBlob(buf, blob []byte) []byte {
	var scratch [4]byte
	binary.BigEndian.PutUint32(scratch[:], uint32(len(blob)))
	buf = append(buf, scratch[:]...)
	return append(buf, blob...)
}

// errTruncated indicates the wire bytes end before the structure is
// complete.
var errTruncated = errors.New("packet: truncated")

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.buf) {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, errTruncated
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// blobInto decodes a length-prefixed field into dst's capacity, growing
// only when the field outgrows it. Empty fields return dst truncated to
// zero length (nil stays nil), so callers must test emptiness with len.
func (d *decoder) blobInto(dst []byte, limit int) ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return dst, err
	}
	if int(n) > limit {
		return dst, fmt.Errorf("packet: field length %d exceeds limit %d", n, limit)
	}
	raw, err := d.bytes(int(n))
	if err != nil {
		return dst, err
	}
	return append(dst[:0], raw...), nil
}

// DecodeInto parses wire bytes produced by Encode into p, reusing the
// capacity of p's existing Payload/Hashes/Signature/MAC/DisclosedKey
// slices — the zero-allocation counterpart of Decode for hot loops that
// consume each packet before decoding the next. The caller must not
// retain references into the previous decode. Absent fields come back
// zero-length, and nil only if they were nil in p.
func DecodeInto(p *Packet, wire []byte) error {
	d := &decoder{buf: wire}
	var err error
	if p.BlockID, err = d.u64(); err != nil {
		return err
	}
	if p.Index, err = d.u32(); err != nil {
		return err
	}
	if p.KeyIndex, err = d.u32(); err != nil {
		return err
	}
	if p.Payload, err = d.blobInto(p.Payload, maxPayloadSize); err != nil {
		return err
	}
	nHashes, err := d.u32()
	if err != nil {
		return err
	}
	if nHashes > maxHashes {
		return fmt.Errorf("packet: %d hashes exceed %d", nHashes, maxHashes)
	}
	if cap(p.Hashes) >= int(nHashes) {
		p.Hashes = p.Hashes[:nHashes]
	} else {
		p.Hashes = make([]HashRef, nHashes)
	}
	for i := range p.Hashes {
		if p.Hashes[i].TargetIndex, err = d.u32(); err != nil {
			return err
		}
		raw, err := d.bytes(crypto.HashSize)
		if err != nil {
			return err
		}
		copy(p.Hashes[i].Digest[:], raw)
	}
	if p.Signature, err = d.blobInto(p.Signature, maxBlobSize); err != nil {
		return err
	}
	if p.MAC, err = d.blobInto(p.MAC, maxBlobSize); err != nil {
		return err
	}
	if p.DisclosedKey, err = d.blobInto(p.DisclosedKey, maxBlobSize); err != nil {
		return err
	}
	if p.DisclosedKeyIndex, err = d.u32(); err != nil {
		return err
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
