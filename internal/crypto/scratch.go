package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"time"
)

// sha256BlockSize is the HMAC block size for SHA-256 (RFC 2104 B).
const sha256BlockSize = 64

// MACScratch computes HMAC-SHA256 without the per-call allocations of
// hmac.New: the ipad/opad staging area is a single flat buffer reused
// across calls, and the digest is produced by direct sha256.Sum256 calls
// (which the compiler keeps on the stack). MAC is a MACScratch used once.
// A MACScratch is not safe for concurrent use; hot paths hold one per
// goroutine (typically one per verifier, and one per block a sender
// builds).
type MACScratch struct {
	buf []byte
}

// Sum computes HMAC-SHA256(key, data). It allocates only when the
// internal buffer must grow to fit data, so steady-state calls with
// bounded data sizes are allocation-free.
func (s *MACScratch) Sum(key, data []byte) [MACSize]byte {
	var start time.Time
	in := instr.Load()
	if in != nil {
		start = time.Now()
	}
	// K0 per RFC 2104: keys longer than the block size are hashed down,
	// shorter keys zero-padded.
	var k0 [sha256BlockSize]byte
	if len(key) > sha256BlockSize {
		kd := sha256.Sum256(key)
		copy(k0[:], kd[:])
	} else {
		copy(k0[:], key)
	}
	need := sha256BlockSize + len(data)
	if cap(s.buf) < need {
		s.buf = make([]byte, 0, need)
	}
	buf := s.buf[:sha256BlockSize]
	for i := range k0 {
		buf[i] = k0[i] ^ 0x36
	}
	buf = append(buf, data...)
	inner := sha256.Sum256(buf)
	buf = buf[:sha256BlockSize]
	for i := range k0 {
		buf[i] = k0[i] ^ 0x5c
	}
	buf = append(buf, inner[:]...)
	out := sha256.Sum256(buf[:sha256BlockSize+sha256.Size])
	s.buf = buf[:0]
	if in != nil {
		in.record(in.macOps, in.macNS, start)
	}
	return out
}

// Verify reports whether mac is a valid HMAC-SHA256 of data under key, in
// constant time, without allocating.
func (s *MACScratch) Verify(key, data, mac []byte) bool {
	sum := s.Sum(key, data)
	return hmac.Equal(sum[:], mac)
}

// HashScratch hashes a concatenation of parts with a single flat buffer
// and one direct sha256.Sum256 call, avoiding the hash.Hash interface
// allocations. Not safe for concurrent use.
type HashScratch struct {
	buf []byte
}

// Reset discards any accumulated bytes but keeps the buffer capacity.
func (s *HashScratch) Reset() { s.buf = s.buf[:0] }

// Write appends p to the pending concatenation.
func (s *HashScratch) Write(p []byte) { s.buf = append(s.buf, p...) }

// Sum hashes the accumulated concatenation and resets the scratch for the
// next use.
func (s *HashScratch) Sum() Digest {
	var start time.Time
	in := instr.Load()
	if in != nil {
		start = time.Now()
	}
	d := sha256.Sum256(s.buf)
	s.buf = s.buf[:0]
	if in != nil {
		in.record(in.hashOps, in.hashNS, start)
	}
	return d
}
