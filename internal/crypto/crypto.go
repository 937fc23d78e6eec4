// Package crypto wraps the cryptographic primitives used by the multicast
// authentication schemes: a collision-resistant hash (SHA-256), a MAC
// (HMAC-SHA256), a digital signature (Ed25519), and the one-way key chain
// that TESLA commits to in its bootstrap packet.
//
// The paper's analysis depends on the primitives only through their output
// sizes (l_hash and l_sign in Equation (3)); the sizes here are those of the
// concrete algorithms, while the analytic overhead formulas accept arbitrary
// sizes so that the paper-era values (16-byte MD5 hashes, 128-byte RSA
// signatures) can also be reproduced.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"
)

// Sizes of the concrete primitives, in bytes.
const (
	HashSize      = sha256.Size
	macSize       = sha256.Size
	signatureSize = ed25519.SignatureSize
	KeySize       = 16 // symmetric MAC key size used by TESLA key chains
)

// Digest is a SHA-256 hash value.
type Digest [HashSize]byte

// HashBytes hashes data with SHA-256.
func HashBytes(data []byte) Digest {
	if in := instr.Load(); in != nil {
		start := time.Now()
		d := sha256.Sum256(data)
		in.record(in.hashOps, in.hashNS, start)
		return d
	}
	return sha256.Sum256(data)
}

// HashConcat hashes the concatenation of the given byte slices. It is used
// to bind a packet's payload together with the hashes it carries, which is
// the "hash concatenation" linking step of chained-hash schemes.
func HashConcat(parts ...[]byte) Digest {
	var start time.Time
	in := instr.Load()
	if in != nil {
		start = time.Now()
	}
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	if in != nil {
		in.record(in.hashOps, in.hashNS, start)
	}
	return d
}

// MAC computes HMAC-SHA256 of data under key.
func MAC(key, data []byte) []byte {
	var start time.Time
	in := instr.Load()
	if in != nil {
		start = time.Now()
	}
	m := hmac.New(sha256.New, key)
	m.Write(data)
	sum := m.Sum(nil)
	if in != nil {
		in.record(in.macOps, in.macNS, start)
	}
	return sum
}

// verifyMAC reports whether mac is a valid HMAC-SHA256 of data under key,
// in constant time.
func verifyMAC(key, data, mac []byte) bool {
	return hmac.Equal(MAC(key, data), mac)
}

// Signer produces digital signatures. The sender holds a Signer; receivers
// hold the corresponding Verifier.
type Signer interface {
	// Sign signs data and returns the signature bytes.
	Sign(data []byte) []byte
	// Public returns the verification key corresponding to this signer.
	Public() Verifier
}

// Verifier checks digital signatures.
type Verifier interface {
	// Verify reports whether sig is a valid signature of data. It must be
	// safe for concurrent use: a BatchVerifyQueue pass runs its distinct
	// checks in parallel, and simulated receivers share one key.
	Verify(data, sig []byte) bool
	// Bytes returns a serializable encoding of the public key.
	Bytes() []byte
}

type ed25519Signer struct {
	priv ed25519.PrivateKey
}

type ed25519Verifier struct {
	pub ed25519.PublicKey
}

var (
	_ Signer   = (*ed25519Signer)(nil)
	_ Verifier = (*ed25519Verifier)(nil)
)

// NewSigner deterministically derives an Ed25519 signer from a 32-byte seed.
// Deterministic derivation keeps simulations reproducible; production users
// would pass a seed from crypto/rand.
func NewSigner(seed []byte) (Signer, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("crypto: signer seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	return &ed25519Signer{priv: ed25519.NewKeyFromSeed(seed)}, nil
}

// NewSignerFromString derives a signer from an arbitrary-length string by
// hashing it down to a seed. Convenient for examples and tests.
func NewSignerFromString(s string) Signer {
	seed := sha256.Sum256([]byte(s))
	signer, err := NewSigner(seed[:])
	if err != nil {
		// Unreachable: the seed is always SeedSize bytes.
		panic(err)
	}
	return signer
}

func (s *ed25519Signer) Sign(data []byte) []byte {
	if in := instr.Load(); in != nil {
		start := time.Now()
		sig := ed25519.Sign(s.priv, data)
		in.record(in.signOps, in.signNS, start)
		return sig
	}
	return ed25519.Sign(s.priv, data)
}

func (s *ed25519Signer) Public() Verifier {
	pub, ok := s.priv.Public().(ed25519.PublicKey)
	if !ok {
		panic("crypto: ed25519 private key with non-ed25519 public key")
	}
	return &ed25519Verifier{pub: pub}
}

// Verify is safe for concurrent use: the key is never written after
// construction, ed25519.Verify keeps no state, and the instruments are
// atomic counters.
func (v *ed25519Verifier) Verify(data, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize {
		return false
	}
	if in := instr.Load(); in != nil {
		start := time.Now()
		ok := ed25519.Verify(v.pub, data, sig)
		in.record(in.verifyOps, in.verifyNS, start)
		return ok
	}
	return ed25519.Verify(v.pub, data, sig)
}

func (v *ed25519Verifier) Bytes() []byte {
	out := make([]byte, len(v.pub))
	copy(out, v.pub)
	return out
}

// parseVerifier reconstructs a Verifier from bytes produced by
// Verifier.Bytes.
func parseVerifier(b []byte) (Verifier, error) {
	if len(b) != ed25519.PublicKeySize {
		return nil, errors.New("crypto: malformed public key")
	}
	pub := make(ed25519.PublicKey, len(b))
	copy(pub, b)
	return &ed25519Verifier{pub: pub}, nil
}
