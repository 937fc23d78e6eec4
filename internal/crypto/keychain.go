package crypto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// KeyChain is the TESLA one-way key chain: keys K_n, K_{n-1}, ..., K_0 where
// K_{i-1} = F(K_i) for a pseudo-random function F. The sender draws keys in
// the forward direction K_1, K_2, ..., so a receiver holding the commitment
// K_0 can authenticate any later-disclosed key by iterating F, and a lost
// key K_i can be recovered from any subsequent key K_j (j > i) by applying
// F (j - i) times. Security rests on F being one-way.
//
// F is instantiated as HMAC-SHA256 keyed by the chain element over a fixed
// domain-separation label, truncated to KeySize bytes. A second PRF F'
// (different label) derives the per-interval MAC key from the chain element,
// as in the TESLA specification, so that disclosing a chain element never
// discloses a MAC key directly.
type KeyChain struct {
	keys [][]byte // keys[i] = K_i; keys[0] is the commitment
}

var (
	labelChain = []byte("tesla-chain-v1")
	labelMAC   = []byte("tesla-mackey-v1")
)

// prfStep computes K_{i-1} from K_i.
func prfStep(key []byte) []byte {
	return MAC(key, labelChain)[:KeySize]
}

// DeriveMACKey computes the per-interval MAC key K'_i from chain element
// K_i.
func DeriveMACKey(chainKey []byte) []byte {
	return MAC(chainKey, labelMAC)[:KeySize]
}

// NewKeyChain builds a chain of length+1 elements (K_0 .. K_length) from a
// secret seed (which becomes K_length, the last element generated... i.e.
// the anchor of the reverse iteration). length must be positive.
func NewKeyChain(seed []byte, length int) (*KeyChain, error) {
	if length <= 0 {
		return nil, fmt.Errorf("crypto: key chain length must be positive, got %d", length)
	}
	if len(seed) == 0 {
		return nil, errors.New("crypto: key chain seed must be non-empty")
	}
	keys := make([][]byte, length+1)
	anchor := MAC(seed, labelChain)[:KeySize]
	keys[length] = anchor
	for i := length; i > 0; i-- {
		keys[i-1] = prfStep(keys[i])
	}
	return &KeyChain{keys: keys}, nil
}

// size returns the number of usable (non-commitment) keys K_1 .. K_n.
func (kc *KeyChain) size() int { return len(kc.keys) - 1 }

// Commitment returns K_0, the value the sender signs into the bootstrap
// packet.
func (kc *KeyChain) Commitment() []byte {
	return clone(kc.keys[0])
}

// Key returns chain element K_i for 1 <= i <= Len().
func (kc *KeyChain) Key(i int) ([]byte, error) {
	if i < 1 || i > kc.size() {
		return nil, fmt.Errorf("crypto: key index %d out of [1,%d]", i, kc.size())
	}
	return clone(kc.keys[i]), nil
}

// verifyAgainstCommitment reports whether key is the genuine chain element
// K_i relative to commitment K_0, by iterating the PRF i times.
func verifyAgainstCommitment(commitment, key []byte, i int) bool {
	if i < 1 {
		return false
	}
	cur := clone(key)
	for step := 0; step < i; step++ {
		cur = prfStep(cur)
	}
	return bytesEqual(cur, commitment)
}

// recoverEarlierKey derives K_target from a later element K_from
// (target < from). It returns an error if target >= from.
func recoverEarlierKey(fromKey []byte, from, target int) ([]byte, error) {
	if target >= from {
		return nil, fmt.Errorf("crypto: cannot recover key %d from earlier key %d", target, from)
	}
	if target < 0 {
		return nil, fmt.Errorf("crypto: negative key index %d", target)
	}
	cur := clone(fromKey)
	for i := from; i > target; i-- {
		cur = prfStep(cur)
	}
	return cur, nil
}

// prfStepInto computes K_{i-1} from K_i into out (KeySize bytes) using
// scratch, allocating nothing in steady state. out and key may alias: the
// key is consumed before out is written.
func prfStepInto(s *MACScratch, out, key []byte) {
	sum := s.sum(key, labelChain)
	copy(out[:KeySize], sum[:KeySize])
}

// DeriveMACKeyInto derives the per-interval MAC key K'_i from chain
// element K_i into out (KeySize bytes) using scratch. Identical output to
// DeriveMACKey.
func DeriveMACKeyInto(s *MACScratch, out, chainKey []byte) {
	sum := s.sum(chainKey, labelMAC)
	copy(out[:KeySize], sum[:KeySize])
}

// RecoverEarlierKeyInto derives K_target from a later element K_from into
// out (KeySize bytes) using scratch, with identical results to
// recoverEarlierKey but no per-step allocations. out and fromKey may
// alias.
func RecoverEarlierKeyInto(s *MACScratch, out, fromKey []byte, from, target int) error {
	if target >= from {
		return fmt.Errorf("crypto: cannot recover key %d from earlier key %d", target, from)
	}
	if target < 0 {
		return fmt.Errorf("crypto: negative key index %d", target)
	}
	var cur [KeySize]byte
	copy(cur[:], fromKey)
	for i := from; i > target; i-- {
		prfStepInto(s, cur[:], cur[:])
	}
	copy(out[:KeySize], cur[:])
	return nil
}

// intervalKeyID encodes a key index for inclusion in wire packets.
func intervalKeyID(i int) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	return buf[:]
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}
