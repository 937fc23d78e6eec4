package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
)

// The allocating forms of the key-chain and MAC primitives, written the
// plain way: the oracles the scratch (...Into, MACScratch) forms are
// checked against.

// verifyMAC reports whether mac is a valid HMAC-SHA256 of data under key,
// in constant time.
func verifyMAC(key, data, mac []byte) bool {
	return hmac.Equal(MAC(key, data), mac)
}

// prfStep computes K_{i-1} from K_i.
func prfStep(key []byte) []byte {
	return MAC(key, labelChain)[:KeySize]
}

// deriveMACKey computes the per-interval MAC key K'_i from chain element
// K_i.
func deriveMACKey(chainKey []byte) []byte {
	return MAC(chainKey, labelMAC)[:KeySize]
}

// keyChain returns K_0 .. K_length drawn from seed: K_length = F(seed),
// K_{i-1} = F(K_i).
func keyChain(seed []byte, length int) ([][]byte, error) {
	if length <= 0 {
		return nil, fmt.Errorf("crypto: key chain length must be positive, got %d", length)
	}
	if len(seed) == 0 {
		return nil, errors.New("crypto: key chain seed must be non-empty")
	}
	keys := make([][]byte, length+1)
	keys[length] = prfStep(seed)
	for i := length; i > 0; i-- {
		keys[i-1] = prfStep(keys[i])
	}
	return keys, nil
}

// verifyAgainstCommitment reports whether key is the genuine chain element
// K_i relative to commitment K_0, by iterating the PRF i times.
func verifyAgainstCommitment(commitment, key []byte, i int) bool {
	if i < 1 {
		return false
	}
	cur := key
	for step := 0; step < i; step++ {
		cur = prfStep(cur)
	}
	return hmac.Equal(cur, commitment)
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
	cur := fromKey
	for i := from; i > target; i-- {
		cur = prfStep(cur)
	}
	return cur, nil
}

// parseVerifier reconstructs a Verifier from bytes produced by
// Verifier.Bytes.
func parseVerifier(b []byte) (Verifier, error) {
	if len(b) != ed25519.PublicKeySize {
		return nil, errors.New("crypto: malformed public key")
	}
	return &ed25519Verifier{pub: ed25519.PublicKey(append([]byte(nil), b...))}, nil
}

// batchRootWalk is the allocating Merkle path walk batchRootFromPath is
// fuzzed against.
func batchRootWalk(leaf Digest, index, count uint32, path []byte) (Digest, bool) {
	if count == 0 || index >= count || count > MaxBatch {
		return Digest{}, false
	}
	node := func(l, r Digest) Digest { return sha256.Sum256(slices.Concat(batchNodeLabel, l[:], r[:])) }
	cur := leaf
	idx, width := index, count
	for width > 1 {
		if idx^1 < width {
			if len(path) < HashSize {
				return Digest{}, false
			}
			sib := Digest(path[:HashSize])
			path = path[HashSize:]
			if idx&1 == 0 {
				cur = node(cur, sib)
			} else {
				cur = node(sib, cur)
			}
		}
		idx /= 2
		width = (width + 1) / 2
	}
	if len(path) != 0 {
		return Digest{}, false
	}
	return cur, true
}
